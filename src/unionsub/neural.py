"""Toy differentiable graph layers with hand-rolled backprop.

Coefficient tables enter the layers through Trans, a 1 -> 16 -> channels
map with one ReLU: its per-channel output Trans(a_vu) on the row-normalized
coefficient a_vu scales the message from u to v directly, with no second
normalization over v's neighbors.  Injection into Transformer models is not
reproduced.  GCN and GIN/union are one layer type (``LayerParams``) that
applies one linear map W(.) + b: GCN is the epsilon-free case with a degree
norm on messages and a ReLU on the output.  GIN's MLP is thus affine, and so
is a plain gin classifier end to end; it scores 0.500 on the cycle demo
(ROADMAP item 1).
Every layer runs on one engine: a batch of graphs is one disjoint union
(``_Batch``), built by concatenating the graphs' CSR arrays and their
tables' weights, and a single graph is a batch of one.  Training builds one
batch per run, train then val then test, and gathers every minibatch and
accuracy chunk from its arrays (``_Batch.take``).  Every per-pair and
per-node intermediate of a pass is written into a reusable ``Workspace``
that the batches share, so a training step allocates no large temporaries:
freeing them at the end of each step would hand the heap top back to the
OS, and the next step would fault it in again.  Logits, pooled embeddings
and gradients stay freshly allocated.  A classifier's parameter arrays are
views of one flat vector, so Adam updates them all in a handful of vector
operations.  The backward pass forms no gradient for the first layer's
input, the batch's features, which nothing trains.
Everything is plain numpy; the engine's gradients are verified against
central finite differences (see grad_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptors import Descriptor, coefficient_table
from .graphs import GraphError

TRANS_HIDDEN = 16  # Trans is 1 -> 16 -> channels, one ReLU inside
DEFAULT_BATCH_SIZE = 32  # graphs per Adam step
NUM_CLASSES = 2  # the classifier head's width
ACCURACY_CHUNK = 256  # graphs per forward pass when scoring accuracy
ADAM_LR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8
MAX_HIDDEN = 2048  # a one-epoch run on 14-node graphs peaks near 240 MB (tracemalloc)
# bound on the (pair + node) rows x width of one forward batch: its buffers
# take about 65 bytes a cell (a union-gcn run at 6.1M cells peaked at 396 MB,
# tracemalloc), so near 270 MB
MAX_BATCH_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# Scratch buffers
# ---------------------------------------------------------------------------

class Workspace:
    """Scratch arrays that one pass leaves for the next.

    ``array(key, shape)`` returns the buffer named ``key`` viewed as
    ``shape`` and allocates only when the buffer is too small, so once the
    largest batch has run no call allocates.  What a buffer holds lasts
    until the next request for its key.  Buffers that must outlive a layer,
    such as a forward's caches, are keyed by the id of the layer or weight
    matrix they belong to, which the model keeps alive; transient ones are
    shared by name.  A key always names arrays of one dtype.
    """

    __slots__ = ("_views", "_key_tables")

    def __init__(self):
        self._views = {}  # key -> the last view handed out; its base is the buffer
        self._key_tables = {}  # width -> its key table

    def array(self, key, shape, dtype=np.float64):
        view = self._views.get(key)
        if view is None or view.shape != shape:
            size = math.prod(shape)
            buf = None if view is None else view.base
            if buf is None or buf.size < size:
                buf = np.empty(size, dtype)
            view = self._views[key] = buf[:size].reshape(shape)
        return view

    def key_table(self, rows, width):
        """arange(n * width).reshape(n, width) with n >= rows: row r holds
        the keys r * width + channel of node r.  One table per width serves
        every batch; it is rebuilt only for a batch with more rows."""
        table = self._key_tables.get(width)
        if table is None or len(table) < rows:
            table = self._key_tables[width] = np.arange(rows * width).reshape(rows, width)
        return table


def _relu_grad(d, z, work, key):
    """d * (z > 0), the gradient through a ReLU at z, in ``work``'s buffer ``key``."""
    mask = np.greater(z, 0.0, out=work.array("relu_mask", z.shape, bool))
    return np.multiply(d, mask, out=work.array(key, d.shape))


# ---------------------------------------------------------------------------
# Linear maps and layer parameters
# ---------------------------------------------------------------------------

@dataclass
class Linear:
    """One affine map x @ w + b."""

    w: np.ndarray
    b: np.ndarray

    def arrays(self):
        return [self.w, self.b]


def glorot_uniform(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _linear_forward(linear, x, work):
    """x @ w + b, in ``work``'s buffer for w."""
    w = linear.w
    z = np.matmul(x, w, out=work.array(("z", id(w)), (len(x), w.shape[1])))
    z += linear.b
    return z


def _column_sums(x):
    # a matrix-vector product; x.sum(axis=0) takes a slow path on narrow rows
    return np.ones(len(x)) @ x


def _linear_backward(linear, x, dz, work):
    """Returns (d input, grads as a Linear) at input x; d input is a ``work`` buffer."""
    w = linear.w
    d = np.matmul(dz, w.T, out=work.array(("d", id(w)), (len(dz), w.shape[0])))
    return d, Linear(x.T @ dz, _column_sums(dz))


@dataclass
class LayerParams:
    """One message-passing layer; ``epsilon`` None makes it a GCN layer.

    Both layer types apply one linear map; GIN/union layers add a trainable
    (1 + eps) self term, and a GCN layer puts a ReLU after the map.
    """

    epsilon: np.ndarray | None  # 0-d array, trainable; None for GCN
    linear: Linear
    trans: tuple[Linear, Linear] | None  # Trans; None means unit weights (plain base)

    def arrays(self):
        out = [] if self.epsilon is None else [self.epsilon]
        for linear in (self.linear, *(self.trans or ())):
            out += linear.arrays()
        return out


def layer_params(in_dim, out_dim, rng, gin, with_trans):
    def linear(fan_in, fan_out):  # Trans's two maps draw first, then the layer's
        return Linear(glorot_uniform(rng, fan_in, fan_out), np.zeros(fan_out))

    trans = (linear(1, TRANS_HIDDEN), linear(TRANS_HIDDEN, in_dim)) if with_trans else None
    epsilon = np.zeros(()) if gin else None
    return LayerParams(epsilon, linear(in_dim, out_dim), trans)


# ---------------------------------------------------------------------------
# Batched engine (disjoint-union vectorization)
# ---------------------------------------------------------------------------
# A batch of graphs is stacked as one disjoint union, so a layer is a handful
# of array ops over every directed pair of the batch instead of thousands of
# tiny per-graph ones.

class _Batch:
    """A disjoint union of graphs with offset pair/node indexing.

    Each graph's nodes are a contiguous run starting at ``pool_starts``, so
    per-graph pooling is one reduceat; its directed pairs (center, nbr) are
    a run starting at ``pair_starts``, in adjacency order.  ``norm`` is each
    pair's degree norm 1/sqrt(d_v d_u), an isolated node counting as degree
    1.  Given coefficient ``tables`` (one per graph), ``coeff_rows`` holds
    each pair's rows [weight, 1]: the tables' ``weights`` in this pair order
    and a ones column that folds the first Trans bias into its matmul;
    without tables it is None.  ``take`` gathers a sub-batch from these arrays.

    ``work`` is the ``Workspace`` that passes over the batch write their
    intermediates into.  The constructor makes a new one and ``take`` hands
    this batch's to the sub-batch, so all batches taken from it share its
    buffers.  A forward's cache, which the backward reads, therefore
    stays valid only until the next forward on the same workspace: run the
    backward of a batch before any other forward that shares its workspace.
    """

    __slots__ = (
        "h0", "center", "nbr", "norm", "coeff_rows", "num_nodes",
        "node_sizes", "pool_starts", "pair_sizes", "pair_starts", "work",
    )

    def __init__(self, graphs, tables=None):
        node_sizes = np.array([g.num_nodes for g in graphs])
        if not node_sizes.all():
            raise GraphError("a graph with no nodes has no mean-pooled embedding")
        self._lay_out(node_sizes, np.array([2 * g.num_edges for g in graphs]))
        csr = [g.csr for g in graphs]
        degs = np.concatenate([indptr[1:] - indptr[:-1] for indptr, _ in csr])
        self.center = np.repeat(np.arange(self.num_nodes), degs)
        self.nbr = np.concatenate([nbr for _, nbr in csr])
        self.nbr += np.repeat(self.pool_starts, self.pair_sizes)
        unit = np.maximum(degs, 1).astype(float)
        self.norm = 1.0 / np.sqrt(unit[self.center] * unit[self.nbr])
        self.h0 = np.concatenate([g.features for g in graphs])
        self.coeff_rows = None
        if tables is not None:
            self.coeff_rows = np.ones((len(self.center), 2))
            self.coeff_rows[:, 0] = np.concatenate([table.weights for table in tables])
        self.work = Workspace()

    def _lay_out(self, node_sizes, pair_sizes):
        """Set the graphs' node and pair counts, the starts of their runs
        and the total node count."""
        self.node_sizes, self.pair_sizes = node_sizes, pair_sizes
        node_ends = np.cumsum(node_sizes)
        self.pool_starts = node_ends - node_sizes
        self.pair_starts = np.cumsum(pair_sizes) - pair_sizes
        self.num_nodes = int(node_ends[-1])

    def take(self, idx):
        """The batch of graphs ``idx`` (positions in this batch, in that
        order), gathered from this batch's arrays."""
        sub = object.__new__(_Batch)
        sub._lay_out(self.node_sizes[idx], self.pair_sizes[idx])
        # per graph, old position minus new position of its first node / pair
        node_shift = self.pool_starts[idx] - sub.pool_starts
        nodes = np.repeat(node_shift, sub.node_sizes) + np.arange(sub.num_nodes)
        pairs = (np.repeat(self.pair_starts[idx] - sub.pair_starts, sub.pair_sizes)
                 + np.arange(sub.pair_starts[-1] + sub.pair_sizes[-1]))
        pair_shift = np.repeat(node_shift, sub.pair_sizes)
        sub.h0 = self.h0[nodes]
        sub.center = self.center[pairs] - pair_shift
        sub.nbr = self.nbr[pairs] - pair_shift
        sub.norm = self.norm[pairs]
        sub.coeff_rows = None if self.coeff_rows is None else self.coeff_rows[pairs]
        sub.work = self.work
        return sub


def _scatter_rows(values, index, num_rows, work):
    """out[index[p]] += values[p] row by row: one bincount over the keys
    index * channels + channel, which sums each cell in pair order.  The
    keys are rows of ``work``'s key table gathered into ``work``; that table
    must have at least ``num_rows`` rows, or the clipped gather would
    repeat its last row.  The result is a new array."""
    channels = values.shape[1]
    keys = np.take(work.key_table(num_rows, channels), index, axis=0, mode="clip",
                   out=work.array("scatter_keys", values.shape, np.intp))
    out = np.bincount(keys.ravel(), weights=values.ravel(), minlength=num_rows * channels)
    # with no pairs bincount returns int64 zeros
    return out.astype(float, copy=False).reshape(num_rows, channels)


def _trans_forward(trans, coeff_rows, work):
    """Trans(coeff) per pair from rows [coeff, 1]; returns (t, cache).

    Trans is relu(coeff w1 + b1) w2 + b2.  The rows carry a ones column, so
    the first map's bias rides in its matmul: [coeff, 1] @ [w1; b1] is one
    BLAS call where coeff @ w1 + b1 broadcasts twice over narrow rows.
    """
    first, second = trans
    z = np.matmul(coeff_rows, np.concatenate((first.w, first.b[None])),
                  out=work.array(("z", id(first.w)), (len(coeff_rows), first.w.shape[1])))
    hidden = np.maximum(z, 0.0, out=work.array(("relu", id(first.w)), z.shape))
    return _linear_forward(second, hidden, work), (z, hidden)


def _trans_backward(trans, coeff_rows, cache, dt, work):
    """Gradients of Trans as two Linears; none reaches the coefficients."""
    z, hidden = cache
    d_hidden, second = _linear_backward(trans[1], hidden, dt, work)
    first = coeff_rows.T @ _relu_grad(d_hidden, z, work, "trans_dz")
    return Linear(first[:1], first[1]), second


def _layer_forward(layer, batch, h):
    """One message-passing layer over the batch; returns (h', cache).

    GCN: h' = relu(W(sum_u t(v,u) * h_u / sqrt(d_v d_u)) + b).
    GIN/union: h' = W((1 + eps) h_v + sum_u t(v,u) * h_u) + b, so isolated
    nodes keep only the self term.  t(v,u) = Trans(coeff_vu) per channel;
    without a Trans, t is 1.  The output and the cache live in the batch's
    workspace, in buffers that belong to ``layer``.
    """
    work = batch.work
    gcn = layer.epsilon is None
    pair_shape = (len(batch.nbr), h.shape[1])
    # the indices are valid by construction; mode "raise" would copy via a temporary
    h_nbr = msg = np.take(h, batch.nbr, axis=0, mode="clip",
                          out=work.array(("h_nbr", id(layer)), pair_shape))
    if gcn:
        msg = np.multiply(msg, batch.norm[:, None], out=work.array("msg", pair_shape))
    t = tcache = None
    if layer.trans is not None:
        t, tcache = _trans_forward(layer.trans, batch.coeff_rows, work)
        msg = np.multiply(msg, t, out=work.array("msg", pair_shape))
    agg = _scatter_rows(msg, batch.center, batch.num_nodes, work)
    if not gcn:
        agg += np.multiply(h, 1.0 + float(layer.epsilon), out=work.array("self", h.shape))
    z = out = _linear_forward(layer.linear, agg, work)
    if gcn:
        out = np.maximum(z, 0.0, out=work.array(("out", id(layer)), z.shape))
    return out, (h, h_nbr, t, tcache, agg, z)


def _layer_backward(layer, batch, cache, dout, input_grad=True):
    """Returns (dh, grads as LayerParams shaped like ``layer``).  With
    ``input_grad`` false, dh is None and is not formed: the first layer's
    input is the batch's features, which nothing trains."""
    h, h_nbr, t, tcache, agg, z = cache
    work = batch.work
    gcn = layer.epsilon is None
    if gcn:
        dout = _relu_grad(dout, z, work, "dout")
    d_agg, linear_grads = _linear_backward(layer.linear, agg, dout, work)
    d_msg = np.take(d_agg, batch.center, axis=0, mode="clip",
                    out=work.array("d_msg", (len(batch.center), d_agg.shape[1])))
    if gcn:
        d_msg *= batch.norm[:, None]
    trans_grads = d_eps = dh = None
    if t is not None:
        dt = np.multiply(d_msg, h_nbr, out=work.array("dt", d_msg.shape))
        trans_grads = _trans_backward(layer.trans, batch.coeff_rows, tcache, dt, work)
    if not gcn:
        d_eps = np.array(float(np.multiply(d_agg, h, out=work.array("d_self", h.shape)).sum()))
    if input_grad:
        d_nbr = d_msg if t is None else np.multiply(t, d_msg, out=work.array("d_nbr", d_msg.shape))
        dh = _scatter_rows(d_nbr, batch.nbr, batch.num_nodes, work)
        if not gcn:
            dh += np.multiply(d_agg, 1.0 + float(layer.epsilon), out=work.array("d_self", h.shape))
    return dh, LayerParams(d_eps, linear_grads, trans_grads)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(loss_and_grads, arrays, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads()`` returns (loss, grad arrays aligned with ``arrays``);
    ``loss_and_grads(value_only=True)`` returns just the loss at the current
    parameter values.  Arrays are perturbed in place.
    """
    loss, grads = loss_and_grads()
    if not np.isfinite(loss):
        raise GraphError("loss is not finite")
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        if not np.isfinite(gflat).all():
            raise GraphError("analytic gradient is not finite")
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_and_grads(value_only=True)
            flat[idx] = orig - step
            down = loss_and_grads(value_only=True)
            flat[idx] = orig
            fd = (up - down) / (2.0 * step)
            ga = gflat[idx]
            rel = abs(ga - fd) / max(1.0, abs(ga), abs(fd))
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam over one flat parameter vector (updated in place)."""

    def __init__(self, params):
        self.params = params
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad):
        """One update from ``grad``, the gradient vector aligned with the parameters."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        correction = math.sqrt(1 - b2 ** self.step_count) / (1 - b1 ** self.step_count)
        m, v = self.m, self.v
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * (grad * grad)
        self.params -= ADAM_LR * correction * m / (np.sqrt(v) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Graph classifier (2 layers + mean pool + linear head)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Which base layer to stack and whether coefficients are injected."""

    base: str  # "gcn" or "gin"
    use_coeffs: bool
    hidden: int = 16

    _BY_NAME = {  # model name -> (base, use_coeffs)
        "gcn": ("gcn", False),
        "gin": ("gin", False),
        "union-gcn": ("gcn", True),
        "union-gin": ("gin", True),
    }
    NAMES = tuple(_BY_NAME)

    def __post_init__(self):
        if not 1 <= self.hidden <= MAX_HIDDEN:
            raise GraphError(
                f"hidden width must be at least 1 and at most {MAX_HIDDEN}, got {self.hidden}"
            )

    @classmethod
    def parse(cls, name, hidden=hidden):  # the field's default
        if name not in cls._BY_NAME:
            raise GraphError(f"unknown model {name!r} (choose from {cls.NAMES})")
        return cls(*cls._BY_NAME[name], hidden)


@dataclass
class Classifier:
    """Every parameter array is a view of ``flat``, in ``arrays()`` order."""

    spec: ModelSpec
    layers: list
    head: Linear
    flat: np.ndarray | None = None

    def arrays(self):
        out = []
        for layer in self.layers:
            out += layer.arrays()
        return out + self.head.arrays()


def _share_one_vector(model):
    """Copy the model's arrays into ``model.flat`` and point the model at
    views of it, walking the arrays in ``arrays()`` order."""
    arrays = model.arrays()
    model.flat = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    views = iter([
        model.flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)
    ])
    for layer in model.layers:
        if layer.epsilon is not None:
            layer.epsilon = next(views)
        for linear in (layer.linear, *(layer.trans or ())):
            linear.w, linear.b = next(views), next(views)
    model.head.w, model.head.b = next(views), next(views)


def init_classifier(spec, in_dim, rng):
    dims = [in_dim, spec.hidden, spec.hidden]
    layers = [
        layer_params(dims[i], dims[i + 1], rng, spec.base == "gin", spec.use_coeffs)
        for i in range(2)
    ]
    head = Linear(glorot_uniform(rng, spec.hidden, NUM_CLASSES), np.zeros(NUM_CLASSES))
    model = Classifier(spec, layers, head)
    _share_one_vector(model)
    return model


def _batched_forward(model, batch):
    """Per-graph class logits for every graph of the batch."""
    h = batch.h0
    caches = []
    for layer in model.layers:
        h, cache = _layer_forward(layer, batch, h)
        caches.append(cache)
    pooled = np.add.reduceat(h, batch.pool_starts, axis=0)
    pooled /= batch.node_sizes[:, None]
    logits = pooled @ model.head.w + model.head.b
    return logits, (caches, pooled)


def _batched_backward(model, batch, cache, dlogits):
    """Gradients aligned with ``model.arrays()``; the first layer forms no
    input gradient."""
    caches, pooled = cache
    dpooled, head_grads = _linear_backward(model.head, pooled, dlogits, batch.work)
    grads = head_grads.arrays()
    dh = np.repeat(dpooled / batch.node_sizes[:, None], batch.node_sizes, axis=0)
    for i in range(len(model.layers) - 1, -1, -1):
        dh, layer_grads = _layer_backward(model.layers[i], batch, caches[i], dh, input_grad=i > 0)
        grads[:0] = layer_grads.arrays()
    return grads


def _batched_cross_entropy(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(shifted - logsumexp)
    losses = logsumexp[:, 0] - shifted[np.arange(len(labels)), labels]
    dlogits = probs
    dlogits[np.arange(len(labels)), labels] -= 1.0
    return losses, dlogits


def _accuracy_chunks(batch, lo, hi):
    """Graphs lo..hi-1 of ``batch`` in batches of ACCURACY_CHUNK."""
    return [
        batch.take(np.arange(start, min(start + ACCURACY_CHUNK, hi)))
        for start in range(lo, hi, ACCURACY_CHUNK)
    ]


def _batched_accuracy(model, chunks, labels):
    if not len(labels):
        return 0.0
    predicted = [np.argmax(_batched_forward(model, b)[0], axis=1) for b in chunks]
    return int((np.concatenate(predicted) == labels).sum()) / len(labels)


@dataclass
class TrainReport:
    model: Classifier
    train_acc: float
    val_acc: float
    test_acc: float
    loss_curve: list  # (epoch, train_loss, val_acc)


def _largest_batch_rows(splits, batch_size):
    """Pair plus node rows of the largest forward batch a run can make: the
    batch_size largest training graphs, or one accuracy chunk of a split."""
    rows = {name: [2 * g.num_edges + g.num_nodes for g, _ in split]
            for name, split in splits.items()}
    largest = sum(sorted(rows["train"])[-batch_size:])
    for sizes in rows.values():
        for start in range(0, len(sizes), ACCURACY_CHUNK):
            largest = max(largest, sum(sizes[start:start + ACCURACY_CHUNK]))
    return largest


def train_classifier(train, val, test, spec, epochs, seed, batch_size=DEFAULT_BATCH_SIZE):
    """Train the 2-layer classifier with Adam (step ADAM_LR); deterministic
    given the seed.

    Labels must lie in 0..NUM_CLASSES-1, epochs must be at least 0 and
    batch_size at least 1, and every graph needs at least one node and as
    many feature channels as the first training graph.  A run whose largest
    forward batch exceeds MAX_BATCH_CELLS is refused before any work.
    Returns a TrainReport; with epochs=0 the untrained model is evaluated
    directly.
    """
    if not train:
        raise GraphError("empty training dataset")
    if batch_size < 1:
        raise GraphError(f"batch size must be at least 1, got {batch_size}")
    if epochs < 0:
        raise GraphError(f"epochs must be at least 0, got {epochs}")
    in_dim = train[0][0].features.shape[1]
    for g, label in list(train) + list(val) + list(test):
        if not 0 <= label < NUM_CLASSES:
            raise GraphError(f"label {label} outside 0..{NUM_CLASSES - 1}")
        width = g.features.shape[1]
        if width != in_dim:
            raise GraphError(
                f"a graph has {width} feature channels, the first training graph {in_dim}"
            )
    splits = {"train": train, "val": val, "test": test}
    rows = _largest_batch_rows(splits, batch_size)
    width = max(spec.hidden, in_dim, TRANS_HIDDEN)
    if rows * width > MAX_BATCH_CELLS:
        raise GraphError(
            f"the largest forward batch has {rows} pair and node rows of width {width}, "
            f"above the bound of {MAX_BATCH_CELLS} cells"
        )
    rng = np.random.default_rng(seed)
    model = init_classifier(spec, in_dim, rng)
    # one batch for the run, train then val then test: every minibatch and
    # accuracy chunk is gathered from it and shares its workspace
    graphs = [g for split in splits.values() for g, _ in split]
    labels = np.array([label for split in splits.values() for _, label in split], dtype=int)
    tables = None
    if spec.use_coeffs:
        kind = Descriptor("union-path")
        tables = [coefficient_table(g, kind) for g in graphs]
    whole = _Batch(graphs, tables)
    ends = np.cumsum([len(split) for split in splits.values()])
    scored = {  # split name -> (accuracy chunks, labels)
        name: (_accuracy_chunks(whole, end - len(split), end), labels[end - len(split):end])
        for (name, split), end in zip(splits.items(), ends)
    }

    def accuracy(name):
        return _batched_accuracy(model, *scored[name])

    adam = Adam(model.flat)
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            batch = whole.take(idx)  # train comes first, so its positions are its indices
            logits, cache = _batched_forward(model, batch)
            losses, dlogits = _batched_cross_entropy(logits, labels[idx])
            epoch_loss += float(losses.sum())
            grads = _batched_backward(model, batch, cache, dlogits / len(idx))
            adam.step(np.concatenate(grads, axis=None))
            # drop the views of the workspace's buffers: an accuracy forward over a
            # larger batch replaces them, and the old ones are then freed at once
            del cache
        curve.append((epoch + 1, epoch_loss / len(train), accuracy("val")))
    return TrainReport(
        model=model,
        train_acc=accuracy("train"),
        val_acc=accuracy("val"),
        test_acc=accuracy("test"),
        loss_curve=curve,
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

def params_to_json_obj(model):
    return {
        "model": {
            "base": model.spec.base,
            "use_coeffs": model.spec.use_coeffs,
            "hidden": model.spec.hidden,
        },
        "arrays": [
            {"shape": list(a.shape), "data": np.asarray(a).ravel().tolist()}
            for a in model.arrays()
        ],
    }

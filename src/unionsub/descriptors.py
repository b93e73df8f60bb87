"""Per-edge structural descriptors, matrix encodings, and coefficient tables.

The flagship descriptor turns an edge's union subgraph into its shortest-path
matrix and encodes it as the singular-value sum (nuclear norm).  The rivals
are node/edge count, edge betweenness, Laplacian spectrum, Ollivier-Ricci
curvature with exact optimal transport, and cycle counting.  Every per-edge
kind fills one table format: ``values``, the raw coefficient of each edge of
``g.edges``, and ``weights``, the normalized coefficient of each directed
pair (v, u) in ``g.csr`` order (v ascending, then u ascending), which the
1-WL verdict and the layer engine read as they are.  Its dict views ``raw``
and ``normalized`` are built only when read.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, Subgraph, count_simple_cycles
from .transport import wasserstein_discrete

NORMALIZATION_ZERO_TOL = 1e-12
# bound on the matrix entries plus member-neighbour pairs of one chunk of a
# table's edges; bounds the memory of a table on a large graph
BATCH_ENTRIES = 1 << 17
# bound on the nodes of one edge's local subgraph in a matrix stack; a
# betweenness edge at this size peaks near 251 MB (tracemalloc)
MAX_LOCAL_NODES = 2500
# bound on the rows x cols of a curvature transport problem, whose time grows faster
# than its size: 128 x 128 between two hubs took up to 0.13 s on a 2-vCPU host
MAX_TRANSPORT_CELLS = 1 << 14


class DescriptorError(ValueError):
    """A descriptor could not be evaluated; carries edge identity when known."""


class Encoding(enum.Enum):
    """How a symmetric descriptor matrix is reduced to a scalar."""

    MATRIX_SUM = "matrix-sum"
    EIGEN_MAX = "eigen-max"
    SVD_SUM = "svd-sum"

    @classmethod
    def parse(cls, text):
        for member in cls:
            if member.value == text:
                return member
        raise DescriptorError(f"unknown encoding {text!r}")


@dataclass(frozen=True)
class Descriptor:
    """A per-edge descriptor kind with its parameters.

    lam applies to count-ne (1 for node-level, 2 for graph-level use),
    alpha to curvature (laziness of the random walk), cycle_len to
    cycle-count (which is graph-global and excluded from coefficient tables).
    """

    kind: str
    lam: int = 2
    alpha: float = 0.5
    cycle_len: int = 6

    KINDS = (
        "union-path", "overlap-path", "minus-path", "laplacian",
        "betweenness", "count-ne", "curvature", "cycle-count",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DescriptorError(f"unknown descriptor kind {self.kind!r}")
        if self.lam not in (1, 2):
            raise DescriptorError("count-ne lambda must be 1 or 2")
        if not 0.0 <= self.alpha < 1.0:
            raise DescriptorError("curvature alpha must lie in [0, 1)")
        if not 3 <= self.cycle_len <= 8:
            raise DescriptorError("cycle length must lie in 3..8")

    @classmethod
    def parse(cls, text):
        """Parse strings like "union-path", "count-ne:1", "cycle-count:6"."""
        kind, _, param = text.partition(":")
        if not param:
            return cls(kind)
        fields = {"count-ne": ("lam", int), "curvature": ("alpha", float),
                  "cycle-count": ("cycle_len", int)}
        if kind not in fields:
            raise DescriptorError(f"descriptor {kind!r} takes no parameter")
        name, convert = fields[kind]
        try:
            value = convert(param)
        except ValueError:
            raise DescriptorError(f"invalid parameter in {text!r}") from None
        return cls(kind, **{name: value})


UNION_PATH_SVD = Descriptor("union-path")
OVERLAP_PATH_SVD = Descriptor("overlap-path")
MINUS_PATH_SVD = Descriptor("minus-path")
BETWEENNESS = Descriptor("betweenness")
COUNT_NE = Descriptor("count-ne")
RICCI_CURVATURE = Descriptor("curvature")
LAPLACIAN_SVD = Descriptor("laplacian")


# ---------------------------------------------------------------------------
# Path matrices
# ---------------------------------------------------------------------------

def path_matrix(s):
    """Shortest-path matrix of a connected subgraph; rows follow s.parent_ids."""
    a = np.zeros((1, s.num_nodes, s.num_nodes))
    for i, j in s.local.edges:
        a[0, i, j] = a[0, j, i] = 1.0
    return _path_lengths(a)[0].astype(int)


def reconstruct_subgraph(entries, order):
    """Invert path_matrix: the subgraph on parent ids ``order`` whose path
    matrix is ``entries``, which must be that of the graph of its 1 entries."""
    entries = np.asarray(entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DescriptorError("path matrix must be square")
    if (entries < 0).any():
        raise DescriptorError("path matrix entries must be non-negative")
    if not np.array_equal(entries, entries.T):
        raise DescriptorError("path matrix must be symmetric")
    if np.diag(entries).any():
        raise DescriptorError("path matrix diagonal must be zero")
    a = entries == 1
    if not np.array_equal(_path_lengths(a[None] * 1.0)[0], entries):
        raise DescriptorError("entries are not the shortest-path lengths of their graph")
    return Subgraph(Graph(len(a), np.argwhere(np.triu(a)).tolist()), order)


def _path_lengths(a, bound=None, counts=False):
    """Shortest-path lengths of a (B, k, k) stack of adjacency matrices.

    The length of (x, y) is the least d with (A^d)[x, y] > 0.  Products run
    until one reaches no new pair; a pair never reached raises
    DescriptorError.  A caller that knows no length exceeds ``bound`` stops at
    A^(bound - 1), the pairs left getting ``bound``.  ``counts`` also returns
    those entries of A^d, the shortest-path counts (shortest walks are paths).
    """
    diag = np.arange(a.shape[1])
    # 0 marks a pair not reached; the diagonal, set last, is reached by A^2
    lengths = paths = walks = a
    for step in itertools.count(2):
        walks = walks @ a
        rest = bound if step + 1 == bound else 0.0
        known = lengths > 0
        grown = np.where(known, lengths, np.where(walks > 0, step, rest))
        if counts:  # the pairs left at the bound are reached by one product more
            new = np.where(walks > 0, walks, walks @ a) if rest else walks
            paths = np.where(known, paths, new)
        elif bound is None:
            np.minimum(walks, 1.0, out=walks)  # keeps only the support, so no overflow
        if rest or grown.all() or len(diag) == 1:
            grown[:, diag, diag] = 0.0
            if not counts:
                return grown
            paths[:, diag, diag] = 1.0
            return grown, paths
        if np.array_equal(grown, lengths):
            raise DescriptorError("subgraph is disconnected; path matrix undefined")
        lengths = grown


def encode_matrix(matrix, encoding):
    """Reduce a square matrix to a scalar per the chosen encoding."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DescriptorError("encoding requires a square matrix")
    if not np.isfinite(m).all():
        raise DescriptorError("matrix entries must be finite")
    if encoding is Encoding.MATRIX_SUM:
        return float(m.sum())
    if not np.allclose(m, m.T, atol=1e-9):
        raise DescriptorError("matrix must be symmetric")
    return float(_encode_stack(((m + m.T) / 2.0)[None], encoding)[0])


def _encode_stack(stack, encoding):
    """Encode a (B, k, k) stack of symmetric matrices, one value per matrix.

    Singular values of a symmetric matrix are its absolute eigenvalues, so
    both spectral encodings need only ``eigvalsh``.
    """
    if encoding is Encoding.MATRIX_SUM:
        return stack.sum(axis=(1, 2))
    if encoding is Encoding.SVD_SUM:
        return np.abs(np.linalg.eigvalsh(stack)).sum(axis=1)
    if encoding is Encoding.EIGEN_MAX:
        return np.abs(np.linalg.eigvalsh(stack)).max(axis=1, initial=0.0)
    raise DescriptorError(f"unknown encoding {encoding!r}")


def local_descriptor_values(g, edges, kind, encoding):
    """Values of every per-edge kind but curvature for ``edges`` of g, in order.

    Local nodes are N[v] | N[u] (N[v] & N[u] for overlap); union-minus drops
    the edges between v's and u's exclusive neighbours.  Every local node is
    v, u or adjacent to one of them, and v ~ u, so the diameter is at most 3
    and the path lengths stop after A^2: 1 on edges, 2 where A^2 > 0, else 3.
    Array ops give the i-th edge's local nodes as sorted member keys i*n + x
    and look each member's neighbours up among the keys for the local edges;
    edges sorted by size fill one flat array sliced into (B, k, k) stacks.
    Each chunk of edges holds at most BATCH_ENTRIES of a per-endpoint bound,
    2 (deg x + 1)^2 for matrix entries plus the degrees summed over N[x] for
    member-neighbour pairs.  count-ne builds no matrix; every other kind
    refuses an edge whose local subgraph has over MAX_LOCAL_NODES nodes.
    """
    indptr, nbr = g.csr
    degree = indptr[1:] - indptr[:-1]
    walks = np.concatenate(([0], degree[nbr].cumsum()))
    bound = 2 * (degree + 1) ** 2 + degree + walks[indptr[1:]] - walks[indptr[:-1]]
    ends = np.fromiter(itertools.chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)
    total = np.concatenate(([0], bound[ends].cumsum()[1::2]))  # summed over the edges before each
    values, lo = np.empty(len(ends)), 0
    while lo < len(ends):
        hi = max(lo + 1, total.searchsorted(total[lo] + BATCH_ENTRIES, "right") - 1)
        values[lo:hi] = _chunk_values(indptr, degree, nbr, ends[lo:hi], kind, encoding)
        lo = hi
    return values


def _chunk_values(indptr, degree, nbr, ends, kind, encoding):
    """local_descriptor_values of the (B, 2) array ``ends``, from g's CSR arrays."""
    batch, n = len(ends), len(degree)
    own = ends + np.arange(0, batch * n, n)[:, None]  # the endpoints' keys
    at, x = _rows(indptr, degree, nbr, ends.reshape(-1), (own - ends).reshape(-1))
    # keys of N[v] and N[u] shifted left, bit 0 naming the side (1 for u)
    tagged = np.concatenate(([-2], (2 * own + [0, 1]).reshape(-1), 2 * x + (at & 1)))
    tagged.sort()
    keys = tagged >> 1
    new = keys[1:] != keys[:-1]
    members = keys[1:][~new if kind.kind == "overlap-path" else new]
    edge = members // n
    k = np.bincount(edge, minlength=batch)
    offset = k.cumsum() - k
    at, target = _rows(indptr, degree, nbr, members % n, edge * n)
    pos = members.searchsorted(target)
    hit = members.take(pos, mode="clip") == target
    if kind.kind == "minus-path":  # drop edges joining an exclusive neighbour of v to one of u
        sides = np.where(np.append(~new[1:], False), 3, 1 + (tagged[1:] & 1))[new]
        hit &= (sides[at] & sides.take(pos, mode="clip")) != 0
    at, pos = at[hit], pos[hit]
    del target, hit  # freed before the matrices are allocated
    if kind.kind == "count-ne":
        return np.bincount(edge[at], minlength=batch) / 2 / (k * (k - 1)) * k ** kind.lam
    big = k.argmax()
    if k[big] > MAX_LOCAL_NODES:
        v, u = ends[big].tolist()
        raise DescriptorError(f"edge ({v}, {u}): its local subgraph has {k[big]} nodes, "
                              f"above the bound of {MAX_LOCAL_NODES}")
    order = k.argsort(kind="stable")
    rank, size = order.argsort(), k[order]
    cells = (size * size).cumsum()
    a = np.zeros(cells[-1])
    # members i, j of edge e meet at (i - offset[e]) k[e] + j - offset[e] in its matrix
    row = (cells[rank] - k * k - offset * (k + 1))[edge] + np.arange(len(members)) * k[edge]
    a[row[at] + pos] = 1.0
    local_ends = (members.searchsorted(own) - offset[:, None])[order]
    values = np.empty(batch)
    cuts = ((size[1:] != size[:-1]).nonzero()[0] + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, batch]):
        s = int(size[lo])
        stack = a[cells[hi - 1] - (hi - lo) * s * s:cells[hi - 1]].reshape(-1, s, s)
        values[lo:hi] = _stack_values(stack, local_ends[lo:hi], kind, encoding)
    return values[rank]


def _rows(indptr, degree, nbr, nodes, start):
    """(i, start[i] + y) for every neighbour y of every nodes[i], row by row."""
    counts = degree[nodes]
    at = np.arange(len(nodes)).repeat(counts)
    index = (indptr[nodes] - counts.cumsum() + counts)[at]
    index += np.arange(len(at))
    index = nbr[index]
    index += start[at]
    return at, index


def _stack_values(a, ends, kind, encoding):
    """One value per matrix of a (B, k, k) local adjacency stack.

    Row i of the (B, 2) array ``ends`` holds the local indices of matrix i's
    edge endpoints v and u.
    """
    batch, k, _ = a.shape
    if kind.kind == "laplacian":
        diag = np.arange(k)
        m = -a
        m[:, diag, diag] = a.sum(axis=2)
        return _encode_stack(m, encoding)
    if kind.kind != "betweenness":
        return _encode_stack(_path_lengths(a, bound=3), encoding)
    d, sigma = _path_lengths(a, bound=3, counts=True)
    # the ordered pair (x, y) counts its shortest paths x ... v - u ... y and
    # (y, x) those through u - v, so each unordered pair sees both directions
    rows = np.arange(batch)
    da, db = d[rows, ends[:, 0]], d[rows, ends[:, 1]]
    sa, sb = sigma[rows, ends[:, 0]], sigma[rows, ends[:, 1]]
    on_path = da[:, :, None] + 1.0 + db[:, None, :] == d
    return (on_path * sa[:, :, None] * sb[:, None, :] / sigma).sum(axis=(1, 2))


# ---------------------------------------------------------------------------
# Rival descriptors
# ---------------------------------------------------------------------------

def curvature_values(g, edges, alpha):
    """Ollivier-Ricci curvature 1 - W1(mu_v, mu_u) of ``edges`` of g, in order.

    Each endpoint keeps mass alpha and spreads 1 - alpha evenly over its
    neighbours.  W1 depends only on mu_v - mu_u, so the mass both measures
    put on v, u and their common neighbours cancels before transport.  The
    points left (x of v, y of u, x != y) lie at distance 1 (x ~ y), 2 (a
    common neighbour anywhere in g, not only in the union subgraph) or 3.
    Only the rows of the endpoints and their neighbours are read.
    """
    adj = g.adjacency
    closed = {x: sorted((x, *adj[x])) for x in {x for edge in edges for x in edge}}
    near = {y: set(adj[y]) for y in set(itertools.chain.from_iterable(closed.values()))}
    spread = {x: (1.0 - alpha) / max(len(adj[x]), 1) for x in closed}

    def left(center, other):
        """Points of center's measure that keep mass after cancelling, and that mass."""
        points, mass = [], []
        own, theirs, their_near = spread[center], spread[other], near[other]
        for x in closed[center]:
            m = alpha if x == center else own
            shared = alpha if x == other else theirs if x in their_near else 0.0
            if m > shared:
                points.append(x)
                mass.append(m - shared)
        return points, mass

    values = []
    for v, u in edges:
        (rows, mu), (cols, nu) = left(v, u), left(u, v)
        w1 = 0.0  # if one side keeps no mass, the other holds only rounding residue
        if rows and cols:
            if len(rows) * len(cols) > MAX_TRANSPORT_CELLS:
                raise DescriptorError(f"edge ({v}, {u}): {len(rows)} x {len(cols)} transport "
                                      f"cells, above the bound of {MAX_TRANSPORT_CELLS}")
            col_near = [(y, near[y]) for y in cols]
            distances = [[1.0 if y in near_x else 3.0 if near_x.isdisjoint(near_y) else 2.0
                          for y, near_y in col_near] for near_x in map(near.__getitem__, rows)]
            try:
                w1 = wasserstein_discrete(mu, nu, distances)
            except (DescriptorError, RuntimeError) as exc:
                raise DescriptorError(f"edge ({v}, {u}): {exc}") from exc
        values.append(1.0 - w1)
    return values


def ricci_curvature(g, v, u, alpha=0.5):
    """Lazy-random-walk Ricci curvature of one edge, as coefficient_table has it."""
    if not 0.0 <= alpha < 1.0:
        raise DescriptorError("alpha must lie in [0, 1)")
    if not g.has_edge(v, u):
        raise DescriptorError(f"({v}, {u}) is not an edge")
    return curvature_values(g, [(min(v, u), max(v, u))], alpha)[0]


def cycle_count(g, k):
    """Number of simple k-cycles in the whole graph, 3 <= k <= 8."""
    if not 3 <= k <= 8:
        raise DescriptorError("cycle length must lie in 3..8")
    return count_simple_cycles(g, k)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CoefficientTable:
    """One graph's coefficients as two read-only arrays.

    ``values[i]`` is the raw coefficient of ``graph.edges[i]``; ``weights``
    holds the normalized coefficient of each directed pair (v, u) in the
    order of ``graph.csr``, and each non-isolated v's pairs sum to 1.  The
    dict views ``raw`` (keys (min, max)) and ``normalized`` (keys (v, u)) are
    built on first read and kept; editing one changes no array.
    """

    graph: Graph
    values: np.ndarray
    weights: np.ndarray

    @cached_property
    def raw(self):
        return dict(zip(self.graph.edges, self.values.tolist()))

    @cached_property
    def normalized(self):
        pairs = ((v, u) for v, row in enumerate(self.graph.adjacency) for u in row)
        return dict(zip(pairs, self.weights.tolist()))

    def raw_value(self, v, u):
        return self.raw[(v, u) if v < u else (u, v)]

    def to_json_obj(self):
        return {"raw": [[v, u, val] for (v, u), val in self.raw.items()],
                "normalized": [[v, u, val] for (v, u), val in self.normalized.items()]}

    def to_csv_text(self):
        norm = self.normalized
        lines = ["v,u,raw,norm_vu,norm_uv"]
        for (v, u), val in self.raw.items():
            lines.append(f"{v},{u},{val:.12g},{norm[(v, u)]:.12g},{norm[(u, v)]:.12g}")
        return "\n".join(lines) + "\n"


def coefficient_table(g, kind=UNION_PATH_SVD, encoding=Encoding.SVD_SUM):
    """Raw and normalized structural coefficients for every edge of g.

    A pair's weight is its edge's value over the sum of the values around its
    center, added left to right in adjacency order; a node whose sum is
    within NORMALIZATION_ZERO_TOL of 0 warns and weighs its pairs uniformly.
    Deterministic regardless of node labeling.  cycle-count is graph-global
    and rejected here (it exists for the preprocessing benchmark only).
    """
    if kind.kind == "cycle-count":
        raise DescriptorError("cycle-count is graph-global, not a per-edge kind")
    if kind.kind == "curvature":
        values = np.array(curvature_values(g, g.edges, kind.alpha), dtype=float)
    else:
        values = local_descriptor_values(g, g.edges, kind, encoding)
    indptr, nbr = g.csr
    degree = indptr[1:] - indptr[:-1]
    center = np.arange(g.num_nodes).repeat(degree)
    # g.edges lists the pairs (v, u) with v < u, in pair order
    key = np.minimum(center, nbr) * g.num_nodes + np.maximum(center, nbr)
    raw = values[key[center < nbr].searchsorted(key)]
    # np.add.reduceat may pair the terms otherwise, which moves the last bit
    listed, bounds = raw.tolist(), indptr.tolist()
    sums = np.array([sum(listed[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], dtype=float)
    fallback = (np.abs(sums) < NORMALIZATION_ZERO_TOL) & (degree > 0)
    for v in fallback.nonzero()[0].tolist():
        warnings.warn(f"coefficients around node {v} sum to ~0; falling back to uniform weights",
                      RuntimeWarning, stacklevel=2)
    # a fallback node's pairs get 1 / degree; no pair divides by a sum near 0
    weights = np.where(fallback[center], 1.0, raw) / np.where(fallback, degree, sums)[center]
    for a in (values, weights):
        a.setflags(write=False)
    return CoefficientTable(g, values, weights)

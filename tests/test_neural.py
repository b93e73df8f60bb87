import importlib.util
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unionsub.datasets import build_cycle_dataset
from unionsub.descriptors import Descriptor, coefficient_table
from unionsub.graphs import (
    Graph, GraphError, complete_graph, cycle_graph, parse_graph,
    random_graph, rook_graph_4x4, shrikhande_graph, two_triangles_graph,
)
from unionsub import neural as nn
from unionsub.wl import distinguish_pair

from helpers import cubic_graphs_on_ten_nodes, is_connected, relabel


def connected_random_graph(seed, n=6, p=0.5):
    rng = random.Random(seed)
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g) and g.num_edges >= n - 1:
            return g


def union_path_tables(graphs, with_coeffs=True):
    kind = Descriptor("union-path")
    return [coefficient_table(g, kind) for g in graphs] if with_coeffs else None


def make_batch(graphs, with_coeffs=True):
    return nn._Batch(graphs, union_path_tables(graphs, with_coeffs))


def with_features(g, rng, dim=3):
    return Graph(g.num_nodes, g.edges, rng.normal(size=(g.num_nodes, dim)))


def mixed_graphs(rng):
    """Six featured graphs of mixed sizes: an isolated node and an edgeless one."""
    graphs = [connected_random_graph(s, n=n) for s, n in ((1, 3), (2, 5), (3, 6), (4, 8))]
    graphs.append(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3)]))  # node 4 isolated
    graphs.append(Graph(2, []))
    return [with_features(g, rng) for g in graphs]


def trans_by_hand(trans, c):
    """Trans rows relu(c w1 + b1) @ w2 + b2 for a column of coefficients c."""
    first, second = trans
    return np.maximum(c * first.w + first.b, 0.0) @ second.w + second.b


def dense_trans(trans, g, coeffs):
    """Oracle Trans weights as an (n, n, channels) array, zero off the edges."""
    n = g.num_nodes
    out = np.zeros((n, n, trans[1].w.shape[1]))
    for v in range(n):
        nbrs = list(g.neighbors(v))
        if not nbrs:
            continue
        out[v, nbrs] = trans_by_hand(trans, np.array([[coeffs.normalized[(v, u)]] for u in nbrs]))
    return out


def unit_trans(channels):
    """A Trans that outputs exactly 1 on every channel."""
    return (nn.Linear(np.zeros((1, nn.TRANS_HIDDEN)), np.zeros(nn.TRANS_HIDDEN)),
            nn.Linear(np.zeros((nn.TRANS_HIDDEN, channels)), np.ones(channels)))


def identity_layer(width, trans=None):
    """A GIN layer with eps 0 whose linear map is the identity."""
    return nn.LayerParams(np.zeros(()), nn.Linear(np.eye(width), np.zeros(width)), trans)


def layer_weights(layer, batch, h):
    """The per-pair Trans weights t that one layer forward applies."""
    _, (_, _, t, *_) = nn._layer_forward(layer, batch, h)
    return t


def dense_logits(model, g, coeffs):
    """Oracle classifier forward on n x n matrices of one graph."""
    n = g.num_nodes
    adj = np.zeros((n, n))
    for v, u in g.edges:
        adj[v, u] = adj[u, v] = 1.0
    deg = np.maximum(adj.sum(axis=1), 1.0)
    gcn = model.spec.base == "gcn"
    weights = adj / np.sqrt(np.outer(deg, deg)) if gcn else adj
    h = g.features
    for layer in model.layers:
        if layer.trans is None:
            agg = weights @ h
        else:
            t = dense_trans(layer.trans, g, coeffs)
            agg = np.einsum("vu,vuc,uc->vc", weights, t, h)
        if gcn:
            h = np.maximum(agg @ layer.linear.w + layer.linear.b, 0.0)
        else:
            h = ((1.0 + float(layer.epsilon)) * h + agg) @ layer.linear.w + layer.linear.b
    return h.mean(axis=0) @ model.head.w + model.head.b


def pooled_mse_head(forward, backward, target):
    """Mean-pool + MSE loss around a layer, in grad_check's calling form.

    ``forward()`` -> (out, cache); ``backward(cache, dout)`` -> grads list.
    """

    def loss_and_grads(value_only=False):
        out, cache = forward()
        pooled = out.mean(axis=0)
        diff = pooled - target
        loss = float((diff * diff).mean())
        if value_only:
            return loss
        dpooled = 2.0 * diff / diff.size
        dout = np.tile(dpooled / out.shape[0], (out.shape[0], 1))
        return loss, backward(cache, dout)

    return loss_and_grads


def classifier_loss(model, batch, labels):
    """The mean cross-entropy that train_classifier minimizes, for grad_check."""

    def loss_and_grads(value_only=False):
        logits, cache = nn._batched_forward(model, batch)
        losses, dlogits = nn._batched_cross_entropy(logits, labels)
        if value_only:
            return float(losses.mean())
        grads = nn._batched_backward(model, batch, cache, dlogits / len(labels))
        return float(losses.mean()), grads

    return loss_and_grads


class TestLinear:
    def test_linear_matches_manual(self):
        rng = np.random.default_rng(0)
        linear = nn.Linear(rng.normal(size=(3, 2)), rng.normal(size=2))
        x = rng.normal(size=(4, 3))
        y = nn._linear_forward(linear, x, nn.Workspace())
        assert np.allclose(y, x @ linear.w + linear.b)

    def test_trans_matches_manual(self):
        # the folded [c, 1] @ [w1; b1] first map against relu(c w1 + b1) @ w2 + b2
        rng = np.random.default_rng(2)
        trans = nn.layer_params(5, 5, rng, gin=True, with_trans=True).trans
        for linear in trans:
            linear.b[...] = rng.normal(size=linear.b.shape)
        c = rng.uniform(0.0, 1.0, size=(7, 1))
        t, _ = nn._trans_forward(trans, np.hstack([c, np.ones((7, 1))]), nn.Workspace())
        assert t.shape == (7, 5)
        assert np.allclose(t, trans_by_hand(trans, c), atol=1e-12)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(1)
        w = nn.glorot_uniform(rng, 10, 6)
        limit = np.sqrt(6.0 / 16.0)
        assert np.abs(w).max() <= limit


class TestTrans:
    def test_equal_coefficients_give_uniform(self):
        # every normalized coefficient of C6 is 0.5, so every pair gets the
        # same weight row, Trans(0.5)
        rng = np.random.default_rng(5)
        layer = nn.layer_params(4, 4, rng, gin=True, with_trans=True)
        t = layer_weights(layer, make_batch([cycle_graph(6)]), np.ones((6, 4)))
        expected = trans_by_hand(layer.trans, np.array([[0.5]]))
        assert t.shape == (12, 4)
        assert np.allclose(t, expected[0], atol=1e-12)

    def test_table_view(self):
        # every directed pair of every graph gets exactly one weight row
        graphs = [connected_random_graph(6), cycle_graph(4)]
        batch = make_batch(graphs)
        rng = np.random.default_rng(7)
        layer = nn.layer_params(2, 2, rng, gin=True, with_trans=True)
        t = layer_weights(layer, batch, np.ones((batch.num_nodes, 2)))
        table = dict(zip(zip(batch.center.tolist(), batch.nbr.tolist()), t))
        expected = set()
        offset = 0
        for g in graphs:
            expected |= {
                (v + offset, u + offset) for v in range(g.num_nodes) for u in g.neighbors(v)
            }
            offset += g.num_nodes
        assert set(table) == expected and len(t) == len(expected)


class TestUnionLayer:
    def test_isolated_identity(self):
        params = identity_layer(3)
        h = np.array([[1.0, 2.0, 3.0]])
        out, _ = nn._layer_forward(params, make_batch([Graph(1, [])], False), h)
        assert np.allclose(out, h)

    def test_k2_doubling(self):
        params = identity_layer(1, unit_trans(1))
        out, _ = nn._layer_forward(params, make_batch([complete_graph(2)]), np.ones((2, 1)))
        assert np.allclose(out, 2.0)

    def test_c6_rows_equal(self):
        rng = np.random.default_rng(9)
        params = nn.layer_params(1, 4, rng, gin=True, with_trans=True)
        out, _ = nn._layer_forward(params, make_batch([cycle_graph(6)]), np.ones((6, 1)))
        assert np.allclose(out, out[0])

    def test_permutation_equivariance(self):
        g = connected_random_graph(10, n=7)
        rng = np.random.default_rng(11)
        params = nn.layer_params(3, 4, rng, gin=True, with_trans=True)
        h = rng.normal(size=(7, 3))
        out, _ = nn._layer_forward(params, make_batch([g]), h)
        perm = list(range(7))
        random.Random(12).shuffle(perm)
        h2 = np.empty_like(h)
        for v in range(7):
            h2[perm[v]] = h[v]
        out2, _ = nn._layer_forward(params, make_batch([relabel(g, perm)]), h2)
        for v in range(7):
            assert np.allclose(out2[perm[v]], out[v], atol=1e-9)


class TestPlugins:
    def test_unit_weights_equal_base_gcn(self):
        # a Trans that outputs exactly 1 must equal the unmodified base
        g = connected_random_graph(14, n=6)
        rng = np.random.default_rng(14)
        base = nn.layer_params(3, 4, rng, gin=False, with_trans=False)
        with_trans = nn.LayerParams(None, base.linear, unit_trans(3))
        h = rng.normal(size=(6, 3))
        out_base, _ = nn._layer_forward(base, make_batch([g], False), h)
        out_plugin, _ = nn._layer_forward(with_trans, make_batch([g]), h)
        assert np.allclose(out_plugin, out_base, atol=1e-9)

    def test_equal_coefficients_match_scaled_base(self):
        # all normalized coefficients of C6 are 0.5, so every message of the
        # base GCN is scaled by the same row Trans(0.5)
        g = cycle_graph(6)
        rng = np.random.default_rng(15)
        params = nn.layer_params(2, 3, rng, gin=False, with_trans=True)
        h = rng.normal(size=(6, 2))
        out, _ = nn._layer_forward(params, make_batch([g]), h)
        row = trans_by_hand(params.trans, np.array([[0.5]]))
        degs = np.array([g.degree(v) for v in range(6)], dtype=float)
        manual_agg = np.zeros_like(h)
        for v in range(6):
            for u in g.neighbors(v):
                manual_agg[v] += row[0] * h[u] / np.sqrt(degs[v] * degs[u])
        expected = np.maximum(manual_agg @ params.linear.w + params.linear.b, 0.0)
        assert np.allclose(out, expected, atol=1e-9)


class TestGradients:
    def _check(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "trans":
            # the folded Trans that trains, on a batch's [coeff, 1] rows
            batch = make_batch([connected_random_graph(seed, n=6), cycle_graph(5)])
            trans = nn.layer_params(4, 4, rng, gin=True, with_trans=True).trans
            trans[1].b[...] = rng.normal(size=4)

            def forward():
                return nn._trans_forward(trans, batch.coeff_rows, batch.work)

            def backward(cache, dout):
                grads = nn._trans_backward(trans, batch.coeff_rows, cache, dout, batch.work)
                return [a for linear in grads for a in linear.arrays()]

            loss = pooled_mse_head(forward, backward, rng.normal(size=4))
            return nn.grad_check(loss, [a for linear in trans for a in linear.arrays()])
        # the full classifier loss on a multi-graph batch
        spec = nn.ModelSpec.parse(kind, hidden=4)
        graphs = mixed_graphs(rng)
        # the path that trains: a minibatch gathered from a split-wide batch
        # (led here by a graph it leaves out) on a model whose arrays are
        # views of one flat vector
        split = [Graph(4, [(0, 1), (1, 2), (2, 3)], np.full((4, 3), 0.5))] + graphs
        batch = make_batch(split, spec.use_coeffs).take(np.array([5, 2, 6, 1, 4, 3]))
        model = nn.init_classifier(spec, 3, rng)
        for layer in model.layers:
            if spec.base == "gcn":
                # zero biases put isolated nodes exactly on the ReLU kink,
                # where central differences see half a slope
                layer.linear.b[...] = rng.normal(size=layer.linear.b.shape)
            else:
                layer.epsilon[...] = rng.normal()
        labels = rng.integers(0, 2, size=len(graphs))
        return nn.grad_check(classifier_loss(model, batch, labels), model.arrays())

    @pytest.mark.parametrize(
        "kind", ["trans", "union-gin", "gcn", "gin", "union-gcn"]
    )
    def test_five_seeds_under_tolerance(self, kind):
        for seed in range(5):
            assert self._check(kind, seed) < 1e-4

    def test_identity_linear_configuration_is_exact(self):
        params = identity_layer(2)
        batch = make_batch([complete_graph(2)], False)
        h = np.array([[1.0, 0.0], [0.0, 1.0]])

        def forward():
            return nn._layer_forward(params, batch, h)

        def backward(cache, dout):
            return nn._layer_backward(params, batch, cache, dout)[1].arrays()

        loss = pooled_mse_head(forward, backward, np.zeros(2))
        assert nn.grad_check(loss, params.arrays()) < 1e-9


def assert_same_batch(got, expected):
    for name in nn._Batch.__slots__:
        if name == "work":  # scratch buffers, not batch data
            continue
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None, name
        else:
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
            assert np.array_equal(a, b), name


class TestSlicedBatches:
    @pytest.mark.parametrize("with_coeffs", [True, False])
    def test_constructor_matches_per_graph_loops(self, with_coeffs):
        # mixed_graphs holds a graph with an isolated node (4) and an edgeless one (5)
        graphs = mixed_graphs(np.random.default_rng(43))
        tables = union_path_tables(graphs, with_coeffs)
        center, nbr, norm, coeff_rows, node_sizes, pair_sizes = [], [], [], [], [], []
        offset = 0
        for i, g in enumerate(graphs):
            pair_sizes.append(0)
            for v in range(g.num_nodes):
                for u in g.adjacency[v]:
                    center.append(offset + v)
                    nbr.append(offset + u)
                    norm.append(1.0 / math.sqrt(max(g.degree(v), 1) * max(g.degree(u), 1)))
                    if with_coeffs:
                        coeff_rows.append([tables[i].normalized[(v, u)], 1.0])
                    pair_sizes[-1] += 1
            node_sizes.append(g.num_nodes)
            offset += g.num_nodes
        expected = object.__new__(nn._Batch)
        expected.h0 = np.vstack([g.features for g in graphs])
        expected.center, expected.nbr = np.array(center), np.array(nbr)
        expected.norm = np.array(norm)
        expected.coeff_rows = np.array(coeff_rows) if with_coeffs else None
        expected.num_nodes = offset
        expected.node_sizes, expected.pair_sizes = np.array(node_sizes), np.array(pair_sizes)
        expected.pool_starts = np.array([sum(node_sizes[:i]) for i in range(len(graphs))])
        expected.pair_starts = np.array([sum(pair_sizes[:i]) for i in range(len(graphs))])
        assert_same_batch(nn._Batch(graphs, tables), expected)

    @pytest.mark.parametrize("with_coeffs", [True, False])
    def test_take_matches_stacking(self, with_coeffs):
        graphs = mixed_graphs(np.random.default_rng(40))
        tables = union_path_tables(graphs, with_coeffs)
        whole = nn._Batch(graphs, tables)
        for idx in ([5], [4, 0], [3, 5, 1, 4], [5, 4, 3, 2, 1, 0]):
            sub_tables = None if tables is None else [tables[i] for i in idx]
            sub = whole.take(np.array(idx))
            assert_same_batch(sub, nn._Batch([graphs[i] for i in idx], sub_tables))
            assert sub.work is whole.work

    @pytest.mark.parametrize("pairs, channels", [(40, 1), (40, 5), (0, 1), (0, 3)])
    def test_scatter_matches_per_channel_bincount(self, pairs, channels):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(pairs, channels))
        index = rng.integers(0, 7, size=pairs)
        expected = np.zeros((7, channels))
        for c in range(channels):
            expected[:, c] = np.bincount(index, weights=values[:, c], minlength=7)
        got = nn._scatter_rows(values, index, 7, nn.Workspace())
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)  # same summation order, bit for bit


class TestWorkspace:
    """Passes write their intermediates into the batch's reusable workspace."""

    @staticmethod
    def cycle_data(count=40):
        graphs, labels = build_cycle_dataset(4, count, seed=3)
        return graphs, np.array(labels)

    def test_step_allocates_no_large_temporaries(self):
        # a step that allocates and frees (pairs x channels) temporaries hands
        # the heap top back to the OS, and the next step faults it in again
        graphs, labels = self.cycle_data()
        spec = nn.ModelSpec.parse("union-gcn")
        batch = make_batch(graphs).take(np.arange(32))
        model = nn.init_classifier(spec, 1, np.random.default_rng(0))
        adam = nn.Adam(model.flat)
        loss_and_grads = classifier_loss(model, batch, labels[:32])

        def step():
            adam.step(np.concatenate(loss_and_grads()[1], axis=None))

        step()  # sizes the workspace's buffers
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 4 * len(batch.center) * spec.hidden * 8

    @pytest.mark.parametrize("name", ["gcn", "gin", "union-gcn", "union-gin"])
    def test_shared_workspace_gives_fresh_batch_gradients(self, name):
        # minibatch steps over the first 30 graphs, each followed by an
        # accuracy forward over the last 10, all gathered from one stacked
        # batch and so on one workspace, as train_classifier runs them
        graphs, labels = self.cycle_data()
        spec = nn.ModelSpec.parse(name, hidden=8)
        whole = make_batch(graphs, spec.use_coeffs)
        val = nn._accuracy_chunks(whole, 30, 40)
        model = nn.init_classifier(spec, 1, np.random.default_rng(2))
        adam = nn.Adam(model.flat)
        for idx in ([4, 17, 9], [29, 0, 3, 11, 21, 8, 26], [12, 5]):
            idx = np.array(idx)
            _, grads = classifier_loss(model, whole.take(idx), labels[idx])()
            fresh = make_batch([graphs[i] for i in idx], spec.use_coeffs)
            _, expected = classifier_loss(model, fresh, labels[idx])()
            for got, want in zip(grads, expected):
                assert np.array_equal(got, want)
            adam.step(np.concatenate(grads, axis=None))
            nn._batched_accuracy(model, val, labels[30:])

    def test_logits_are_fresh_arrays(self):
        # callers keep logits across forwards, as the rescaled-coefficient
        # test does; only the intermediates are reused
        graphs, _ = self.cycle_data(count=4)
        batch = make_batch(graphs)
        model = nn.init_classifier(nn.ModelSpec.parse("union-gin"), 1, np.random.default_rng(3))
        first, _ = nn._batched_forward(model, batch)
        second, _ = nn._batched_forward(model, batch)
        assert not np.shares_memory(first, second)


class TestFlatParameters:
    @staticmethod
    def assert_one_vector(model):
        arrays = model.arrays()
        assert model.flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, model.flat) for a in arrays)
        assert np.array_equal(np.concatenate(arrays, axis=None), model.flat)

    @pytest.mark.parametrize("name", ["gcn", "gin", "union-gcn", "union-gin"])
    def test_arrays_are_views_of_the_flat_vector(self, name):
        spec = nn.ModelSpec.parse(name, hidden=4)
        model = nn.init_classifier(spec, 1, np.random.default_rng(0))
        self.assert_one_vector(model)

    def test_adam_matches_per_array_reference(self):
        rng = np.random.default_rng(42)
        arrays = [rng.normal(size=(3, 2)), np.array(rng.normal()), rng.normal(size=4)]
        flat = np.concatenate(arrays, axis=None)
        adam = nn.Adam(flat)
        m = [np.zeros_like(a) for a in arrays]
        v = [np.zeros_like(a) for a in arrays]
        b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
        for step in range(1, 4):
            grads = [rng.normal(size=a.shape) for a in arrays]
            adam.step(np.concatenate(grads, axis=None))
            correction = math.sqrt(1 - b2 ** step) / (1 - b1 ** step)
            for a, g, ma, va in zip(arrays, grads, m, v):
                ma *= b1
                ma += (1 - b1) * g
                va *= b2
                va += (1 - b2) * (g * g)
                a -= nn.ADAM_LR * correction * ma / (np.sqrt(va) + nn.ADAM_EPS)
        assert np.array_equal(flat, np.concatenate(arrays, axis=None))


class TestBenchmarkSites:
    """perfbench/tracer.py wraps neural functions by name, and skips a name
    that is gone, so a rename would silently empty the train-cycle spans."""

    def test_neural_sites_resolve(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        sites = [site for site in tracer.SITES if site[1] == "unionsub.neural"]
        assert {site[0] for site in sites} >= {
            "neural.train_classifier", "neural.forward", "neural.backward", "neural.adam_step",
        }
        for name, _, attr_path, _ in sites:
            owner = nn
            for part in attr_path.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), (name, attr_path)


class TestBatchedEngineConsistency:
    def test_batched_matches_per_graph(self):
        rng = np.random.default_rng(23)
        graphs = mixed_graphs(rng)
        for spec_name in ("gcn", "union-gcn", "gin", "union-gin"):
            spec = nn.ModelSpec.parse(spec_name, hidden=5)
            model = nn.init_classifier(spec, 3, rng)
            for layer in model.layers:
                if spec.base == "gin":
                    layer.epsilon[...] = rng.normal()
            batched, _ = nn._batched_forward(model, make_batch(graphs, spec.use_coeffs))
            for i, g in enumerate(graphs):
                coeffs = (coefficient_table(g, Descriptor("union-path"))
                          if spec.use_coeffs else None)
                assert np.allclose(batched[i], dense_logits(model, g, coeffs), atol=1e-10)


class TestCoefficientsReachTheLoss:
    """Trans(coeff) must act on featureless graphs, whose one feature
    column is constant: a weighting renormalized over N(v) would average
    equal rows, and the coefficients would not reach the logits."""

    def featureless_batch(self):
        graphs = [connected_random_graph(s, n=n) for s, n in ((30, 5), (31, 7), (32, 8))]
        graphs.append(Graph(4, [(0, 1), (1, 2)]))  # node 3 isolated
        return make_batch(graphs), np.array([0, 1, 1, 0])

    def test_rescaled_coefficients_change_union_gin_logits(self):
        batch, _ = self.featureless_batch()
        model = nn.init_classifier(nn.ModelSpec.parse("union-gin", hidden=4), 1,
                                   np.random.default_rng(33))
        before, _ = nn._batched_forward(model, batch)
        batch.coeff_rows[:, 0] *= np.random.default_rng(34).uniform(
            0.2, 3.0, size=len(batch.coeff_rows)
        )
        after, _ = nn._batched_forward(model, batch)
        assert np.abs(after - before).max() > 1e-6

    @pytest.mark.parametrize("name", ["union-gin", "union-gcn"])
    def test_last_trans_bias_gets_a_gradient(self, name):
        batch, labels = self.featureless_batch()
        model = nn.init_classifier(nn.ModelSpec.parse(name, hidden=4), 1,
                                   np.random.default_rng(35))
        _, grads = classifier_loss(model, batch, labels)()
        by_array = {id(a): g for a, g in zip(model.arrays(), grads)}
        for layer in model.layers:
            assert np.abs(by_array[id(layer.trans[1].b)]).max() > 1e-6


@pytest.fixture(scope="module")
def refinement_pairs():
    """The cubic graphs on 10 nodes and the two edge-transitive headline
    pairs, with (i, j, whether the tagged refinement separates graphs i
    and j) for every cubic pair and each headline pair."""
    graphs = cubic_graphs_on_ten_nodes()
    pairs = [(i, j) for i in range(21) for j in range(i + 1, 21)]
    for g1, g2 in ((cycle_graph(6), two_triangles_graph()),
                   (rook_graph_4x4(), shrikhande_graph())):
        graphs += [g1, g2]
        pairs.append((len(graphs) - 2, len(graphs) - 1))
    return graphs, [
        (i, j, distinguish_pair(graphs[i], graphs[j], Descriptor("union-path"))
         .augmented_distinguishes)
        for i, j in pairs
    ]


class TestModelSeesTheTaggedRefinement:
    """With random parameters, a model may separate only what the
    coefficient-tagged refinement separates, and gin and gcn only what plain
    1-WL does; all these graphs are regular, so plain 1-WL separates none."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_models_against_refinement(self, refinement_pairs, seed):
        graphs, pairs = refinement_pairs
        gaps = {}
        for name in ("gin", "gcn", "union-gin", "union-gcn"):
            rng = np.random.default_rng(seed)
            model = nn.init_classifier(nn.ModelSpec.parse(name, hidden=8), 1, rng)
            for array in model.arrays():
                array += rng.normal(0, 0.5, size=array.shape)
            logits, _ = nn._batched_forward(model, make_batch(graphs, model.spec.use_coeffs))
            gaps[name] = [np.abs(logits[i] - logits[j]).max() for i, j, _ in pairs]
        separated = [flag for _, _, flag in pairs]
        assert max(gaps["gin"] + gaps["gcn"]) <= 1e-12
        for name_gaps in gaps.values():
            assert all(gap <= 1e-9 for gap, flag in zip(name_gaps, separated) if not flag)
        assert any(gap > 1e-6 for gap, flag in zip(gaps["union-gin"], separated) if flag)


class TestVerdictAndModelReadTheFeatures:
    """A graph given no features carries the ones column, so the verdict and
    union-gin both take C6 with that column for C6, and both tell a
    constant 2.0 column apart."""

    @staticmethod
    def verdict_and_logit_gap(g1, g2, seed):
        verdict = distinguish_pair(g1, g2, Descriptor("union-path"))
        spec = nn.ModelSpec.parse("union-gin", hidden=8)
        model = nn.init_classifier(spec, 1, np.random.default_rng(seed))
        logits, _ = nn._batched_forward(model, make_batch([g1, g2]))
        return verdict, np.abs(logits[0] - logits[1]).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_ones_column_is_no_features(self, seed):
        c6 = cycle_graph(6)
        ones = Graph(6, c6.edges, np.ones((6, 1)))
        verdict, gap = self.verdict_and_logit_gap(c6, ones, seed)
        assert not verdict.wl_distinguishes and not verdict.augmented_distinguishes
        assert not verdict.raw_values_differ
        assert gap <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_constant_two_column_is_told_apart(self, seed):
        c6 = cycle_graph(6)
        twos = Graph(6, c6.edges, np.full((6, 1), 2.0))
        verdict, gap = self.verdict_and_logit_gap(c6, twos, seed)
        assert verdict.wl_distinguishes and verdict.augmented_distinguishes
        assert gap > 1e-6


class TestTraining:
    def test_constant_label_dataset_reaches_full_accuracy(self):
        graphs = [connected_random_graph(s, n=5) for s in range(8)]
        data = [(g, 0) for g in graphs]
        spec = nn.ModelSpec.parse("gcn", hidden=8)
        report = nn.train_classifier(data, data, data, spec, epochs=30, seed=1)
        assert report.train_acc == 1.0
        losses = [loss for _, loss, _ in report.loss_curve]
        assert losses[-1] < losses[0]

    def test_epochs_zero_reports_untrained(self):
        graphs = [(connected_random_graph(s, n=5), s % 2) for s in range(6)]
        spec = nn.ModelSpec.parse("union-gcn", hidden=4)
        report = nn.train_classifier(graphs, graphs, graphs, spec, epochs=0, seed=1)
        assert report.loss_curve == []
        assert 0.0 <= report.test_acc <= 1.0

    def test_training_determinism(self):
        graphs = [(connected_random_graph(s, n=6), s % 2) for s in range(10)]
        spec = nn.ModelSpec.parse("union-gcn", hidden=6)
        a = nn.train_classifier(graphs, graphs, graphs, spec, epochs=5, seed=9)
        b = nn.train_classifier(graphs, graphs, graphs, spec, epochs=5, seed=9)
        assert a.loss_curve == b.loss_curve  # bit-identical
        for x, y in zip(a.model.arrays(), b.model.arrays()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", ["union-gcn", "union-gin"])
    def test_edgeless_graphs_train(self, name):
        spec = nn.ModelSpec.parse(name, hidden=4)
        mixed = [(connected_random_graph(s, n=5), s % 2) for s in range(3)]
        mixed += [(Graph(3, []), 0), (Graph(1, []), 1)]
        edgeless = [(Graph(n, []), n % 2) for n in (1, 2, 3, 4)]
        for data in (mixed, edgeless):
            report = nn.train_classifier(data, data, data, spec, epochs=2, seed=0, batch_size=4)
            assert all(np.isfinite(loss) for _, loss, _ in report.loss_curve)

    @pytest.mark.parametrize("position", [1, 2])
    def test_graph_without_nodes_rejected(self, position):
        data = [(connected_random_graph(s, n=5), s % 2) for s in range(2)]
        data.insert(position, (parse_graph("0 0"), 0))
        spec = nn.ModelSpec.parse("gcn", hidden=4)
        with pytest.raises(GraphError, match="no nodes"):
            nn.train_classifier(data, data, data, spec, epochs=1, seed=0, batch_size=3)

    def test_mixed_feature_widths_rejected(self):
        rng = np.random.default_rng(26)
        g = connected_random_graph(3, n=5)
        data = [(with_features(g, rng, 1), 0), (with_features(g, rng, 2), 1)]
        spec = nn.ModelSpec.parse("gcn", hidden=4)
        with pytest.raises(GraphError, match="feature channels"):
            nn.train_classifier(data, data, data, spec, epochs=1, seed=0)

    def test_bad_labels_rejected(self):
        graphs = [(connected_random_graph(1, n=5), 2)]
        spec = nn.ModelSpec.parse("gcn")
        with pytest.raises(Exception, match="label"):
            nn.train_classifier(graphs, [], [], spec, epochs=1, seed=0)

    def test_checkpoint_roundtrip(self):
        # every parameter of the checkpoint train writes survives JSON bit for bit
        spec = nn.ModelSpec.parse("union-gcn", hidden=4)
        model = nn.init_classifier(spec, 1, np.random.default_rng(25))
        import json

        stored = json.loads(json.dumps(nn.params_to_json_obj(model)))["arrays"]
        assert len(stored) == len(model.arrays())
        for a, item in zip(model.arrays(), stored):
            assert np.array_equal(np.array(item["data"]).reshape(item["shape"]), a)

    def test_model_spec_parse(self):
        assert nn.ModelSpec.parse("union-gcn").use_coeffs
        assert not nn.ModelSpec.parse("gin").use_coeffs
        assert nn.ModelSpec.parse("union-gin").base == "gin"
        for name in ("union", "transformer"):
            with pytest.raises(GraphError, match="unknown model"):
                nn.ModelSpec.parse(name)


class TestCheckpointLayout:
    """The checkpoint array layout that parent checkpoints were written in."""

    GCN = [[1, 4], [4], [4, 4], [4], [4, 2], [2]]
    GIN = [[], [1, 4], [4], [], [4, 4], [4], [4, 2], [2]]
    TRANS_1 = [[1, 16], [16], [16, 1], [1]]
    TRANS_4 = [[1, 16], [16], [16, 4], [4]]
    SHAPES = {
        "gcn": GCN,
        "gin": GIN,
        "union-gcn": GCN[:2] + TRANS_1 + GCN[2:4] + TRANS_4 + GCN[4:],
        "union-gin": GIN[:3] + TRANS_1 + GIN[3:6] + TRANS_4 + GIN[6:],
    }

    @staticmethod
    def model(name):
        spec = nn.ModelSpec.parse(name, hidden=4)
        return nn.init_classifier(spec, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_array_shapes_pinned(self, name):
        shapes = [list(a.shape) for a in self.model(name).arrays()]
        assert shapes == self.SHAPES[name]  # 6, 8, 14 and 16 arrays

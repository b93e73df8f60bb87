import itertools
import math
import random
import tracemalloc
import warnings
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unionsub import descriptors, graphs, neural, transport
from unionsub.descriptors import (
    Descriptor,
    DescriptorError,
    Encoding,
    coefficient_table,
    cycle_count,
    encode_matrix,
    local_descriptor_values,
    path_matrix,
    reconstruct_subgraph,
)
from unionsub.graphs import (
    ARC_BITMAP_BYTES,
    Graph,
    GraphError,
    Subgraph,
    arc_test,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
    two_triangles_graph,
)
from unionsub.substructure import overlap_subgraph, union_minus_subgraph, union_subgraph
from unionsub.transport import least_cost_starts, solve_transport, wasserstein_discrete
from unionsub.wl import distinguish_pair

from helpers import (
    edge_descriptor_value,
    is_connected,
    local_index,
    nx_graph,
    nx_local_subgraph,
    reference_curvature_values,
    reference_local_values,
    reference_table,
    relabel,
    table_ends,
)
from test_benchmark_sites import load_tracer


def full_subgraph(g):
    return Subgraph(g, range(g.num_nodes))


def laplacian_matrix(s):
    """Combinatorial Laplacian D - A of a subgraph's local graph."""
    g = s.local
    n = g.num_nodes
    lap = np.zeros((n, n))
    for i, j in g.edges:
        lap[i, j] = lap[j, i] = -1.0
    for v in range(n):
        lap[v, v] = g.degree(v)
    return lap


class TestPathMatrix:
    def test_k3(self):
        pm = path_matrix(full_subgraph(complete_graph(3)))
        assert pm.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_p3(self):
        pm = path_matrix(full_subgraph(path_graph(3)))
        assert pm.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_c6_union_subgraph_rows_follow_parent_order(self):
        # union subgraph of C6 edge (0,1) is the path 5-0-1-2; rows are in
        # ascending parent order (0, 1, 2, 5)
        s = union_subgraph(cycle_graph(6), 0, 1)
        assert s.parent_ids == (0, 1, 2, 5)
        assert path_matrix(s).tolist() == [
            [0, 1, 2, 1],
            [1, 0, 1, 2],
            [2, 1, 0, 3],
            [1, 2, 3, 0],
        ]

    def test_disconnected_rejected(self):
        s = full_subgraph(Graph(3, [(0, 1)]))
        with pytest.raises(DescriptorError, match="disconnected"):
            path_matrix(s)

    @pytest.mark.parametrize("g", [
        Graph(2, []),
        Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]),
        Graph(6, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
    ], ids=["two-isolated", "two-paths", "k5-and-isolated"])
    def test_disconnected_subgraphs_raise(self, g):
        with pytest.raises(DescriptorError, match="disconnected"):
            path_matrix(full_subgraph(g))

    def test_one_node(self):
        assert path_matrix(full_subgraph(Graph(1, []))).tolist() == [[0]]

    @pytest.mark.parametrize("g, diameter",
                             [(path_graph(n), n - 1) for n in range(5, 13)]
                             + [(cycle_graph(n), n // 2) for n in range(7, 13)],
                             ids=[f"p{n}" for n in range(5, 13)]
                             + [f"c{n}" for n in range(7, 13)])
    def test_long_paths_and_cycles_match_networkx(self, g, diameter):
        s = full_subgraph(g)
        pm = path_matrix(s)
        assert pm.max() == diameter
        assert np.array_equal(pm, nx_path_matrix(s))

    def test_p1000_is_index_distance(self):
        i = np.arange(1000)
        assert np.array_equal(path_matrix(full_subgraph(path_graph(1000))),
                              np.abs(i[:, None] - i[None, :]))

    def test_random_connected_graphs_match_networkx(self):
        rng = random.Random(11)
        checked = deep = 0
        while checked < 40:
            g = random_graph(rng.randint(6, 18), rng.uniform(0.08, 0.3), rng)
            if not is_connected(g):
                continue
            s = full_subgraph(g)
            pm = path_matrix(s)
            assert pm.dtype.kind == "i"
            assert np.array_equal(pm, nx_path_matrix(s))
            deep += pm.max() > 3
            checked += 1
        assert deep >= 10

    def test_union_entries_at_most_3(self):
        rng = random.Random(0)
        for _ in range(25):
            g = random_graph(10, 0.3, rng)
            for v, u in g.edges:
                pm = path_matrix(union_subgraph(g, v, u))
                off = pm[~np.eye(len(pm), dtype=bool)]
                assert set(np.unique(off)) <= {1, 2, 3}


class TestReconstruction:
    def test_k3(self):
        pm = path_matrix(full_subgraph(complete_graph(3)))
        assert reconstruct_subgraph(pm, (0, 1, 2)).local == complete_graph(3)

    def test_p3(self):
        pm = path_matrix(full_subgraph(path_graph(3)))
        assert reconstruct_subgraph(pm, (0, 1, 2)).local == path_graph(3)

    def test_round_trip_on_random_union_subgraphs(self):
        rng = random.Random(1)
        done = 0
        while done < 50:
            g = random_graph(rng.randint(4, 10), rng.uniform(0.25, 0.6), rng)
            for v, u in g.edges:
                s = union_subgraph(g, v, u)
                pm = path_matrix(s)
                back = reconstruct_subgraph(pm, s.parent_ids)
                assert back == s
                assert np.array_equal(path_matrix(back), pm)
                done += 1

    def test_rejects_asymmetric(self):
        entries = path_matrix(full_subgraph(path_graph(3)))
        entries[0, 1] = 5
        with pytest.raises(DescriptorError, match="symmetric"):
            reconstruct_subgraph(entries, (0, 1, 2))

    def test_rejects_negative(self):
        with pytest.raises(DescriptorError, match="non-negative"):
            reconstruct_subgraph(np.array([[0, -1], [-1, 0]]), (0, 1))

    def test_rejects_edgeless_matrix(self):
        # no 1 entries: the graph they define is edgeless, so disconnected
        with pytest.raises(DescriptorError, match="disconnected"):
            reconstruct_subgraph(np.array([[0, 0], [0, 0]]), (0, 1))

    def test_rejects_lengths_of_no_graph(self):
        # the 1 entries make a P3, whose end-to-end length is 2, not 5
        entries = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(DescriptorError, match="shortest-path lengths"):
            reconstruct_subgraph(entries, (0, 1, 2))

    def test_round_trip_on_p1000(self):
        s = full_subgraph(path_graph(1000))
        assert reconstruct_subgraph(path_matrix(s), s.parent_ids) == s

    def test_round_trip_on_long_cycles(self):
        for n in range(7, 13):
            pm = path_matrix(full_subgraph(cycle_graph(n)))
            assert reconstruct_subgraph(pm, range(n)).local == cycle_graph(n)


class TestJacobiEncodings:
    def test_k3_svd_sum(self):
        pm = path_matrix(full_subgraph(complete_graph(3)))
        assert encode_matrix(pm, Encoding.SVD_SUM) == pytest.approx(4.0)

    def test_p3_svd_sum(self):
        pm = path_matrix(full_subgraph(path_graph(3)))
        expected = 2 + 2 * math.sqrt(3)  # |eig| of [[0,1,2],[1,0,1],[2,1,0]]
        assert encode_matrix(pm, Encoding.SVD_SUM) == pytest.approx(expected)

    def test_k3_matrix_sum(self):
        pm = path_matrix(full_subgraph(complete_graph(3)))
        assert encode_matrix(pm, Encoding.MATRIX_SUM) == 6.0

    def test_k2_encodings(self):
        m = np.array([[0, 1], [1, 0]])
        assert encode_matrix(m, Encoding.SVD_SUM) == pytest.approx(2.0)
        assert encode_matrix(m, Encoding.EIGEN_MAX) == pytest.approx(1.0)

    def test_svd_sum_matches_eig_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(1, 11))
            m = rng.integers(-5, 6, size=(dim, dim)).astype(float)
            m = (m + m.T) / 2.0
            mine = encode_matrix(m, Encoding.SVD_SUM)
            oracle = float(np.abs(np.linalg.eigvalsh(m)).sum())
            assert abs(mine - oracle) < 1e-8

    def test_eigen_max_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            m = rng.normal(size=(dim, dim))
            m = m + m.T
            mine = encode_matrix(m, Encoding.EIGEN_MAX)
            oracle = float(np.abs(np.linalg.eigvalsh(m)).max())
            assert abs(mine - oracle) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(DescriptorError, match="square"):
            encode_matrix(np.ones((2, 3)), Encoding.SVD_SUM)

    def test_asymmetric_rejected_for_spectral(self):
        with pytest.raises(DescriptorError, match="symmetric"):
            encode_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]), Encoding.SVD_SUM)

    def test_encodings_match_scipy_oracle(self):
        from scipy.linalg import eigvalsh, svdvals

        rng = np.random.default_rng(9)
        for dim in (0, 1, 2, 5, 8, 13):
            m = rng.normal(size=(dim, dim))
            m = m + m.T
            svd = svdvals(m).sum() if dim else 0.0
            top = np.abs(eigvalsh(m)).max() if dim else 0.0
            assert encode_matrix(m, Encoding.SVD_SUM) == pytest.approx(svd, rel=1e-12)
            assert encode_matrix(m, Encoding.EIGEN_MAX) == pytest.approx(top, rel=1e-12)


def _graph_with_isolated_nodes():
    # a triangle with a pendant, a disjoint path and two isolated nodes
    return Graph(11, [(0, 1), (1, 2), (0, 2), (2, 3), (5, 6), (6, 7), (7, 8)])


def _adjacent_hubs():
    # adjacent hubs 0 and 1 with three common neighbours and private leaves
    return Graph(14, [(0, 1)] + [(h, x) for h in (0, 1) for x in range(2, 5)]
                 + [(0, x) for x in range(5, 9)] + [(1, x) for x in range(9, 14)])


def _random_reference_graph(seed):
    rng = random.Random(seed)
    return random_graph(rng.randint(5, 16), rng.uniform(0.15, 0.6), rng)


REFERENCE_GRAPHS = {
    "c6": cycle_graph(6),
    "two-triangles": two_triangles_graph(),
    "k2": complete_graph(2),
    "star": star_graph(5),
    "rook4x4": rook_graph_4x4(),
    "shrikhande": shrikhande_graph(),
    "isolated-and-components": _graph_with_isolated_nodes(),
    **{f"random-{seed}": _random_reference_graph(seed) for seed in range(8)},
}
MATRIX_KINDS = ("union-path", "overlap-path", "minus-path", "laplacian")


def nx_path_matrix(s):
    """Shortest-path matrix of a connected subgraph, in local order, by networkx."""
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(s.local)))
    return np.array([[lengths[x][y] for y in range(s.num_nodes)] for x in range(s.num_nodes)])


def betweenness_oracle(g, a, b):
    """Edge betweenness of (a, b) in connected g by enumerating every shortest path."""
    h = nx_graph(g)
    total = 0.0
    for x, y in itertools.combinations(range(g.num_nodes), 2):
        paths = list(nx.all_shortest_paths(h, x, y))
        through = sum(
            1
            for p in paths
            if any({p[i], p[i + 1]} == {a, b} for i in range(len(p) - 1))
        )
        total += through / len(paths)
    return total


def _reference_value(g, v, u, kind, encoding):
    # the local subgraph comes from networkx, not from the tables' member routine
    sub = nx_local_subgraph(g, v, u, kind)
    if kind == "betweenness":
        return betweenness_oracle(sub.local, local_index(sub, v), local_index(sub, u))
    if kind == "count-ne":
        n = sub.num_nodes
        return sub.num_edges / (n * (n - 1)) * n ** Descriptor("count-ne").lam
    if kind == "laplacian":
        return encode_matrix(laplacian_matrix(sub), encoding)
    return encode_matrix(nx_path_matrix(sub), encoding)


class TestBatchedMatrixKinds:
    """Tables of the local kinds against per-edge networkx and counting references."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_table_matches_bfs_reference(self, name):
        g = REFERENCE_GRAPHS[name]
        cases = [(kind, encoding) for kind in MATRIX_KINDS for encoding in Encoding]
        cases += [("betweenness", Encoding.SVD_SUM), ("count-ne", Encoding.SVD_SUM)]
        for kind, encoding in cases:
            table = coefficient_table(g, Descriptor(kind, encoding=encoding))
            assert set(table.raw) == set(g.edges)
            for (v, u), value in table.raw.items():
                ref = _reference_value(g, v, u, kind, encoding)
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (
                    kind, encoding, v, u)

    def test_single_edge_equals_table(self):
        g = REFERENCE_GRAPHS["random-3"]
        kinds = [Descriptor(kind, encoding=Encoding.EIGEN_MAX) for kind in MATRIX_KINDS]
        for kind in kinds + [Descriptor("betweenness"), Descriptor("count-ne")]:
            table = coefficient_table(g, kind)
            for (v, u), value in zip(g.edges, table.values.tolist()):
                assert table.raw_value(v, u) == table.raw_value(u, v) == value

    def test_single_edge_rejects_non_edge(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(path_graph(3), 0, 2, Descriptor("union-path"))

    def test_small_batches_match_one_batch(self, monkeypatch):
        cases = [
            (REFERENCE_GRAPHS[name], kind)
            for name in ("rook4x4", "random-3")
            for kind in (Descriptor("minus-path"), Descriptor("betweenness"))
        ]
        whole = [coefficient_table(g, kind).raw for g, kind in cases]
        monkeypatch.setattr(descriptors, "BATCH_ENTRIES", 1)
        for (g, kind), raw in zip(cases, whole):
            assert coefficient_table(g, kind).raw == pytest.approx(raw, rel=1e-12)

    def test_local_subgraph_bound(self, monkeypatch):
        # MAX_TABLE_WORK alone bounds the local subgraphs of a table.  A star
        # with 230 leaves sums 230 x 107,421 = 24,706,830 and is accepted, its
        # hub edges' union subgraphs holding all 231 nodes; with 231 leaves
        # the sum passes the bound at the last edge, before any matrix
        # union-path encodes each size group's (B, k, k) stack of path matrices
        shapes = []
        encode_stack = descriptors._encode_stack
        monkeypatch.setattr(descriptors, "_encode_stack",
                            lambda a, *args: shapes.append(a.shape) or encode_stack(a, *args))
        assert len(coefficient_table(star_graph(230), Descriptor("union-path")).values) == 230
        assert max(shape[1:] for shape in shapes) == (231, 231)
        shapes.clear()
        with pytest.raises(DescriptorError, match=r"^edge \(0, 231\): the table's work "
                           r"estimate passes the bound of 25000000 at this edge$"):
            coefficient_table(star_graph(231), Descriptor("union-path"))
        assert not shapes

    def test_edgeless_graph(self):
        table = coefficient_table(Graph(3, []), Descriptor("union-path"))
        assert table.raw == {} and table.normalized == {}


LOCAL_KINDS = (
    *(Descriptor(kind, encoding=encoding) for kind in MATRIX_KINDS for encoding in Encoding),
    Descriptor("betweenness"), Descriptor("count-ne"),
)


@st.composite
def local_value_cases(draw):
    """A graph with isolated nodes, two components and maybe a hub."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, extra = draw(st.integers(2, 36)), draw(st.integers(2, 8))
    edges = set(random_graph(n, draw(st.floats(0.05, 0.6)), rng).edges)
    if n > 30 and draw(st.booleans()):
        edges |= {(0, x) for x in range(1, n)}  # a hub of degree n - 1 >= 30
    second = random_graph(extra, 0.5, rng).edges  # a second component on fresh nodes
    edges |= {(n + i, n + i + 1) for i in range(extra - 1)} | {(n + a, n + b) for a, b in second}
    return Graph(n + extra + draw(st.integers(0, 3)), sorted(edges))


def gnm_graph(n, m, seed):
    """G(n, m): m distinct node pairs drawn uniformly."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        v, u = rng.randrange(n), rng.randrange(n)
        if v != u:
            edges.add((min(v, u), max(v, u)))
    return Graph(n, sorted(edges))


class TestMemberKeyBuilder:
    """Table values of the local kinds against the per-edge reference loop in helpers."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(g=local_value_cases())
    def test_bytes_equal_the_reference_loop(self, g):
        # 300 entries split the size runs into several chunks; 1 gives every
        # matrix a chunk of its own
        for kind in LOCAL_KINDS:
            ref = reference_local_values(g, kind).tobytes()
            for batch in (descriptors.BATCH_ENTRIES, 300, 1):
                with mock.patch.object(descriptors, "BATCH_ENTRIES", batch):
                    assert coefficient_table(g, kind).values.tobytes() == ref, (kind, batch)

    @pytest.mark.parametrize("kind", [Descriptor("count-ne"), Descriptor("union-path")])
    def test_chunks_bound_the_peak_memory(self, monkeypatch, kind):
        # on this 10^4-edge graph with BATCH_ENTRIES = 2^12 the reference
        # loop peaks at 0.2 MB and the builder at 0.5 MB, its CSR arrays and
        # edge ends built beforehand; in one chunk, with every k^2 entry or
        # every member-neighbour pair held at once, it peaks near 19 MB.
        g = gnm_graph(5405, 10_000, 0)
        ends = table_ends(g)
        monkeypatch.setattr(descriptors, "BATCH_ENTRIES", 1 << 12)
        tracemalloc.start()
        try:
            local_descriptor_values(g, ends, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestBetweenness:
    """Each graph equals its own union subgraph for the edge (0, 1)."""

    def test_p3(self):
        assert edge_descriptor_value(
            path_graph(3), 0, 1, Descriptor("betweenness")
        ) == pytest.approx(2.0)

    def test_k3(self):
        assert edge_descriptor_value(
            complete_graph(3), 0, 1, Descriptor("betweenness")
        ) == pytest.approx(1.0)

    def test_star(self):
        assert edge_descriptor_value(
            star_graph(3), 0, 1, Descriptor("betweenness")
        ) == pytest.approx(3.0)

    def test_edge_absent(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(path_graph(3), 0, 2, Descriptor("betweenness"))

    def test_against_path_enumeration_oracle(self):
        rng = random.Random(2)
        checked = 0
        while checked < 30:
            g = random_graph(rng.randint(6, 12), rng.uniform(0.2, 0.5), rng)
            if not g.edges:
                continue
            v, u = g.edges[rng.randrange(g.num_edges)]
            sub = nx_local_subgraph(g, v, u)
            expected = betweenness_oracle(
                sub.local, local_index(sub, v), local_index(sub, u)
            )
            mine = edge_descriptor_value(g, v, u, Descriptor("betweenness"))
            assert mine == pytest.approx(expected, rel=1e-12)
            checked += 1


class TestCountNe:
    def test_k3_values(self):
        assert edge_descriptor_value(complete_graph(3), 0, 1, Descriptor("count-ne")) == 4.5
        assert edge_descriptor_value(
            complete_graph(3), 0, 1, Descriptor("count-ne", lam=1)
        ) == 1.5

    def test_p3(self):
        assert edge_descriptor_value(path_graph(3), 0, 1, Descriptor("count-ne")) == 3.0

    def test_tiny_rejected(self):
        # a one-node graph has no edge, hence no union subgraph to count
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(Graph(1, []), 0, 0, Descriptor("count-ne"))

    def test_bad_lambda(self):
        with pytest.raises(DescriptorError, match="lambda must be 1 or 2"):
            Descriptor("count-ne", lam=3)
        with pytest.raises(DescriptorError):
            Descriptor.parse("count-ne:3")


def exact_ot_oracle(g, v, u, alpha=0.5):
    """Ricci curvature via scipy's LP solver (independent of our simplex)."""
    from scipy.optimize import linprog

    h = nx_graph(g)
    sv, su = sorted({v, *h[v]}), sorted({u, *h[u]})
    mu = np.array([alpha if x == v else (1 - alpha) / g.degree(v) for x in sv])
    nu = np.array([alpha if y == u else (1 - alpha) / g.degree(u) for y in su])
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    dist = np.array([[lengths[x][y] for y in su] for x in sv], dtype=float)
    m, n = dist.shape
    a_eq = []
    for i in range(m):
        row = np.zeros((m, n))
        row[i, :] = 1
        a_eq.append(row.ravel())
    for j in range(n):
        row = np.zeros((m, n))
        row[:, j] = 1
        a_eq.append(row.ravel())
    res = linprog(
        dist.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.concatenate([mu, nu]),
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return 1.0 - res.fun


class TestRicciCurvature:
    def test_k3_value(self):
        table = coefficient_table(complete_graph(3), Descriptor("curvature"))
        assert table.values.tolist() == pytest.approx([0.75] * 3)

    def test_k2_value(self):
        # identical endpoint distributions: zero transport cost
        table = coefficient_table(complete_graph(2), Descriptor("curvature"))
        assert table.values.tolist() == [1.0]

    def test_c6_matches_oracle(self):
        g = cycle_graph(6)
        assert coefficient_table(g, Descriptor("curvature")).raw_value(0, 1) == pytest.approx(
            exact_ot_oracle(g, 0, 1, 0.5), abs=1e-8
        )

    def test_fifty_random_edges_match_oracle(self):
        rng = random.Random(3)
        checked = 0
        while checked < 50:
            g = random_graph(rng.randint(4, 9), rng.uniform(0.3, 0.7), rng)
            if not g.edges:
                continue
            v, u = g.edges[rng.randrange(g.num_edges)]
            mine = coefficient_table(g, Descriptor("curvature")).raw_value(v, u)
            assert abs(mine - exact_ot_oracle(g, v, u, 0.5)) < 1e-8
            checked += 1

    def test_transport_size_bound(self):
        # edge (0, 1) joins two hubs with `leaves` private leaves each, so each
        # side keeps its hub and leaves: (leaves + 1)^2 cells
        hubs = _two_hubs
        assert descriptors.MAX_TRANSPORT_CELLS == 128 * 128
        # hub to hub carries 1/2 - 1/256 at cost 1, leaves to leaves 127/256 at cost 3
        table = coefficient_table(hubs(127), Descriptor("curvature"))
        assert table.raw_value(0, 1) == pytest.approx(1.0 - (0.5 - 1 / 256 + 381 / 256))
        with pytest.raises(DescriptorError, match=r"^edge \(0, 1\): 129 x 129 transport "
                                                  r"cells, above the bound of 16384$"):
            coefficient_table(hubs(128), Descriptor("curvature"))

    def test_edge_required(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(path_graph(3), 0, 2, Descriptor("curvature"))


def _two_hubs(leaves):
    """Adjacent hubs 0 and 1 with `leaves` private leaves each."""
    edges = [(0, 1)] + [(0, x) for x in range(2, leaves + 2)]
    return Graph(2 * leaves + 2, edges + [(1, x + leaves) for x in range(2, leaves + 2)])


@st.composite
def relabeled_graphs(draw):
    """A random graph (possibly disconnected) and a permutation of its nodes."""
    n = draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, edges), draw(st.permutations(range(n)))


def random_graphs(seed, count):
    """Small G(n, p) graphs with at least one edge, connected or not."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng.randint(4, 10), rng.uniform(0.15, 0.6), rng)
        if g.edges:
            graphs.append(g)
    return graphs


class TestCurvatureTable:
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5])
    def test_matches_linprog_oracle(self, alpha):
        graphs = random_graphs(8, 20)
        assert any(is_connected(g) for g in graphs)
        assert not all(is_connected(g) for g in graphs)
        kind = Descriptor("curvature", alpha=alpha)
        for g in graphs:
            table = coefficient_table(g, kind)
            for (v, u), value in table.raw.items():
                assert abs(value - exact_ot_oracle(g, v, u, alpha)) < 1e-9

    def test_k2_components_cancel_without_transport(self, monkeypatch):
        # at alpha = 1/2 both endpoints of a lone edge put 1/2 on each end
        def fail(*args):
            raise AssertionError("no mass is left to transport")

        monkeypatch.setattr(descriptors, "wasserstein_discrete", fail)
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        table = coefficient_table(g, Descriptor("curvature", alpha=0.5))
        assert table.raw == {(0, 1): 1.0, (2, 3): 1.0, (4, 5): 1.0}

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_transport_sees_only_positive_mass(self, alpha, monkeypatch):
        # a point is kept only when its mass m exceeds the mass both measures
        # share there, and then m - shared > 0 in floating point too; every
        # instance passes through least_cost_starts, the unsettled ones on to
        # the solver
        seen = []

        def record(supply, demand, cost, m, n):
            seen.extend((list(mu), list(nu)) for mu, nu in zip(
                np.split(supply, m.cumsum()[:-1]), np.split(demand, n.cumsum()[:-1])))
            return least_cost_starts(supply, demand, cost, m, n)

        monkeypatch.setattr(descriptors, "least_cost_starts", record)
        graphs = random_graphs(10, 30) + [_graph_with_isolated_nodes(), complete_graph(2),
                                          _adjacent_hubs()]
        assert any(0 in map(g.degree, range(g.num_nodes)) for g in graphs[:30])
        for g in graphs:
            coefficient_table(g, Descriptor("curvature", alpha=alpha))
        assert len(seen) > 100
        for mu, nu in seen:
            assert mu and nu
            assert min(mu) > 0 and min(nu) > 0

    def test_transport_calls_keep_the_benchmark_cells(self, monkeypatch):
        # perfbench ticks its clock at every wasserstein_discrete call and sums
        # each call's cells as len(distances) x len(distances[0]) into
        # transport.cells_sum; those must be the sizes of mu and nu
        support_cells = load_tracer()._support_cells
        cells = []

        def record(mu, nu, distances):
            cells.append((support_cells((mu, nu, distances), {}, None), len(mu) * len(nu)))
            return wasserstein_discrete(mu, nu, distances)

        monkeypatch.setattr(descriptors, "wasserstein_discrete", record)
        # only instances whose least-cost start is not optimal reach the
        # solver; the graphs of seed 13 add 40 of them
        for g in [_adjacent_hubs()] + random_graphs(12, 8) + random_graphs(13, 8):
            for alpha in (0.0, 0.5):
                coefficient_table(g, Descriptor("curvature", alpha=alpha))
        assert len(cells) > 50 and max(expected for _, expected in cells) >= 30
        assert all(traced == expected for traced, expected in cells)

    def test_table_cells_bound(self, monkeypatch):
        # a path of N >= 3 nodes sums 2 x 6 + 9 (N - 3) cells (deg v + 1)(deg u + 1):
        # 66,668 nodes sum 599,997 and are accepted, and at 66,669 nodes the
        # sum passes 600,000 at the last edge, before any transport
        assert descriptors.MAX_CURVATURE_CELLS == 600_000
        tabled = []
        monkeypatch.setattr(descriptors, "curvature_values",
                            lambda g, ends, alpha: tabled.append(g) or [1.0] * len(ends))
        accepted = path_graph(66668)
        assert len(coefficient_table(accepted, Descriptor("curvature")).values) == 66667
        with pytest.raises(DescriptorError, match=r"^edge \(66667, 66668\): the table's work "
                           r"estimate passes the bound of 600000 at this edge$"):
            coefficient_table(path_graph(66669), Descriptor("curvature"))
        assert tabled == [accepted]

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1 / 3, 0.5, 0.9])
    def test_bytes_equal_the_reference_loop(self, alpha):
        # the array build and the settled starts give every value the bits of
        # the loop that sends each edge to wasserstein_discrete; on 300 small
        # random graphs a start that broke a mass tie the other way changes
        # the bits of two tables at alpha 1/3
        graphs = ([g for seed in range(30, 40) for g in random_graphs(seed, 30)]
                  + [_adjacent_hubs(), _graph_with_isolated_nodes(),
                                           Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])]
                  + [complete_graph(n) for n in range(2, 9)])
        for g in graphs:
            ends = table_ends(g)
            expected = np.array(reference_curvature_values(g, ends, alpha))
            assert descriptors.curvature_values(g, ends, alpha).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("graph", [lambda: _two_hubs(127), lambda: path_graph(66668)],
                             ids=["hubs", "path"])
    def test_chunks_bound_the_peak_memory(self, graph):
        # a chunk holds at most CURVATURE_ENTRIES transport cells (the hubs'
        # 128 x 128 instance is one edge alone) and each common-neighbour
        # search as many neighbours; measured on one host, the hubs peak at
        # 2.2 MB and the path, whose 599,997 cells take 37 chunks, at 5.4 MB,
        # most of it the table's arrays of a few words an edge.  The path in
        # one chunk peaks near 80 MB.
        g = graph()
        ends = table_ends(g)
        tracemalloc.start()
        try:
            descriptors.curvature_values(g, ends, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * len(ends) + 256 * descriptors.CURVATURE_ENTRIES

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_at_alpha_one_over_n(self, n):
        # both measures are uniform on all n nodes, so W1 = 0; what the
        # cancellation leaves is rounding residue and must not raise
        table = coefficient_table(complete_graph(n), Descriptor("curvature", alpha=1.0 / n))
        assert all(value == pytest.approx(1.0, abs=1e-15) for value in table.raw.values())


def _straddling_graph():
    """A hub of degree 40 and 300 random edges on 240 nodes, among 6,000
    nodes, most of them isolated: the hub's edges share chunks whose
    member-key space edges x nodes is below _indexed's bound, and the
    other edges one far above it."""
    rng = random.Random(5)
    edges = {(0, x) for x in range(1, 41)}
    while len(edges) < 340:
        v, u = sorted(rng.sample(range(1, 240), 2))
        edges.add((v, u))
    return Graph(6000, sorted(edges))


class TestDenseAndSearchedLookups:
    """descriptors._indexed picks, per chunk, a gather from a dense member
    index or a binary search of the member keys, and graphs.arc_test, per
    curvature table, a gather from an arc bitmap or a binary search of the
    arc keys; both give the same bytes."""

    GRAPHS = [_straddling_graph(), _two_hubs(40), _adjacent_hubs(), _graph_with_isolated_nodes(),
              star_graph(30), *random_graphs(21, 6)]
    RULES = {"dense": lambda *args: True, "search": lambda *args: False,
             "rule": descriptors._indexed}

    def _tables(self, kind, rule, chosen):
        def spy(index_bytes, entries):
            dense = self.RULES[rule](index_bytes, entries)
            chosen.add((entries, dense))
            return dense

        with mock.patch.object(descriptors, "_indexed", spy):
            return [coefficient_table(g, kind).values.tobytes() for g in self.GRAPHS]

    @pytest.mark.parametrize("rule", RULES)
    def test_local_kinds_equal_the_reference_loop(self, rule):
        chosen = set()
        for kind in LOCAL_KINDS:
            expected = [reference_local_values(g, kind).tobytes() for g in self.GRAPHS]
            assert self._tables(kind, rule, chosen) == expected, kind
        # the hub's chunks sit below the bound and the rest of its graph above
        expected = {True, False} if rule == "rule" else {rule == "dense"}
        assert {dense for entries, dense in chosen} == expected
        assert {entries for entries, _ in chosen} == {descriptors.BATCH_ENTRIES}

    BITMAP_BYTES = {"dense": 1 << 62, "search": -1, "rule": ARC_BITMAP_BYTES}

    @pytest.mark.parametrize("rule", BITMAP_BYTES)
    def test_curvature_equals_the_reference_loop(self, rule, monkeypatch):
        chosen = set()

        def spy(degree, nbr):
            is_arc = arc_test(degree, nbr)
            chosen.add("bits" in is_arc.__code__.co_freevars)  # the bitmap's gather
            return is_arc

        monkeypatch.setattr("unionsub.graphs.ARC_BITMAP_BYTES", self.BITMAP_BYTES[rule])
        monkeypatch.setattr(descriptors, "arc_test", spy)
        for alpha in (0.0, 1 / 3, 0.5):
            expected = [np.array(reference_curvature_values(g, table_ends(g), alpha)).tobytes()
                        for g in self.GRAPHS]
            kind = Descriptor("curvature", alpha=alpha)
            assert [coefficient_table(g, kind).values.tobytes() for g in self.GRAPHS] == expected
        # a bitmap of 6,000^2 bits is above the bound, and those of small graphs below
        assert chosen == ({True, False} if rule == "rule" else {rule == "dense"})

    def test_views_above_the_rule(self, monkeypatch):
        # a one-edge chunk's member keys are the node ids: 2 bytes each for
        # 600,000 nodes is above the bound; a star of 70,000 leaves is below
        # it, but its union subgraph has more members than a uint16 rank counts
        views = (union_subgraph, overlap_subgraph, union_minus_subgraph)
        g = Graph(600_000, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 599_999), (2, 599_998)])
        star = Graph(70_001, [(0, x) for x in range(1, 70_001)] + [(1, 2)])
        assert not descriptors._indexed(2 * g.num_nodes, descriptors.BATCH_ENTRIES)
        assert descriptors._indexed(2 * star.num_nodes, descriptors.BATCH_ENTRIES)
        searched = [view(g, 0, 1) for view in views]
        assert searched[0].parent_ids == (0, 1, 2, 3)
        assert searched[0].local.edges == ((0, 1), (0, 2), (1, 2), (1, 3))
        monkeypatch.setattr(descriptors, "_indexed", lambda *args: True)
        for view, s in zip(views, searched):
            dense = view(g, 0, 1)
            assert (dense.parent_ids, dense.local.edges) == (s.parent_ids, s.local.edges)
        # ranks past a byte: the hub edge of a 300-leaf star has 301 members
        s = union_subgraph(star_graph(300), 0, 1)
        assert s.local.edges == tuple((0, x) for x in range(1, 301))
        s = union_subgraph(star, 0, 1)
        assert len(s.parent_ids) == 70_001
        assert s.local.edges[-2:] == ((0, 70_000), (1, 2))
        assert len(s.local.edges) == 70_001

    @pytest.mark.parametrize("kind", [Descriptor("count-ne"), Descriptor("union-path"),
                                      Descriptor("curvature")])
    def test_indexes_bound_the_peak_memory(self, kind):
        # large-sparse's shape: a chunk's member keys span up to 400,000 keys,
        # and an index at most 8 bytes an entry of a chunk holds its uint16
        # ranks.  Measured on one host: the local kinds peak at 1.7 MB (12.9
        # bytes an entry of BATCH_ENTRIES, 0.8 MB of it the index; int32
        # ranks would add 0.8 MB), curvature at 2.1 MB (128 bytes an entry of
        # CURVATURE_ENTRIES), its bitmap 45 kB of it.
        g = gnm_graph(600, 1110, 0)
        ends = table_ends(g)
        tracemalloc.start()
        try:
            if kind.kind == "curvature":
                descriptors.curvature_values(g, ends, kind.alpha)
            else:
                local_descriptor_values(g, ends, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind.kind == "curvature":
            assert peak < 144 * descriptors.CURVATURE_ENTRIES
        else:
            assert peak < 16 * descriptors.BATCH_ENTRIES


def linprog_transport(supply, demand, cost):
    """Optimal transport cost from scipy's linear program."""
    from scipy.optimize import linprog

    m, n = cost.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
                  bounds=(0, None), method="highs")
    return res.fun


@st.composite
def balanced_instances(draw):
    """Balanced instances, m and n in 1..8, integer costs 0..3.

    Masses are either uniform or small integers split into the same total;
    the integer ones tie exactly, so starting bases are often degenerate
    (basic cells with zero flow).
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cost = np.array(draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)),
                    dtype=float).reshape(m, n)
    if draw(st.booleans()):
        return np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost
    supply = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    total = sum(supply)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    demand = np.diff([0, *cuts, total])
    return np.array(supply, dtype=float), demand.astype(float), cost


@st.composite
def float_mass_instances(draw):
    """Balanced instances whose masses are floats that do not tie exactly.

    Each side carries one unit, either split as curvature lays out a
    measure (alpha on one point, (1 - alpha) / deg on each of deg others)
    or as random weights scaled to sum to one.  Costs are integers 0..3.
    """

    def unit_mass():
        if draw(st.booleans()):
            alpha = draw(st.sampled_from([0.0, 0.2, 0.3, 0.5]) | st.floats(0.0, 1.0))
            deg = draw(st.integers(1, 7))
            return np.array([alpha] + [(1.0 - alpha) / deg] * deg)
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8)))
        return weights / weights.sum()

    supply, demand = unit_mass(), unit_mass()
    m, n = len(supply), len(demand)
    cost = np.array(draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)),
                    dtype=float).reshape(m, n)
    return supply, demand, cost


@st.composite
def curvature_like_instances(draw):
    """Instances shaped like curvature's: m and n in 1..8 and costs 1, 2 or 3.

    Masses are small integers over their total, so equal values, cost ties
    and zero-amount basic cells occur; the last demand may carry a residual
    that folds (3e-10) or one that the balance check refuses (2e-9).
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cost = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=m * n,
                                  max_size=m * n))).reshape(m, n)
    supply = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    total = sum(supply)
    cuts = sorted(draw(st.lists(st.integers(0, total - 1), min_size=n - 1, max_size=n - 1)))
    demand = np.diff([0, *cuts, total]) / total
    demand[-1] += draw(st.sampled_from([0.0, 3e-10, -3e-10, 2e-9]))
    return np.array(supply) / total, demand, cost


def assert_optimal_feasible(supply, demand, cost):
    plan, objective = solve_transport(supply, demand, cost)
    assert abs(objective - linprog_transport(supply, demand, cost)) < 1e-9
    assert plan.shape == cost.shape and (plan >= 0).all()
    assert np.allclose(plan.sum(axis=1), supply, rtol=0, atol=1e-12)
    assert np.allclose(plan.sum(axis=0), demand, rtol=0, atol=1e-12)
    assert objective == (plan * cost).sum()


class TestTransportSolver:
    def test_simple_instance(self):
        plan, cost = solve_transport(
            [1.0, 1.0], [1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert cost == pytest.approx(0.0)
        assert np.allclose(plan, np.eye(2))

    def test_against_linprog(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            supply = rng.uniform(0.1, 1.0, m)
            demand = rng.uniform(0.1, 1.0, n)
            demand *= supply.sum() / demand.sum()
            cost = rng.integers(0, 5, size=(m, n)).astype(float)
            _, mine = solve_transport(supply, demand, cost)
            assert abs(mine - linprog_transport(supply, demand, cost)) < 1e-9

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(instance=balanced_instances())
    def test_optimal_feasible_plan(self, instance):
        assert_optimal_feasible(*instance)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(instance=float_mass_instances())
    def test_optimal_feasible_plan_float_masses(self, instance):
        assert_optimal_feasible(*instance)

    def test_tie_break_picks_the_optimal_plan(self):
        # the least-cost start [[2,0,0],[1,0,0],[0,1,1]] costs 6 and holds a
        # zero-flow basic cell, so a pivot has tied leaving cells; of the
        # optimal plans of cost 3 the smallest tied cell selects this one
        plan, objective = solve_transport(
            [2.0, 1.0, 2.0], [3.0, 1.0, 1.0],
            np.array([[0.0, 2.0, 2.0], [0.0, 1.0, 1.0], [0.0, 3.0, 3.0]]),
        )
        assert objective == 3.0
        assert plan.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_zero_cost_permutation(self, k):
        # every zero-cost cell empties its row and its column at once, so the
        # start is degenerate at each step; it must still be the optimal plan
        rng = random.Random(k)
        perm = rng.sample(range(k), k)
        cost = np.array([[rng.randint(1, 3) for _ in range(k)] for _ in range(k)], float)
        cost[range(k), perm] = 0.0
        plan, objective = solve_transport([1.0] * k, [1.0] * k, cost)
        assert objective == 0.0
        assert plan.tolist() == np.eye(k)[perm].tolist()

    def test_single_row_and_column(self):
        # one line takes everything; dyadic masses keep the sums exact
        masses = [0.25, 0.25, 0.5]
        plan, objective = solve_transport([1.0], masses, [[3.0, 1.0, 2.0]])
        assert plan.tolist() == [masses] and objective == 2.0
        plan, objective = solve_transport(masses, [1.0], [[3.0], [1.0], [2.0]])
        assert plan.tolist() == [[x] for x in masses] and objective == 2.0

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="unbalanced"):
            solve_transport([1.0], [2.0], np.zeros((1, 1)))

    @pytest.mark.parametrize("supply, cost", [
        ([0.5, 0.5], [[0.0, 1.0], [1.0]]),
        ([0.5, 0.5], [0.0, 1.0]),
        ([0.5, 0.5], np.zeros((2, 3))),
        ([[0.5], [0.5]], np.zeros((2, 2))),
    ])
    def test_shapes_checked(self, supply, cost):
        with pytest.raises(ValueError, match="cost shape"):
            solve_transport(supply, [0.5, 0.5], cost)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_transport([1.5, -0.5], [1.0], [[0.0], [1.0]])

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve_transport([], [], np.zeros((0, 0)))

    def test_zero_mass_support_dropped(self):
        # a zero-mass point reaches the solver, which sends no flow through it
        w = wasserstein_discrete(
            [0.5, 0.0, 0.5], [1.0], np.array([[1.0], [9.0], [3.0]])
        )
        assert w == pytest.approx(2.0)

    @pytest.mark.parametrize("supply, demand, cost", [
        ([math.nan], [1.0], [[1.0]]),
        ([math.inf], [math.inf], [[1.0]]),
        ([0.5, 0.5], [1.0], [[1.0], [math.nan]]),
        ([0.5, 0.5], [1.0], [[1.0], [math.inf]]),
        ([1.0], [0.5, 0.5], [[-math.inf, 1.0]]),
    ])
    def test_non_finite_rejected(self, supply, demand, cost):
        with pytest.raises(ValueError, match="finite"):
            solve_transport(supply, demand, cost)
        with pytest.raises(ValueError, match="finite"):
            wasserstein_discrete(supply, demand, cost)

    def test_nan_mass_is_not_dropped(self):
        # a nan mass must reach the solver's check
        with pytest.raises(ValueError, match="finite"):
            wasserstein_discrete([0.5, math.nan, 0.5], [1.0], [[1.0], [1.0], [3.0]])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(instance=float_mass_instances())
    def test_wasserstein_solves_the_positive_part(self, instance):
        # curvature passes only points that keep positive mass
        # (TestCurvatureTable.test_transport_sees_only_positive_mass), and
        # they reach the solver as they are, from arrays or lists
        supply, demand, cost = instance
        assume((supply > 0).all() and (demand > 0).all())
        expected = solve_transport(supply, demand, cost)[1]
        assert wasserstein_discrete(supply, demand, cost) == expected
        assert wasserstein_discrete(supply.tolist(), demand.tolist(), cost.tolist()) == expected

    def test_array_starts_match_the_python_start(self):
        # least_cost_starts settles a batch of instances at once; a settled
        # instance's plan and objective are the Python solver's, bit for bit,
        # and an instance the balance check refuses never settles
        seen = set()

        @settings(max_examples=150, derandomize=True, deadline=None)
        @given(batch=st.lists(curvature_like_instances(), min_size=1, max_size=6))
        def check(batch):
            supply, demand, cost = (np.concatenate([np.ravel(x[k]) for x in batch])
                                    for k in range(3))
            m, n = (np.array([len(x[k]) for x in batch]) for k in range(2))
            plan, w1, settled = least_cost_starts(supply, demand, cost, m, n)
            at = 0
            for (mu, nu, c), objective, is_settled in zip(batch, w1, settled):
                cells, at = plan[at:at + c.size].reshape(c.shape), at + c.size
                if abs(sum(mu) - sum(nu)) > 1e-9:  # the 2e-9 residual
                    seen.add("unbalanced")
                    assert not is_settled
                    with pytest.raises(ValueError, match="unbalanced"):
                        solve_transport(mu, nu, c)
                elif is_settled:
                    seen.add("settled")
                    expected, expected_objective = solve_transport(mu, nu, c)
                    assert cells.tobytes() == expected.tobytes()
                    assert objective.hex() == expected_objective.hex()
                    assert objective.hex() == wasserstein_discrete(mu, nu, c).hex()
                else:
                    seen.add("needs a pivot")

        check()
        assert seen == {"settled", "needs a pivot", "unbalanced"}

    def test_flat_objective_is_the_numpy_sum(self):
        # the solver sums its flat row-major products with numpy; that must be
        # the bits of (plan * cost).sum() on the (m, n) arrays, which numpy
        # reduces as one run of m * n elements when they are contiguous
        rng = np.random.default_rng(5)
        for _ in range(600):
            m, n = (int(x) for x in rng.integers(1, 129, 2))
            plan = rng.random((m, n)) * (rng.random((m, n)) < rng.random())
            plan /= max(plan.sum(), 1.0)
            cost = (rng.integers(1, 4, (m, n)) if rng.random() < 0.5
                    else rng.random((m, n)) * 10.0).astype(float)
            objective = transport._objective(plan.ravel().tolist(), cost.ravel().tolist())
            assert objective.hex() == float((plan * cost).sum()).hex()


@st.composite
def edge_insertions(draw):
    """G(n, 0.25) with n in 8..20, and a node pair (a, b) that is not one of its edges."""
    n = draw(st.integers(8, 20))
    g = random_graph(n, 0.25, random.Random(draw(st.integers(0, 2**32 - 1))))
    missing = [pair for pair in itertools.combinations(range(n), 2) if not g.has_edge(*pair)]
    assume(missing)
    a, b = draw(st.sampled_from(missing))
    return g, Graph(n, [*g.edges, (a, b)]), a, b


def raw_values(g, kind):
    return coefficient_table(g, kind).raw


class TestLocality:
    """Adding one edge (a, b) leaves the raw value of every edge far from it."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=edge_insertions())
    def test_member_set_kinds(self, case):
        # a value reads only the subgraph on its member set N[v] | N[u]
        # (N[v] & N[u] for overlap), so (a, b) must join two members
        g, h, a, b = case
        for kind in map(Descriptor, ("union-path", "count-ne", "betweenness", "overlap-path")):
            before, after = raw_values(g, kind), raw_values(h, kind)
            graph = nx_graph(h)
            for (v, u), value in before.items():
                nv, nu = {v, *graph[v]}, {u, *graph[u]}
                members = nv & nu if kind.kind == "overlap-path" else nv | nu
                if not {a, b} <= members:
                    assert after[(v, u)] == value, (kind.kind, v, u)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=edge_insertions(), alpha=st.sampled_from([0.0, 0.5]))
    def test_curvature_radius(self, case, alpha):
        # curvature reads the degrees of v and u, adjacency within N[v] | N[u]
        # and common neighbours anywhere in g, so (a, b) must touch v or u,
        # or join N[v] | N[u] to a node within distance 2 of v or u
        g, h, a, b = case
        kind = Descriptor("curvature", alpha=alpha)
        before, after = raw_values(g, kind), raw_values(h, kind)
        graph = nx_graph(g)
        for (v, u), value in before.items():
            near = {v, u, *graph[v], *graph[u]}
            within_two = set(nx.single_source_shortest_path_length(graph, v, cutoff=2))
            within_two |= set(nx.single_source_shortest_path_length(graph, u, cutoff=2))
            if not ({a, b} & {v, u} or a in near and b in within_two
                    or b in near and a in within_two):
                assert after[(v, u)] == value, (v, u)


class TestCycleCountDescriptor:
    def test_bounds(self):
        with pytest.raises(DescriptorError):
            cycle_count(cycle_graph(6), 2)
        with pytest.raises(DescriptorError):
            cycle_count(cycle_graph(6), 9)

    def test_values(self):
        assert cycle_count(cycle_graph(6), 6) == 1
        assert cycle_count(complete_graph(4), 3) == 4
        assert cycle_count(two_triangles_graph(), 3) == 2

    def test_hub_is_counted(self):
        # a 1,001-node star whose leaves 1..334 also form a path: each 6-cycle
        # is the hub and five consecutive path nodes.  It has 6.75e8
        # non-backtracking walks of up to 5 edges; the search takes 2e4 steps
        edges = [(0, leaf) for leaf in range(1, 1001)] + [(i, i + 1) for i in range(1, 334)]
        assert cycle_count(Graph(1001, edges), 6) == 330

    @pytest.mark.parametrize("seed", range(12))
    def test_step_bound_counts_path_end_reads(self, seed, monkeypatch):
        # the search reads the row of each root and of the end of each simple
        # path of 2 to k - 1 nodes above its root, one step per entry and per
        # row; blocks of 1 and 3 entries split every length into many blocks
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.9), rng)
        k = rng.randint(3, 8)
        paths = [[v] for v in range(g.num_nodes)]
        steps = sum(len(row) + 1 for row in g.adjacency)
        for _ in range(k - 2):
            paths = [p + [x] for p in paths for x in g.adjacency[p[-1]]
                     if x > p[0] and x not in p]
            steps += sum(len(g.adjacency[p[-1]]) + 1 for p in paths)
        expected = sum(1 for c in nx.simple_cycles(nx_graph(g), length_bound=k) if len(c) == k)
        for block in (graphs.CYCLE_BLOCK, 1, 3):
            monkeypatch.setattr(graphs, "CYCLE_BLOCK", block)
            monkeypatch.setattr(graphs, "MAX_CYCLE_STEPS", steps)
            assert cycle_count(g, k) == expected, block
            monkeypatch.setattr(graphs, "MAX_CYCLE_STEPS", steps - 1)
            with pytest.raises(DescriptorError, match=rf"^{k}-cycle search: more than "
                                                      rf"{steps - 1} steps \(adjacency entries "
                                                      r"read, plus one per read\)$"):
                cycle_count(g, k)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_empty_and_edgeless_graphs(self, k, monkeypatch):
        # an edgeless graph reads each root's empty row once
        monkeypatch.setattr(graphs, "MAX_CYCLE_STEPS", 5)
        assert cycle_count(Graph(0, []), k) == cycle_count(Graph(5, []), k) == 0
        monkeypatch.setattr(graphs, "MAX_CYCLE_STEPS", 4)
        with pytest.raises(DescriptorError, match="more than 4 steps"):
            cycle_count(Graph(5, []), k)
        assert cycle_count(Graph(0, []), k) == 0

    def test_search_bound(self):
        # K11 at k = 8 takes 3.4e6 steps, a third of MAX_CYCLE_STEPS.  The
        # search holds one block of paths of each length 2 to k - 1, each of
        # at most CYCLE_BLOCK paths, beside one block's gathers.  Measured on
        # one host: the peak was 0.7 MB, 2.5 bytes per CYCLE_BLOCK k^2, and
        # 100 MB with each length held whole
        k = 8
        g = complete_graph(11)
        g.csr
        tracemalloc.start()
        try:
            count = cycle_count(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 415800
        assert peak < 4 * k * k * graphs.CYCLE_BLOCK


class TestCoefficientTable:
    def test_two_triangles_union_svd(self):
        table = coefficient_table(two_triangles_graph(), Descriptor("union-path"))
        assert all(v == pytest.approx(4.0) for v in table.raw.values())
        assert all(v == pytest.approx(0.5) for v in table.normalized.values())

    def test_c6_union_svd_uniform(self):
        table = coefficient_table(cycle_graph(6), Descriptor("union-path"))
        values = set(round(v, 9) for v in table.raw.values())
        assert len(values) == 1
        assert all(v == pytest.approx(0.5) for v in table.normalized.values())

    def test_k2_analytic(self):
        table = coefficient_table(complete_graph(2), Descriptor("union-path"))
        assert table.raw[(0, 1)] == pytest.approx(2.0)
        assert table.normalized[(0, 1)] == pytest.approx(1.0)
        assert table.normalized[(1, 0)] == pytest.approx(1.0)

    def test_row_normalization_all_kinds(self):
        rng = random.Random(5)
        g = random_graph(9, 0.4, rng)
        while not is_connected(g) or g.num_edges < 8:
            g = random_graph(9, 0.4, rng)
        for kind in map(Descriptor, Descriptor.KINDS):
            table = coefficient_table(g, kind)
            for v in range(g.num_nodes):
                if g.degree(v) == 0:
                    continue
                total = sum(table.normalized[(v, u)] for u in g.neighbors(v))
                assert total == pytest.approx(1.0, abs=1e-9), kind

    def test_svd_kind_raws_strictly_positive(self):
        rng = random.Random(6)
        for _ in range(10):
            g = random_graph(8, 0.4, rng)
            if not g.edges:
                continue
            for kind in map(Descriptor, ("union-path", "overlap-path", "minus-path")):
                table = coefficient_table(g, kind)
                assert all(v > 0 for v in table.raw.values())

    def test_permutation_invariance_all_kinds(self):
        rng = random.Random(7)
        g = random_graph(8, 0.45, rng)
        while g.num_edges < 8:
            g = random_graph(8, 0.45, rng)
        for kind in map(Descriptor, Descriptor.KINDS):
            base = coefficient_table(g, kind)
            for _ in range(3):
                perm = list(range(g.num_nodes))
                rng.shuffle(perm)
                relabeled = coefficient_table(relabel(g, perm), kind)
                verdict = distinguish_pair(g, relabel(g, perm), kind)
                assert not verdict.raw_values_differ
                for (v, u), value in base.raw.items():
                    assert relabeled.raw_value(perm[v], perm[u]) == pytest.approx(
                        value, abs=1e-9
                    )

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=relabeled_graphs())
    def test_permutation_invariance_every_kind(self, case):
        # raw values map edge for edge within 1e-12 relative, under every
        # encoding for the matrix kinds, and the 6-cycle count `bench` times
        # is the same.  Curvature is 1 - W with W of order 1, so a curvature
        # of 0 may come out as a rounding error of 1e-16: errors are relative
        # to max(|x|, 1)
        g, perm = case
        relabeled = relabel(g, perm)
        assert cycle_count(relabeled, 6) == cycle_count(g, 6)
        for kind in TABLE_CASES:
            base = coefficient_table(g, kind).raw
            moved = coefficient_table(relabeled, kind)
            for (v, u), value in base.items():
                other = moved.raw_value(perm[v], perm[u])
                scale = max(abs(value), 1.0)
                assert abs(other - value) <= 1e-12 * scale, kind

    def test_cycle_count_not_a_table_kind(self):
        # cycle-count is a per-graph count that only `bench` times
        assert "cycle-count" not in Descriptor.KINDS
        for text in ("cycle-count", "cycle-count:6"):
            with pytest.raises(DescriptorError, match="unknown descriptor kind 'cycle-count'"):
                coefficient_table(cycle_graph(6), Descriptor.parse(text))

    def test_zero_sum_guard_uniform_fallback(self):
        # on P5 both edges at the middle node have curvature exactly 0,
        # so its normalization falls back to uniform weights with a warning
        g = path_graph(5)
        with pytest.warns(RuntimeWarning, match=r"around 1 node\(s\) sum to ~0 \(first: node 2\)"):
            table = coefficient_table(g, Descriptor("curvature"))
        assert table.normalized[(2, 1)] == pytest.approx(0.5)
        assert table.normalized[(2, 3)] == pytest.approx(0.5)

    def test_one_fallback_warning_per_table(self):
        # every inner edge of a path has curvature 0, so all 4,092 nodes
        # with two inner edges fall back, and the table warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coefficient_table(path_graph(4096), Descriptor("curvature"))
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "coefficients around 4092 node(s) sum to ~0 (first: node 2); "
                             "falling back to uniform weights")
        ]

    def test_errors_carry_edge_identity(self, monkeypatch):
        reached = []

        def fail(*args):
            reached.append(args)
            raise RuntimeError("transport failed")

        monkeypatch.setattr(descriptors, "wasserstein_discrete", fail)
        # on the diamond, K4 less the edge (1, 3), edge (0, 3) leaves mu = 1/4
        # on 0 and 1/6 on 1, nu = 1/12 on 2 and 1/3 on 3.  The least-cost start
        # fills (0, 2) with 1/12, (0, 3) with 1/6 and (1, 3) with 1/6 at cost 2;
        # with u_0 = 0 its potentials are v_2 = v_3 = 1 and u_1 = 1, so the cell
        # (1, 2) prices at 1 - 1 - 1 = -1 and the instance needs a pivot.
        # Edges (0, 1) and (0, 2) come first and settle without the solver.
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        with pytest.raises(DescriptorError) as raised:
            coefficient_table(g, Descriptor("curvature"))
        assert len(reached) == 1
        mu, nu, _ = reached[0]
        assert (mu, nu) == (pytest.approx([0.25, 1 / 6]), pytest.approx([1 / 12, 1 / 3]))
        raised.match(r"^edge \(0, 3\): transport failed$")

    def test_laplacian_kind(self):
        g = complete_graph(3)
        table = coefficient_table(g, Descriptor("laplacian"))
        lap = laplacian_matrix(nx_local_subgraph(g, 0, 1))
        assert table.raw[(0, 1)] == pytest.approx(
            float(np.abs(np.linalg.eigvalsh(lap)).sum())
        )

    def test_csv_and_json_serialization(self):
        table = coefficient_table(complete_graph(3), Descriptor("union-path"))
        text = table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "v,u,raw,norm_vu,norm_uv"
        assert len(lines) == 4
        obj = table.to_json_obj()
        assert len(obj["raw"]) == 3 and len(obj["normalized"]) == 6


# every kind, and every encoding of the matrix kinds
TABLE_CASES = tuple(
    Descriptor(name, encoding=encoding)
    for name in Descriptor.KINDS
    for encoding in (Encoding if name.endswith(("path", "laplacian")) else [Encoding.SVD_SUM])
)


@st.composite
def table_graphs(draw):
    """A graph on 1-12 nodes with a random edge set, so isolated nodes are common."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph(n, [])
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


def hex_floats(values):
    return [float(x).hex() for x in values]


class TestTableArrays:
    """values, weights and the dict views against the dict normalization in helpers."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(g=table_graphs())
    def test_bytes_equal_the_reference_normalization(self, g):
        # every case includes laplacian under matrix-sum, whose values are all
        # 0, so every non-isolated node falls back
        pairs = [(v, u) for v, row in enumerate(g.adjacency) for u in row]
        tables, expected = [], []
        for case in TABLE_CASES:
            with warnings.catch_warnings(record=True) as mine:
                warnings.simplefilter("always")
                table = coefficient_table(g, case)
            with warnings.catch_warnings(record=True) as theirs:
                warnings.simplefilter("always")
                raw, normalized = reference_table(g, case)
            assert [(w.category, str(w.message)) for w in mine] == [
                (w.category, str(w.message)) for w in theirs], case
            assert list(table.raw) == list(raw) == list(g.edges), case
            assert list(table.normalized) == list(normalized) == pairs, case
            assert hex_floats(table.values) == hex_floats(raw.values()), case
            assert hex_floats(table.raw.values()) == hex_floats(raw.values()), case
            assert hex_floats(table.weights) == hex_floats(normalized.values()), case
            assert hex_floats(table.normalized.values()) == hex_floats(normalized.values()), case
            assert all(type(x) is float for x in [*table.raw.values(), *table.normalized.values()])
            tables.append(table)
            expected += normalized.values()
        batch = neural._Batch([g] * len(tables), tables)
        assert hex_floats(batch.coeff_rows[:, 0]) == hex_floats(expected)

    def test_arrays_are_read_only(self):
        table = coefficient_table(cycle_graph(5), Descriptor("union-path"))
        for array in (table.values, table.weights, *cycle_graph(5).csr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestDescriptorParsing:
    def test_parse_kinds(self):
        assert Descriptor.parse("union-path") == Descriptor("union-path")
        assert Descriptor.parse("count-ne:1").lam == 1
        assert Descriptor.parse("curvature:0.3").alpha == 0.3

    def test_validation(self):
        with pytest.raises(DescriptorError):
            Descriptor.parse("nope")
        with pytest.raises(DescriptorError):
            Descriptor("count-ne", lam=3)
        with pytest.raises(DescriptorError):
            Descriptor("curvature", alpha=-0.1)
        with pytest.raises(DescriptorError):
            Descriptor.parse("union-path:2")
        with pytest.raises(DescriptorError, match="^unknown encoding 'svd-sum'$"):
            Descriptor("union-path", encoding="svd-sum")
        # a kind's own parameter has its type: no text, None, bool or float lambda
        for kind, value, message in (
            ("curvature", {"alpha": "0.3"}, "^curvature alpha must lie in \\[0, 1\\)$"),
            ("curvature", {"alpha": None}, "^curvature alpha must lie in \\[0, 1\\)$"),
            ("count-ne", {"lam": True}, "^count-ne lambda must be 1 or 2$"),
            ("count-ne", {"lam": 1.0}, "^count-ne lambda must be 1 or 2$"),
            ("count-ne", {"lam": "1"}, "^count-ne lambda must be 1 or 2$"),
            ("union-path", {"lam": 3}, "^descriptor 'union-path' takes no lam$"),
        ):
            with pytest.raises(DescriptorError, match=message):
                Descriptor(kind, **value)
        # numpy numbers are numbers, numpy bools are not
        assert Descriptor("count-ne", lam=np.int64(1)) == Descriptor("count-ne", lam=1)
        assert Descriptor("curvature", alpha=np.float64(0.3)) == Descriptor("curvature", alpha=0.3)
        with pytest.raises(DescriptorError, match="^count-ne lambda must be 1 or 2$"):
            Descriptor("count-ne", lam=np.bool_(True))
        for text, message in (
            ("count-ne:3", "lambda must be 1 or 2"),
            ("curvature:1.5", "alpha"),
            ("count-ne:x", "invalid parameter"),
            ("cycle-count", "unknown descriptor kind"),
            ("bogus:3", "unknown descriptor kind"),
            ("union-path:2", "invalid parameter in 'union-path:2'"),
            ("betweenness:2", "takes no parameter"),
            # an empty parameter is invalid, not the default
            ("union-path:", "invalid parameter in 'union-path:'"),
            ("count-ne:", "invalid parameter in 'count-ne:'"),
            ("curvature:", "invalid parameter in 'curvature:'"),
            ("betweenness:", "takes no parameter"),
            # int and float strip whitespace; a parameter has one spelling
            ("count-ne: 1", "invalid parameter in 'count-ne: 1'"),
            ("curvature:0.3 ", "invalid parameter in 'curvature:0.3 '"),
            ("union-path: svd-sum", "invalid parameter in 'union-path: svd-sum'"),
            ("curvature:\t0.3", "invalid parameter in 'curvature:"),
        ):
            with pytest.raises(DescriptorError, match=message):
                Descriptor.parse(text)

    def test_kind_takes_only_its_own_parameter(self):
        # every field off its default that is not the kind's own is refused,
        # so equal descriptors build equal tables
        own = {"union-path": "encoding", "overlap-path": "encoding", "minus-path": "encoding",
               "laplacian": "encoding", "betweenness": None, "count-ne": "lam",
               "curvature": "alpha"}
        assert Descriptor.KINDS == tuple(own)
        off_default = {"lam": 1, "alpha": 0.3, "encoding": Encoding.EIGEN_MAX}
        for kind, name in itertools.product(own, off_default):
            if name == own[kind]:
                assert getattr(Descriptor(kind, **{name: off_default[name]}), name) == (
                    off_default[name])
                continue
            with pytest.raises(DescriptorError, match=f"^descriptor '{kind}' takes no {name}$"):
                Descriptor(kind, **{name: off_default[name]})
            # a foreign field at its default sets nothing
            assert Descriptor(kind, **{name: getattr(Descriptor(kind), name)}) == Descriptor(kind)

    def test_encoding_parse(self):
        # the four matrix kinds take an encoding, svd-sum by default
        for name in Descriptor.KINDS[:4]:
            assert Descriptor.parse(name).encoding is Encoding.SVD_SUM
            for encoding in Encoding:
                assert Descriptor.parse(f"{name}:{encoding.value}") == Descriptor(
                    name, encoding=encoding)
        assert Descriptor.parse("union-path:eigen-max") != Descriptor("union-path")

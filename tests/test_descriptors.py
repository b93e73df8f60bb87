import itertools
import math
import random
import tracemalloc
import types
import warnings
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unionsub import descriptors, neural
from unionsub.descriptors import (
    BETWEENNESS,
    COUNT_NE,
    LAPLACIAN_SVD,
    MINUS_PATH_SVD,
    OVERLAP_PATH_SVD,
    RICCI_CURVATURE,
    UNION_PATH_SVD,
    Descriptor,
    DescriptorError,
    Encoding,
    coefficient_table,
    curvature_values,
    cycle_count,
    encode_matrix,
    local_descriptor_values,
    path_matrix,
    reconstruct_subgraph,
    ricci_curvature,
)
from unionsub.graphs import (
    Graph,
    GraphError,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_connected,
    path_graph,
    random_graph,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
    two_triangles_graph,
)
from unionsub.substructure import overlap_subgraph, union_minus_subgraph, union_subgraph
from unionsub.transport import solve_transport, wasserstein_discrete
from unionsub.wl import distinguish_pair

from helpers import edge_descriptor_value, local_index, reference_local_values, reference_table


def full_subgraph(g):
    return induced_subgraph(g, range(g.num_nodes))


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
MATRIX_SUBGRAPHS = {
    "union-path": union_subgraph,
    "overlap-path": overlap_subgraph,
    "minus-path": union_minus_subgraph,
    "laplacian": union_subgraph,
}
MATRIX_KINDS = tuple(MATRIX_SUBGRAPHS)


def nx_graph(g):
    h = nx.empty_graph(g.num_nodes)
    h.add_edges_from(g.edges)
    return h


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
    if kind == "betweenness":
        sub = union_subgraph(g, v, u)
        return betweenness_oracle(sub.local, local_index(sub, v), local_index(sub, u))
    if kind == "count-ne":
        sub = union_subgraph(g, v, u)
        n = sub.num_nodes
        return sub.num_edges / (n * (n - 1)) * n ** COUNT_NE.lam
    sub = MATRIX_SUBGRAPHS[kind](g, v, u)
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
            with warnings.catch_warnings():
                # laplacian matrix sums are 0, so normalization falls back
                warnings.simplefilter("ignore", RuntimeWarning)
                table = coefficient_table(g, Descriptor(kind), encoding)
            assert set(table.raw) == set(g.edges)
            for (v, u), value in table.raw.items():
                ref = _reference_value(g, v, u, kind, encoding)
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (
                    kind, encoding, v, u)

    def test_single_edge_equals_table(self):
        g = REFERENCE_GRAPHS["random-3"]
        for kind in MATRIX_KINDS + ("betweenness", "count-ne"):
            table = coefficient_table(g, Descriptor(kind), Encoding.EIGEN_MAX)
            for (v, u), value in table.raw.items():
                assert edge_descriptor_value(
                    g, u, v, Descriptor(kind), Encoding.EIGEN_MAX
                ) == pytest.approx(value, rel=1e-12)

    def test_single_edge_rejects_non_edge(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(path_graph(3), 0, 2, UNION_PATH_SVD)

    def test_small_batches_match_one_batch(self, monkeypatch):
        cases = [
            (REFERENCE_GRAPHS[name], kind)
            for name in ("rook4x4", "random-3")
            for kind in (MINUS_PATH_SVD, BETWEENNESS)
        ]
        whole = [coefficient_table(g, kind).raw for g, kind in cases]
        monkeypatch.setattr(descriptors, "BATCH_ENTRIES", 1)
        for (g, kind), raw in zip(cases, whole):
            assert coefficient_table(g, kind).raw == pytest.approx(raw, rel=1e-12)

    def test_local_subgraph_bound(self, monkeypatch):
        # every local subgraph of K6, the overlap too, has 6 nodes; count-ne
        # builds no matrix, so the bound leaves it alone
        g = complete_graph(6)
        count_ne = coefficient_table(g, COUNT_NE).raw
        monkeypatch.setattr(descriptors, "MAX_LOCAL_NODES", 5)
        for kind in MATRIX_KINDS + ("betweenness",):
            with pytest.raises(DescriptorError,
                               match=r"^edge \(0, 1\): .* 6 nodes, above the bound of 5$"):
                coefficient_table(g, Descriptor(kind))
        assert coefficient_table(g, COUNT_NE).raw == count_ne

    def test_edgeless_graph(self):
        table = coefficient_table(Graph(3, []), UNION_PATH_SVD)
        assert table.raw == {} and table.normalized == {}


LOCAL_KINDS = tuple(Descriptor(kind) for kind in (*MATRIX_KINDS, "betweenness", "count-ne"))


@st.composite
def local_value_cases(draw):
    """A graph with isolated nodes, two components and maybe a hub, and edges of it.

    The edge list is all edges, one edge, none, or a sample in either
    orientation and any order.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n, extra = draw(st.integers(2, 36)), draw(st.integers(2, 8))
    edges = set(random_graph(n, draw(st.floats(0.05, 0.6)), rng).edges)
    if n > 30 and draw(st.booleans()):
        edges |= {(0, x) for x in range(1, n)}  # a hub of degree n - 1 >= 30
    second = random_graph(extra, 0.5, rng).edges  # a second component on fresh nodes
    edges |= {(n + i, n + i + 1) for i in range(extra - 1)} | {(n + a, n + b) for a, b in second}
    g = Graph(n + extra + draw(st.integers(0, 3)), sorted(edges))
    chosen = draw(st.sampled_from(["all", "one", "none", "sample"]))
    if chosen == "all":
        return g, list(g.edges)
    if chosen == "one":
        return g, [draw(st.sampled_from(g.edges))]
    if chosen == "none":
        return g, []
    sample = draw(st.lists(st.sampled_from(g.edges), min_size=2))
    return g, [(u, v) if (u + v) % 2 else (v, u) for v, u in sample]


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
    """local_descriptor_values against the per-edge reference loop in helpers."""

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(case=local_value_cases())
    def test_bytes_equal_the_reference_loop(self, case):
        # 300 entries split the size runs into several chunks; 1 gives every
        # matrix a chunk of its own
        g, edges = case
        for batch in (descriptors.BATCH_ENTRIES, 300, 1):
            with mock.patch.object(descriptors, "BATCH_ENTRIES", batch):
                for kind, encoding in itertools.product(LOCAL_KINDS, Encoding):
                    mine = local_descriptor_values(g, edges, kind, encoding)
                    ref = reference_local_values(g, edges, kind, encoding)
                    assert mine.tobytes() == ref.tobytes(), (kind.kind, encoding, batch)

    @pytest.mark.parametrize("kind", [COUNT_NE, UNION_PATH_SVD])
    def test_chunks_bound_the_peak_memory(self, monkeypatch, kind):
        # on this 10^4-edge graph with BATCH_ENTRIES = 2^12 the reference
        # loop peaks at 0.2 MB and the builder at 0.9 MB, mostly its CSR and
        # per-edge bound arrays; in one chunk, with every k^2 entry or every
        # member-neighbour pair held at once, the builder peaks near 19 MB.
        g = gnm_graph(5405, 10_000, 0)
        monkeypatch.setattr(descriptors, "BATCH_ENTRIES", 1 << 12)
        tracemalloc.start()
        try:
            local_descriptor_values(g, g.edges, kind, Encoding.SVD_SUM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestBetweenness:
    """Each graph equals its own union subgraph for the edge (0, 1)."""

    def test_p3(self):
        assert edge_descriptor_value(
            path_graph(3), 0, 1, BETWEENNESS
        ) == pytest.approx(2.0)

    def test_k3(self):
        assert edge_descriptor_value(
            complete_graph(3), 0, 1, BETWEENNESS
        ) == pytest.approx(1.0)

    def test_star(self):
        assert edge_descriptor_value(
            star_graph(3), 0, 1, BETWEENNESS
        ) == pytest.approx(3.0)

    def test_edge_absent(self):
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(path_graph(3), 0, 2, BETWEENNESS)

    def test_against_path_enumeration_oracle(self):
        rng = random.Random(2)
        checked = 0
        while checked < 30:
            g = random_graph(rng.randint(6, 12), rng.uniform(0.2, 0.5), rng)
            if not g.edges:
                continue
            v, u = g.edges[rng.randrange(g.num_edges)]
            sub = union_subgraph(g, v, u)
            expected = betweenness_oracle(
                sub.local, local_index(sub, v), local_index(sub, u)
            )
            mine = edge_descriptor_value(g, v, u, BETWEENNESS)
            assert mine == pytest.approx(expected, rel=1e-12)
            checked += 1


class TestCountNe:
    def test_k3_values(self):
        assert edge_descriptor_value(complete_graph(3), 0, 1, COUNT_NE) == 4.5
        assert edge_descriptor_value(
            complete_graph(3), 0, 1, Descriptor("count-ne", lam=1)
        ) == 1.5

    def test_p3(self):
        assert edge_descriptor_value(path_graph(3), 0, 1, COUNT_NE) == 3.0

    def test_tiny_rejected(self):
        # a one-node graph has no edge, hence no union subgraph to count
        with pytest.raises(GraphError, match="not an edge"):
            edge_descriptor_value(Graph(1, []), 0, 0, COUNT_NE)

    def test_bad_lambda(self):
        with pytest.raises(DescriptorError, match="lambda must be 1 or 2"):
            Descriptor("count-ne", lam=3)
        with pytest.raises(DescriptorError):
            Descriptor.parse("count-ne:3")


def exact_ot_oracle(g, v, u, alpha=0.5):
    """Ricci curvature via scipy's LP solver (independent of our simplex)."""
    from scipy.optimize import linprog

    sv = sorted(closed_neighborhood(g, v))
    su = sorted(closed_neighborhood(g, u))
    mu = np.array([alpha if x == v else (1 - alpha) / g.degree(v) for x in sv])
    nu = np.array([alpha if y == u else (1 - alpha) / g.degree(u) for y in su])
    lengths = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
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
        assert ricci_curvature(complete_graph(3), 0, 1, 0.5) == pytest.approx(0.75)

    def test_k2_value(self):
        # identical endpoint distributions: zero transport cost
        assert ricci_curvature(complete_graph(2), 0, 1, 0.5) == pytest.approx(1.0)

    def test_c6_matches_oracle(self):
        g = cycle_graph(6)
        assert ricci_curvature(g, 0, 1, 0.5) == pytest.approx(
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
            mine = ricci_curvature(g, v, u, 0.5)
            assert abs(mine - exact_ot_oracle(g, v, u, 0.5)) < 1e-8
            checked += 1

    def test_one_edge_reads_only_its_neighbourhoods(self):
        class Rows(tuple):
            """Adjacency rows that note each row read."""

            def __getitem__(self, x):
                self.read.add(x)
                return super().__getitem__(x)

            def __iter__(self):
                self.read.update(range(len(self)))
                return super().__iter__()

        g = gnm_graph(600, 1110, 1)
        for v, u in g.edges[::100]:
            rows = Rows(g.adjacency)
            rows.read = set()
            value = curvature_values(types.SimpleNamespace(adjacency=rows), [(v, u)], 0.5)
            assert value == [ricci_curvature(g, v, u)]
            assert rows.read <= closed_neighborhood(g, v) | closed_neighborhood(g, u)

    def test_transport_size_bound(self):
        # edge (0, 1) joins two hubs with `leaves` private leaves each, so each
        # side keeps its hub and leaves: (leaves + 1)^2 cells
        def hubs(leaves):
            edges = [(0, 1)] + [(0, x) for x in range(2, leaves + 2)]
            return Graph(2 * leaves + 2, edges + [(1, x + leaves) for x in range(2, leaves + 2)])

        assert descriptors.MAX_TRANSPORT_CELLS == 128 * 128
        # hub to hub carries 1/2 - 1/256 at cost 1, leaves to leaves 127/256 at cost 3
        assert ricci_curvature(hubs(127), 0, 1) == pytest.approx(1.0 - (0.5 - 1 / 256 + 381 / 256))
        with pytest.raises(DescriptorError, match=r"^edge \(0, 1\): 129 x 129 transport "
                                                  r"cells, above the bound of 16384$"):
            ricci_curvature(hubs(128), 0, 1)

    def test_alpha_validated(self):
        with pytest.raises(DescriptorError):
            ricci_curvature(complete_graph(3), 0, 1, 1.0)

    def test_edge_required(self):
        with pytest.raises(DescriptorError):
            ricci_curvature(path_graph(3), 0, 2)


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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete_graph_at_alpha_one_over_n(self, n):
        # both measures are uniform on all n nodes, so W1 = 0; what the
        # cancellation leaves is rounding residue and must not raise
        table = coefficient_table(complete_graph(n), Descriptor("curvature", alpha=1.0 / n))
        assert all(value == pytest.approx(1.0, abs=1e-15) for value in table.raw.values())

    def test_ricci_curvature_equals_the_table(self):
        for alpha in (0.0, 0.2, 0.5):
            for g in random_graphs(9, 10) + [rook_graph_4x4(), star_graph(7)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    table = coefficient_table(g, Descriptor("curvature", alpha=alpha))
                for (v, u), value in table.raw.items():
                    assert ricci_curvature(g, v, u, alpha) == value
                    assert ricci_curvature(g, u, v, alpha) == value


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
        # nan > 0 is false, yet the point must reach the solver's check
        with pytest.raises(ValueError, match="finite"):
            wasserstein_discrete([0.5, math.nan, 0.5], [1.0], [[1.0], [1.0], [3.0]])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(instance=float_mass_instances(), data=st.data())
    def test_wasserstein_solves_the_positive_part(self, instance, data):
        # with every mass positive the inputs reach the solver as they are;
        # zero-mass points (alpha 0, or added here anywhere) are dropped first
        supply, demand, cost = instance
        rows, cols = supply > 0, demand > 0
        expected = solve_transport(supply[rows], demand[cols], cost[rows][:, cols])[1]
        assert wasserstein_discrete(supply, demand, cost) == expected
        assert wasserstein_discrete(supply.tolist(), demand.tolist(), cost.tolist()) == expected
        zero_rows = data.draw(st.lists(st.integers(0, len(supply)), max_size=2))
        zero_cols = data.draw(st.lists(st.integers(0, len(demand)), max_size=2))
        padded = np.insert(np.insert(cost, zero_rows, 9.0, axis=0), zero_cols, 9.0, axis=1)
        w = wasserstein_discrete(np.insert(supply, zero_rows, 0.0),
                                 np.insert(demand, zero_cols, 0.0), padded.tolist())
        assert w == expected


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return coefficient_table(g, kind).raw


class TestLocality:
    """Adding one edge (a, b) leaves the raw value of every edge far from it."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=edge_insertions())
    def test_member_set_kinds(self, case):
        # a value reads only the subgraph on its member set N[v] | N[u]
        # (N[v] & N[u] for overlap), so (a, b) must join two members
        g, h, a, b = case
        for kind in (UNION_PATH_SVD, COUNT_NE, BETWEENNESS, OVERLAP_PATH_SVD):
            before, after = raw_values(g, kind), raw_values(h, kind)
            for (v, u), value in before.items():
                nv, nu = closed_neighborhood(h, v), closed_neighborhood(h, u)
                members = nv & nu if kind is OVERLAP_PATH_SVD else nv | nu
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
            near = closed_neighborhood(g, v) | closed_neighborhood(g, u)
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


class TestCoefficientTable:
    def test_two_triangles_union_svd(self):
        table = coefficient_table(two_triangles_graph(), UNION_PATH_SVD)
        assert all(v == pytest.approx(4.0) for v in table.raw.values())
        assert all(v == pytest.approx(0.5) for v in table.normalized.values())

    def test_c6_union_svd_uniform(self):
        table = coefficient_table(cycle_graph(6), UNION_PATH_SVD)
        values = set(round(v, 9) for v in table.raw.values())
        assert len(values) == 1
        assert all(v == pytest.approx(0.5) for v in table.normalized.values())

    def test_k2_analytic(self):
        table = coefficient_table(complete_graph(2), UNION_PATH_SVD)
        assert table.raw[(0, 1)] == pytest.approx(2.0)
        assert table.normalized[(0, 1)] == pytest.approx(1.0)
        assert table.normalized[(1, 0)] == pytest.approx(1.0)

    def test_row_normalization_all_kinds(self):
        rng = random.Random(5)
        g = random_graph(9, 0.4, rng)
        from unionsub.graphs import is_connected

        while not is_connected(g) or g.num_edges < 8:
            g = random_graph(9, 0.4, rng)
        for kind in (
            UNION_PATH_SVD,
            OVERLAP_PATH_SVD,
            MINUS_PATH_SVD,
            BETWEENNESS,
            COUNT_NE,
            RICCI_CURVATURE,
            LAPLACIAN_SVD,
        ):
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
            for kind in (UNION_PATH_SVD, OVERLAP_PATH_SVD, MINUS_PATH_SVD):
                table = coefficient_table(g, kind)
                assert all(v > 0 for v in table.raw.values())

    def test_permutation_invariance_all_kinds(self):
        rng = random.Random(7)
        g = random_graph(8, 0.45, rng)
        while g.num_edges < 8:
            g = random_graph(8, 0.45, rng)
        kinds = (
            UNION_PATH_SVD,
            OVERLAP_PATH_SVD,
            MINUS_PATH_SVD,
            BETWEENNESS,
            COUNT_NE,
            RICCI_CURVATURE,
            LAPLACIAN_SVD,
        )
        for kind in kinds:
            base = coefficient_table(g, kind)
            for _ in range(3):
                perm = list(range(g.num_nodes))
                rng.shuffle(perm)
                relabeled = coefficient_table(g.relabel(perm), kind)
                verdict = distinguish_pair(g, g.relabel(perm), kind, Encoding.SVD_SUM)
                assert not verdict.raw_values_differ
                for (v, u), value in base.raw.items():
                    assert relabeled.raw_value(perm[v], perm[u]) == pytest.approx(
                        value, abs=1e-9
                    )

    @pytest.mark.filterwarnings("ignore:coefficients around node")
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=relabeled_graphs())
    def test_permutation_invariance_every_kind(self, case):
        # raw values map edge for edge within 1e-12 relative, under every
        # encoding for the matrix kinds; cycle-count is a per-graph count.
        # Curvature is 1 - W with W of order 1, so a curvature of 0 may come
        # out as a rounding error of 1e-16: errors are relative to max(|x|, 1)
        g, perm = case
        relabeled = g.relabel(perm)
        for name in Descriptor.KINDS:
            kind = Descriptor(name)
            if name == "cycle-count":
                assert cycle_count(relabeled, kind.cycle_len) == cycle_count(
                    g, kind.cycle_len
                )
                continue
            matrix_kind = name.endswith(("path", "laplacian"))
            for encoding in Encoding if matrix_kind else [Encoding.SVD_SUM]:
                base = coefficient_table(g, kind, encoding).raw
                moved = coefficient_table(relabeled, kind, encoding)
                for (v, u), value in base.items():
                    other = moved.raw_value(perm[v], perm[u])
                    scale = max(abs(value), 1.0)
                    assert abs(other - value) <= 1e-12 * scale, (name, encoding)

    def test_cycle_count_not_a_table_kind(self):
        with pytest.raises(DescriptorError, match="graph-global"):
            coefficient_table(cycle_graph(6), Descriptor("cycle-count"))

    def test_zero_sum_guard_uniform_fallback(self):
        # on P5 both edges at the middle node have curvature exactly 0,
        # so its normalization falls back to uniform weights with a warning
        g = path_graph(5)
        with pytest.warns(RuntimeWarning, match="uniform"):
            table = coefficient_table(g, RICCI_CURVATURE)
        assert table.normalized[(2, 1)] == pytest.approx(0.5)
        assert table.normalized[(2, 3)] == pytest.approx(0.5)

    def test_errors_carry_edge_identity(self, monkeypatch):
        def fail(*args):
            raise RuntimeError("transport failed")

        monkeypatch.setattr(descriptors, "wasserstein_discrete", fail)
        # on P4 mass is left on both sides of edge (0, 1) once the shared
        # mass is cancelled, so that edge reaches the solver
        g = path_graph(4)
        with pytest.raises(DescriptorError, match=r"edge \(0, 1\): transport failed"):
            coefficient_table(g, RICCI_CURVATURE)

    def test_laplacian_kind(self):
        g = complete_graph(3)
        table = coefficient_table(g, LAPLACIAN_SVD, Encoding.SVD_SUM)
        lap = laplacian_matrix(union_subgraph(g, 0, 1))
        assert table.raw[(0, 1)] == pytest.approx(
            float(np.abs(np.linalg.eigvalsh(lap)).sum())
        )

    def test_csv_and_json_serialization(self):
        table = coefficient_table(complete_graph(3), UNION_PATH_SVD)
        text = table.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "v,u,raw,norm_vu,norm_uv"
        assert len(lines) == 4
        obj = table.to_json_obj()
        assert len(obj["raw"]) == 3 and len(obj["normalized"]) == 6


TABLE_CASES = tuple(
    (Descriptor(name), encoding)
    for name in Descriptor.KINDS if name != "cycle-count"
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
        for kind, encoding in TABLE_CASES:
            with warnings.catch_warnings(record=True) as mine:
                warnings.simplefilter("always")
                table = coefficient_table(g, kind, encoding)
            with warnings.catch_warnings(record=True) as theirs:
                warnings.simplefilter("always")
                raw, normalized = reference_table(g, kind, encoding)
            case = (kind.kind, encoding)
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
        table = coefficient_table(cycle_graph(5), UNION_PATH_SVD)
        for array in (table.values, table.weights, *cycle_graph(5).csr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestDescriptorParsing:
    def test_parse_kinds(self):
        assert Descriptor.parse("union-path") == UNION_PATH_SVD
        assert Descriptor.parse("count-ne:1").lam == 1
        assert Descriptor.parse("curvature:0.3").alpha == 0.3
        assert Descriptor.parse("cycle-count:5").cycle_len == 5

    def test_validation(self):
        with pytest.raises(DescriptorError):
            Descriptor.parse("nope")
        with pytest.raises(DescriptorError):
            Descriptor("count-ne", lam=3)
        with pytest.raises(DescriptorError):
            Descriptor("curvature", alpha=-0.1)
        with pytest.raises(DescriptorError):
            Descriptor.parse("union-path:2")
        for text, message in (
            ("count-ne:3", "lambda must be 1 or 2"),
            ("curvature:1.5", "alpha"),
            ("cycle-count:9", "cycle length"),
            ("count-ne:x", "invalid parameter"),
        ):
            with pytest.raises(DescriptorError, match=message):
                Descriptor.parse(text)

    def test_encoding_parse(self):
        assert Encoding.parse("svd-sum") is Encoding.SVD_SUM
        with pytest.raises(DescriptorError):
            Encoding.parse("nope")

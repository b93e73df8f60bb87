import itertools
import json
import math
import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unionsub import graphs
from unionsub.graphs import (
    Graph,
    GraphError,
    GraphParseError,
    Subgraph,
    complete_graph,
    count_simple_cycles,
    cycle_graph,
    double_edge_swap,
    four_cycle_pair,
    has_four_cycle,
    is_isomorphic_small,
    parse_graph,
    path_graph,
    random_graph,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
    two_triangles_graph,
)
from unionsub.substructure import overlap_subgraph, union_subgraph

from helpers import relabel


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize("edges, position", [
        ([(0, 1), (2, 2)], 1), ([(0, 1), (1, 2), (2, 1)], 2), ([(0, 3), (1, 1)], 0),
    ])
    def test_error_carries_failing_edge_position(self, edges, position):
        with pytest.raises(GraphError) as info:
            Graph(3, edges)
        assert info.value.edge == position

    @pytest.mark.parametrize("edges, position", [
        ([(0.0, 1.0)], 0),
        ([(0, 1), (1, 2.0)], 1),
        ([(True, 2)], 0),
        ([(0, 1), (np.True_, 2)], 1),
        ([("0", 1)], 0),
    ])
    def test_rejects_non_integer_ids(self, edges, position):
        with pytest.raises(GraphError, match="must be integers") as info:
            Graph(3, edges)
        assert info.value.edge == position

    def test_relabel_rejects_float_ids(self):
        with pytest.raises(GraphError, match="must be integers"):
            relabel(cycle_graph(3), [0.0, 1.0, 2.0])

    def test_numpy_integer_ids_stored_as_int(self):
        g = Graph(3, [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
        assert g.edges == ((0, 2), (1, 2))
        ids = [x for e in g.edges for x in e] + [x for a in g.adjacency for x in a]
        assert all(type(x) is int for x in ids)

    def test_adjacency_sorted_and_consistent(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.adjacency[0] == (1, 2)
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        assert g.has_edge(1, 0) and not g.has_edge(2, 3)

    def test_has_edge_out_of_range_is_false(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        for u, v in ((0, -1), (-1, 0), (0, 3), (3, 0), (2, -1), (-1, 2)):
            assert not g.has_edge(u, v), (u, v)

    def test_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.num_nodes = 5

    def test_features_shape_checked(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], features=[[1.0]])
        g = Graph(2, [(0, 1)], features=[[1.0, 2.0], [3.0, 4.0]])
        assert g.features.shape == (2, 2)
        with pytest.raises(ValueError):
            g.features[0, 0] = 9.0  # read-only

    def test_feature_matrix_defaults_to_ones(self):
        g = complete_graph(3)
        assert np.array_equal(g.features, np.ones((3, 1)))
        with pytest.raises(ValueError):
            g.features[0, 0] = 9.0  # read-only

    def test_ones_column_is_the_same_graph(self):
        g = cycle_graph(4)
        ones = Graph(4, g.edges, np.ones((4, 1)))
        assert g == ones and hash(g) == hash(ones)
        assert g != Graph(4, g.edges, np.full((4, 1), 2.0))
        assert g != Graph(4, g.edges, np.ones((4, 2)))
        assert g.to_json_obj()["features"] == [[1.0]] * 4

    def test_relabel_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], features=[[1.0], [2.0], [3.0], [4.0]])
        perm = [2, 0, 3, 1]
        h = relabel(g, perm)
        inverse = [perm.index(i) for i in range(4)]
        assert relabel(h, inverse) == g


class TestParsing:
    def test_k3_edge_list(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2")
        assert g == complete_graph(3)

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n0 0")

    def test_duplicate_reports_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("4 2\n0 1\n0 1")

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("3\n0 1")

    def test_out_of_range_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n0 5")

    def test_bad_token_is_reported_before_an_earlier_bad_edge(self):
        # tokens are read first; the edges are checked by Graph afterwards
        with pytest.raises(GraphParseError, match="line 4: malformed edge"):
            parse_graph("4 3\n0 0\n1 2\n1 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="expected 2 edge lines"):
            parse_graph("3 2\n0 1")

    def test_bytes_accepted(self):
        assert parse_graph(b"2 1\n0 1").num_edges == 1

    def test_json_roundtrip_with_features(self):
        g = Graph(3, [(0, 1), (1, 2)], features=[[0.5], [1.5], [2.5]])
        import json

        parsed = parse_graph(json.dumps(g.to_json_obj()))
        assert parsed == g

    def test_json_rejects_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph('{"num_nodes": 2, "edges": [[1, 1]]}')

    def test_json_roundtrip_without_nodes(self):
        # the JSON feature list [] of a graph with no nodes has no width
        g = Graph(0, [])
        assert parse_graph(json.dumps(g.to_json_obj())) == g
        assert parse_graph(g.to_text()) == g

    def test_edge_list_roundtrip(self):
        g = rook_graph_4x4()
        assert g.to_text().startswith("16 48\n0 1\n")
        assert parse_graph(g.to_text()) == g

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1], [1, 0]], "edge #1: duplicate edge (0, 1)"),
        ([[0, 1], [1, 2], [2, 2]], "edge #2: self-loop at node 2"),
        ([[0, 3]], "edge #0: node id out of range in edge (0, 3)"),
        ([[0, 1.5]], "edge #0: node ids must be integers in edge (0, 1.5)"),
    ])
    def test_json_edge_errors_name_the_edge(self, edges, message):
        text = json.dumps({"num_nodes": 3, "edges": edges})
        with pytest.raises(GraphParseError) as info:
            parse_graph(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        (b"2 1\n0 1\xff\n", "not ASCII"),
        ("\uff13 1\n0 1\n", "not ASCII"),  # a full-width 3
        ('{"num_nodes": 3, "edges": [["0", 1]]}', "integers"),
        ('{"num_nodes": 3, "edges": [[0.0, 1.5]]}', "integers"),
        ('{"num_nodes": true, "edges": []}', "num_nodes"),
        ('{"num_nodes": 3, "edges": [[true, false]]}', "integers"),
        ('{"num_nodes": 3, "edges": 5}', "list"),
        ('{"num_nodes": 2, "edges": [], "features": [[1.0], ["x"]]}', "features"),
        # one past the 2^20 node bound, so a broken check costs ~100 MB; larger
        # claims go to a memory-limited process in tests/test_cli.py
        ("1048577 0\n", "1048576"),
        ('{"num_nodes": 1048577, "edges": []}', "1048576"),
    ])
    def test_hostile_input_raises_parse_error(self, text, message):
        with pytest.raises(GraphParseError, match=message):
            parse_graph(text)

    def test_deeply_nested_json_raises_parse_error(self):
        text = '{"num_nodes": 2, "edges": ' + "[" * 100_000 + "}"
        with pytest.raises(GraphParseError, match="nested too deeply"):
            parse_graph(text)

    @pytest.mark.parametrize("template", ["{n} 0\n", '{{"num_nodes": {n}, "edges": []}}'])
    def test_node_count_bound_is_inclusive(self, template, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_PARSED_NODES", 5)
        assert parse_graph(template.format(n=5)).num_nodes == 5
        with pytest.raises(GraphParseError):
            parse_graph(template.format(n=6))

    @pytest.mark.parametrize("features", ['[["1"], [1]]', "[[1], [true]]"])
    def test_json_features_must_be_numbers(self, features):
        text = '{"num_nodes": 2, "edges": [[0, 1]], "features": %s}' % features
        with pytest.raises(GraphParseError, match="features"):
            parse_graph(text)


def mostly(likely, other):
    """Draws from ``likely`` seven times in eight, else from ``other``."""
    return st.integers(0, 7).flatmap(lambda k: other if k == 0 else likely)


# JSON values of every kind the parser may meet: ints past the float range,
# floats with inf and nan, bools, strings, null, nested lists and objects
json_scalars = (
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-(2**1100), 2**1100) | st.integers(-2, 8)
    | st.floats(allow_nan=True, allow_infinity=True)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=12,
)


@st.composite
def json_graph_texts(draw):
    """JSON objects near the graph schema: a small node count, pairs of ids
    near the range, a feature matrix of the right shape, and any part
    sometimes replaced by an arbitrary JSON value."""
    n = draw(st.integers(0, 6))
    ids = mostly(st.integers(0, n), json_values)
    pair = mostly(st.tuples(ids, ids).map(list), st.lists(ids, max_size=3))
    width = draw(st.integers(1, 3))
    special = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -(10**400)])
    number = mostly(st.floats(-1e3, 1e3) | st.integers(-3, 3), json_scalars | special)
    row = mostly(st.lists(number, min_size=width, max_size=width), json_values)
    obj = {
        "num_nodes": draw(mostly(st.just(n), json_values)),
        "edges": draw(mostly(st.lists(pair, max_size=4), json_values)),
    }
    if draw(st.booleans()):
        obj["features"] = draw(mostly(st.lists(row, min_size=n, max_size=n), json_values))
    return json.dumps(obj)


@st.composite
def edge_list_texts(draw):
    """ASCII text shaped like an edge list: a header, then lines that are
    mostly two small ids, with signs, floats, junk and huge ints mixed in."""
    n = draw(st.integers(0, 6))
    token = mostly(st.integers(-1, n).map(str), st.sampled_from(
        ["", "x", "-0", "+1", "1.5", "0x1", "1e3", "9" * 30, "\t", "\r"]
    ))
    line = mostly(st.tuples(token, token), st.lists(token, max_size=3)).map(" ".join)
    lines = draw(st.lists(line, max_size=6))
    m = draw(mostly(st.just(str(len(lines))), token))
    return "\n".join([f"{n} {m}"] + lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestParserFuzz:
    """parse_graph returns a Graph or raises GraphParseError, whatever it is fed."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.binary(max_size=64) | edge_list_texts() | json_graph_texts())
    # an integer feature past the float range (OverflowError in the
    # conversion) and an integer literal past Python's 4,300-digit limit
    @example('{"num_nodes": 1, "edges": [], "features": [[1' + "0" * 400 + "]]}")
    @example('{"num_nodes": 1' + "0" * 5000 + ', "edges": []}')
    def test_graph_or_parse_error(self, text):
        try:
            g = parse_graph(text)
        except GraphParseError:
            return
        assert isinstance(g, Graph)
        assert parse_graph(json.dumps(g.to_json_obj())) == g
        assert parse_graph(g.to_text()) == g


class TestNeighborhoods:
    """Graph.neighbors, the neighbourhoods the isomorphism tests walk."""

    def test_complete_graph(self):
        assert complete_graph(3).neighbors(0) == (1, 2)

    def test_path_endpoint(self):
        assert path_graph(3).neighbors(0) == (1,)

    def test_isolated_node(self):
        assert Graph(3, []).neighbors(1) == ()

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            complete_graph(3).neighbors(3)


class TestInducedSubgraph:
    """The union and overlap views are induced subgraphs; Subgraph itself."""

    def test_c6_piece_is_path(self):
        s = union_subgraph(cycle_graph(6), 1, 2)
        assert s.parent_ids == (0, 1, 2, 3)
        assert s.local == path_graph(4)

    def test_k4_piece_is_k3(self):
        # K4 without (2, 3): N[0] & N[2] = {0, 1, 2}
        s = overlap_subgraph(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 0, 2)
        assert s.parent_ids == (0, 1, 2)
        assert s.local == complete_graph(3)

    def test_empty_set(self):
        s = Subgraph(Graph(0, []), [])
        assert s.num_nodes == 0 and s.num_edges == 0 and s.parent_edges() == ()

    def test_idempotent(self):
        # the union subgraph of the focal edge within its union subgraph is all of it
        rng = random.Random(0)
        for _ in range(20):
            g = random_graph(8, 0.4, rng)
            for v, u in g.edges:
                s = union_subgraph(g, v, u)
                again = union_subgraph(s.local, s.parent_ids.index(v), s.parent_ids.index(u))
                assert again.local == s.local

    def test_induced_property(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(9, 0.35, rng)
            for v, u in g.edges:
                for s in (union_subgraph(g, v, u), overlap_subgraph(g, v, u)):
                    ids = s.parent_ids
                    for i, j in itertools.combinations(range(s.num_nodes), 2):
                        assert s.local.has_edge(i, j) == g.has_edge(ids[i], ids[j])

    def test_subgraph_rejects_duplicate_parent_ids(self):
        with pytest.raises(GraphError):
            Subgraph(path_graph(2), [0, 0])

    def test_subgraph_rejects_wrong_length(self):
        for ids in ([4], [4, 5, 6]):
            with pytest.raises(GraphError, match="length must equal"):
                Subgraph(path_graph(2), ids)

    def test_subgraph_equality_and_immutability(self):
        s = Subgraph(path_graph(2), [5, 3])
        assert s.parent_ids == (5, 3)
        assert s == Subgraph(path_graph(2), (5, 3))
        assert s != Subgraph(path_graph(2), [3, 5])
        assert s != Subgraph(Graph(2, []), [5, 3])
        for name in ("local", "parent_ids"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)


class TestIsomorphism:
    def test_k3_vs_c3(self):
        assert is_isomorphic_small(complete_graph(3), cycle_graph(3))

    def test_p4_vs_star(self):
        assert not is_isomorphic_small(path_graph(4), star_graph(3))

    def test_c6_vs_two_triangles(self):
        assert not is_isomorphic_small(cycle_graph(6), two_triangles_graph())

    def test_size_bound(self):
        with pytest.raises(GraphError, match="bound"):
            is_isomorphic_small(cycle_graph(13), cycle_graph(13))

    def test_invariant_under_relabeling(self):
        rng = random.Random(2)
        for _ in range(25):
            g = random_graph(7, 0.45, rng)
            perm = list(range(7))
            rng.shuffle(perm)
            assert is_isomorphic_small(g, relabel(g, perm))

    def test_equivalence_relation_spot_check(self):
        rng = random.Random(3)
        graphs = [random_graph(6, 0.5, rng) for _ in range(12)]
        for g in graphs:
            assert is_isomorphic_small(g, g)  # reflexive
        for a in graphs[:6]:
            for b in graphs[:6]:
                assert is_isomorphic_small(a, b) == is_isomorphic_small(b, a)
        for a, b, c in zip(graphs[:4], graphs[4:8], graphs[8:12]):
            if is_isomorphic_small(a, b) and is_isomorphic_small(b, c):
                assert is_isomorphic_small(a, c)


@st.composite
def small_graphs(draw):
    """G(n, p) graphs of up to 12 nodes, p <= 1/2, isolated nodes allowed."""
    n, p = draw(st.integers(0, 12)), draw(st.floats(0.0, 0.5))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


class TestCycleCounting:
    def test_c6_has_one_hexagon(self):
        assert count_simple_cycles(cycle_graph(6), 6) == 1

    def test_k4_triangles(self):
        assert count_simple_cycles(complete_graph(4), 3) == 4

    def test_two_triangles(self):
        assert count_simple_cycles(two_triangles_graph(), 3) == 2

    def test_against_permutation_oracle(self):
        # oracle: choose k nodes, count cyclic orderings realized as cycles
        import itertools

        def oracle(g, k):
            total = 0
            for nodes in itertools.combinations(range(g.num_nodes), k):
                for perm in itertools.permutations(nodes[1:]):
                    seq = (nodes[0],) + perm
                    if all(
                        g.has_edge(seq[i], seq[(i + 1) % k]) for i in range(k)
                    ):
                        total += 1
            return total // 2  # two directions

        rng = random.Random(4)
        for _ in range(10):
            g = random_graph(8, 0.5, rng)
            for k in range(3, 9):
                expected = oracle(g, k)
                # blocks of 1 and 3 entries split every path length into many blocks
                for block in (graphs.CYCLE_BLOCK, 1, 3):
                    with mock.patch.object(graphs, "CYCLE_BLOCK", block):
                        assert count_simple_cycles(g, k) == expected, (k, block)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(g=small_graphs())
    def test_against_networkx(self, g):
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.num_nodes))
        lengths = [len(c) for c in nx.simple_cycles(h, length_bound=8)]
        assert [count_simple_cycles(g, k) for k in range(3, 9)] == [
            lengths.count(k) for k in range(3, 9)]


class TestNamedGenerators:
    def test_rook_is_srg_16_6_2_2(self):
        g = rook_graph_4x4()
        assert g.num_nodes == 16 and g.num_edges == 48
        self._check_srg(g, 6, 2, 2)

    def test_shrikhande_is_srg_16_6_2_2(self):
        g = shrikhande_graph()
        assert g.num_nodes == 16 and g.num_edges == 48
        self._check_srg(g, 6, 2, 2)

    @staticmethod
    def _check_srg(g, k, lam, mu):
        for v in range(g.num_nodes):
            assert g.degree(v) == k
        for v in range(g.num_nodes):
            for u in range(v + 1, g.num_nodes):
                common = len(set(g.neighbors(v)) & set(g.neighbors(u)))
                assert common == (lam if g.has_edge(v, u) else mu)

    def test_rook_shrikhande_same_degrees_not_isomorphic(self):
        rook, shr = rook_graph_4x4(), shrikhande_graph()
        assert rook.degree_sequence() == shr.degree_sequence()
        # independent non-isomorphism oracle: cycle content of the per-edge
        # union subgraphs (12/15 triangles/quads per rook edge vs 10/12)
        def union_cycle_stats(g):
            stats = set()
            for v, u in g.edges:
                s = union_subgraph(g, v, u)
                stats.add(
                    (count_simple_cycles(s.local, 3), count_simple_cycles(s.local, 4))
                )
            return stats

        assert union_cycle_stats(rook) == {(12, 15)}
        assert union_cycle_stats(shr) == {(10, 12)}

    def test_rook_is_networkx_k4_box_k4(self):
        k4 = nx.complete_graph(4)
        box = nx.relabel_nodes(nx.cartesian_product(k4, k4), lambda ij: 4 * ij[0] + ij[1])
        assert rook_graph_4x4() == Graph(16, list(box.edges()))

    def test_shrikhande_against_networkx(self):
        rook, shr = (nx.Graph(g.edges) for g in (rook_graph_4x4(), shrikhande_graph()))
        assert nx.is_strongly_regular(shr) and shr.number_of_nodes() == 16
        assert {d for _, d in shr.degree()} == {6}
        common = {
            shr.has_edge(a, b): len(list(nx.common_neighbors(shr, a, b)))
            for a, b in itertools.combinations(shr, 2)
        }
        assert common == {True: 2, False: 2}  # lambda = mu = 2
        assert not nx.is_isomorphic(rook, shr)

    def test_pair_kinds_equal_counts(self):
        for pair in ((two_triangles_graph(), cycle_graph(6)),
                     four_cycle_pair(4, random.Random(1))):
            assert len(pair) == 2
            assert pair[0].num_nodes == pair[1].num_nodes
            assert pair[0].num_edges == pair[1].num_edges

    def test_two_triangles_pair(self):
        a, b = two_triangles_graph(), cycle_graph(6)
        assert a.degree_sequence() == b.degree_sequence() == (2,) * 6
        assert not is_isomorphic_small(a, b)

    def test_four_cycle_pair_labels(self):
        rng = random.Random(11)
        for _ in range(5):
            pos, neg = four_cycle_pair(4, rng)
            assert count_simple_cycles(pos, 4) > 0
            assert count_simple_cycles(neg, 4) == 0
            assert pos.degree_sequence() == neg.degree_sequence()


def has_cycle_networkx(g, k):
    nx_graph = nx.Graph(list(g.edges))
    return any(len(c) == k for c in nx.simple_cycles(nx_graph, length_bound=k))


@st.composite
def graphs_and_swap_seeds(draw):
    n = draw(st.integers(4, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True))
    return n, edges, draw(st.integers(0, 2**32 - 1))


class TestFourCyclePairSampler:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_pairs_share_counts_and_degrees(self, k):
        for seed in range(3):
            rng = random.Random(seed)
            for _ in range(3):
                pos, neg = four_cycle_pair(k, rng)
                assert pos.num_nodes == neg.num_nodes
                assert pos.num_edges == neg.num_edges
                assert pos.degree_sequence() == neg.degree_sequence()

    @pytest.mark.parametrize("k", range(3, 9))
    def test_labels_match_networkx(self, k):
        rng = random.Random(20 + k)
        for _ in range(4):
            pos, neg = four_cycle_pair(k, rng)
            assert has_cycle_networkx(pos, k)
            assert not has_cycle_networkx(neg, k)

    def test_common_neighbour_test_matches_count(self):
        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng.randrange(1, 11), rng.random() * 0.6, rng)
            assert has_four_cycle(g.adjacency) == (count_simple_cycles(g, 4) > 0)
            sets = [set(row) for row in g.adjacency]
            assert has_four_cycle(sets) == has_four_cycle(g.adjacency)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=graphs_and_swap_seeds())
    def test_swap_keeps_degrees_and_simplicity(self, case):
        # an accepted swap is networkx.double_edge_swap's move:
        # (a, b), (c, d) -> (a, d), (c, b) on four distinct nodes
        n, edges, seed = case
        rng = random.Random(seed)
        edges = list(edges)
        g = Graph(n, edges)
        adjacency = [set(a) for a in g.adjacency]
        for _ in range(20):
            before = set(g.edges)
            made = double_edge_swap(edges, adjacency, rng)
            g = Graph(n, edges)  # raises on a self-loop or a duplicate edge
            assert [len(a) for a in adjacency] == [g.degree(v) for v in range(n)]
            assert [set(a) for a in g.adjacency] == adjacency
            removed, added = before - set(g.edges), set(g.edges) - before
            if not made:
                assert not removed and not added
                continue
            assert len(removed) == len(added) == 2
            (a, b), (c, d) = removed
            assert len({a, b, c, d}) == 4
            assert added in ({(min(a, d), max(a, d)), (min(c, b), max(c, b))},
                             {(min(a, c), max(a, c)), (min(b, d), max(b, d))})
            nx_before = nx.Graph(list(before))
            nx_after = nx.Graph(list(g.edges))
            assert dict(nx_before.degree()) == dict(nx_after.degree())

    def test_swap_chain_is_symmetric(self):
        # from every graph reachable from the start, each graph is entered by
        # as many (edge i, edge j, flip) draws as leave it back the other way,
        # so the uniform law on a degree sequence is kept
        class Draws:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        def moves(x, n):
            m = len(x)
            out = {}
            for i, j, flip in itertools.product(range(m), range(m), (0.25, 0.75)):
                edges, adjacency = list(x), [set(a) for a in Graph(n, x).adjacency]
                double_edge_swap(edges, adjacency, Draws([(i + .5) / m, (j + .5) / m, flip]))
                y = Graph(n, edges).edges
                out[y] = out.get(y, 0) + 1
            return out

        rng = random.Random(3)
        for _ in range(3):
            g = random_graph(7, 0.45, rng)
            kernel, todo = {}, [g.edges]
            while todo:
                x = todo.pop()
                if x not in kernel:
                    kernel[x] = moves(x, g.num_nodes)
                    todo.extend(kernel[x])
            assert len(kernel) > 1
            for x, out in kernel.items():
                for y, count in out.items():
                    assert kernel[y][x] == count

    def test_cycle_length_checked(self):
        with pytest.raises(GraphError, match="cycle length"):
            four_cycle_pair(9, random.Random(0))

    def test_no_pair_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "PAIR_BASES", 2)
        monkeypatch.setattr(graphs, "has_four_cycle", lambda adjacency: True)
        with pytest.raises(GraphError, match="could not sample a 4-cycle pair"):
            four_cycle_pair(4, random.Random(0))

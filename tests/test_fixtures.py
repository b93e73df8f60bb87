"""Frozen witness fixtures: descriptor-property failures and the case study."""

import networkx as nx
import numpy as np
import pytest

from unionsub import fixtures
from unionsub.descriptors import (
    Descriptor,
    Encoding,
    encode_matrix,
    path_matrix,
)
from unionsub.graphs import Graph, Subgraph, is_isomorphic_small
from unionsub.substructure import classify_edge_types

from helpers import edge_descriptor_value, is_connected


def nuclear(g):
    return encode_matrix(path_matrix(Subgraph(g, range(g.num_nodes))), Encoding.SVD_SUM)


def assert_realizable_union_subgraph(g, v=0, u=1):
    """The graph must equal its own union subgraph for the focal edge."""
    h = nx.Graph(g.edges)
    assert h.has_edge(v, u)
    assert {v, u, *h[v], *h[u]} == set(range(g.num_nodes))


class TestSizeAwarenessWitness:
    def test_fixture_is_realizable(self):
        assert_realizable_union_subgraph(fixtures.SIZE_AWARENESS_WITHOUT_E4)
        assert_realizable_union_subgraph(fixtures.SIZE_AWARENESS_WITH_E4)

    def test_graphs_differ_by_one_same_side_edge(self):
        a = set(fixtures.SIZE_AWARENESS_WITHOUT_E4.edges)
        b = set(fixtures.SIZE_AWARENESS_WITH_E4.edges)
        (extra,) = tuple(b - a)
        part = classify_edge_types(fixtures.SIZE_AWARENESS_WITH_E4, 0, 1)
        assert extra in part.e4

    def test_betweenness_blind_to_the_extra_edge(self):
        v, u = fixtures.FOCAL_EDGE
        kind = Descriptor("betweenness")
        without = edge_descriptor_value(fixtures.SIZE_AWARENESS_WITHOUT_E4, v, u, kind)
        with_e4 = edge_descriptor_value(fixtures.SIZE_AWARENESS_WITH_E4, v, u, kind)
        assert without == pytest.approx(6.0, abs=1e-12)
        assert with_e4 == pytest.approx(6.0, abs=1e-12)

    def test_path_coefficient_separates(self):
        a = nuclear(fixtures.SIZE_AWARENESS_WITHOUT_E4)
        b = nuclear(fixtures.SIZE_AWARENESS_WITH_E4)
        assert abs(a - b) > 1e-6


class TestConnectivityAwarenessWitness:
    def test_fixture_is_realizable(self):
        assert_realizable_union_subgraph(fixtures.CONNECTIVITY_AWARENESS_A)
        assert_realizable_union_subgraph(fixtures.CONNECTIVITY_AWARENESS_B)

    def test_equal_sizes_not_isomorphic(self):
        a, b = fixtures.CONNECTIVITY_AWARENESS_A, fixtures.CONNECTIVITY_AWARENESS_B
        assert a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
        assert not is_isomorphic_small(a, b)

    def test_count_ne_blind(self):
        v, u = fixtures.FOCAL_EDGE
        a = edge_descriptor_value(fixtures.CONNECTIVITY_AWARENESS_A, v, u, Descriptor("count-ne"))
        b = edge_descriptor_value(fixtures.CONNECTIVITY_AWARENESS_B, v, u, Descriptor("count-ne"))
        assert a == pytest.approx(b, abs=1e-12)

    def test_path_coefficient_separates(self):
        a = nuclear(fixtures.CONNECTIVITY_AWARENESS_A)
        b = nuclear(fixtures.CONNECTIVITY_AWARENESS_B)
        assert abs(a - b) > 1e-6


class TestCaseStudy:
    def test_fixture_is_realizable_and_typed(self):
        g = fixtures.CASE_STUDY_GRAPH
        assert_realizable_union_subgraph(g)
        part = classify_edge_types(g, 0, 1)
        assert fixtures.CASE_STUDY_EDGE_BY_TYPE["e1"] in part.e1
        assert fixtures.CASE_STUDY_EDGE_BY_TYPE["e2"] in part.e2
        assert fixtures.CASE_STUDY_EDGE_BY_TYPE["e3"] in part.e3
        e4 = fixtures.CASE_STUDY_EDGE_BY_TYPE["e4"]
        assert not g.has_edge(*e4)
        with_e4 = Graph(8, list(g.edges) + [e4])
        assert e4 in classify_edge_types(with_e4, 0, 1).e4

    def test_edge_deletions_increase(self):
        g = fixtures.CASE_STUDY_GRAPH
        base = nuclear(g)
        deletable = 0
        for edge in g.edges:
            rest = [e for e in g.edges if e != edge]
            candidate = Graph(8, rest)
            if not is_connected(candidate):
                continue
            deletable += 1
            assert nuclear(candidate) > base + 1e-9
        assert deletable >= 4

    def test_node_deletions_decrease(self):
        g = fixtures.CASE_STUDY_GRAPH
        base = nuclear(g)
        for node in range(2, 8):
            # node ids above the deleted one shift down by one
            shrunk = Graph(7, [(a - (a > node), b - (b > node))
                               for a, b in g.edges if node not in (a, b)])
            assert is_connected(shrunk)
            assert nuclear(shrunk) < base - 1e-9

    def test_type_impacts_strictly_ordered(self):
        g = fixtures.CASE_STUDY_GRAPH
        base = nuclear(g)
        deltas = {}
        for name in ("e1", "e2", "e3"):
            edge = fixtures.CASE_STUDY_EDGE_BY_TYPE[name]
            rest = [e for e in g.edges if e != edge]
            deltas[name] = nuclear(Graph(8, rest)) - base
        e4 = fixtures.CASE_STUDY_EDGE_BY_TYPE["e4"]
        deltas["e4"] = base - nuclear(Graph(8, list(g.edges) + [e4]))
        assert deltas["e1"] + 1e-9 < deltas["e2"]
        assert deltas["e2"] + 1e-9 < deltas["e3"]
        assert deltas["e3"] + 1e-9 < deltas["e4"]
        assert all(d > 0 for d in deltas.values())

"""The paper's descriptor hierarchy as graph-pair counts.

Three offline families of 1-WL-equivalent, non-isomorphic graph pairs:
every such pair of networkx atlas graphs (at most 7 nodes, connected or
not), every pair of the 21 cubic graphs on 10 nodes, and three pairs of
Latin square graphs of orders 4, 5 and 6.  For each
descriptor kind under svd-sum, a pair counts as separated when the
coefficient-tagged refinement tells its graphs apart
(``distinguish_pair(...).augmented_distinguishes``).  The counts are
measured ones: where they differ from the paper's ordering, the test pins
the measurement.
"""

import itertools
from collections import defaultdict

import networkx as nx
import pytest

from unionsub.descriptors import Descriptor
from unionsub.graphs import Graph
from unionsub.wl import distinguish_pair, wl_distinguishable

from helpers import cubic_graphs_on_ten_nodes, latin_square_pairs

KINDS = (
    "union-path", "overlap-path", "minus-path", "count-ne", "betweenness",
    "curvature", "laplacian",
)
# family -> (pairs, separated pairs per kind in KINDS order)
COUNTS = {
    "atlas": (26, (23, 23, 23, 23, 23, 23, 23)),
    "cubic10": (210, (208, 187, 187, 208, 208, 209, 208)),
    "latin": (3, (3, 3, 3, 3, 0, 0, 3)),
}


def atlas_pairs():
    """Every pair of atlas graphs that 1-WL does not tell apart; atlas graphs
    are pairwise non-isomorphic, and 1-WL keeps the degree sequence."""
    by_degrees = defaultdict(list)
    for h in nx.graph_atlas_g():
        degrees = tuple(sorted(d for _, d in h.degree()))
        by_degrees[degrees].append(Graph(h.number_of_nodes(), list(h.edges())))
    return [
        (g1, g2) for graphs in by_degrees.values()
        for g1, g2 in itertools.combinations(graphs, 2) if not wl_distinguishable(g1, g2)
    ]


def cubic_pairs():
    # all graphs are 3-regular on 10 nodes, so 1-WL separates no pair
    return list(itertools.combinations(cubic_graphs_on_ten_nodes(), 2))


@pytest.fixture(scope="module")
def separated():
    """family -> (pair count, kind -> set of the positions of separated pairs)"""
    out = {}
    families = (("atlas", atlas_pairs()), ("cubic10", cubic_pairs()),
                ("latin", latin_square_pairs()))
    for family, pairs in families:
        by_kind = {}
        for kind in KINDS:
            descriptor = Descriptor.parse(kind)
            verdicts = [distinguish_pair(g1, g2, descriptor) for g1, g2 in pairs]
            assert not any(v.wl_distinguishes for v in verdicts)
            by_kind[kind] = {i for i, v in enumerate(verdicts) if v.augmented_distinguishes}
        out[family] = (len(pairs), by_kind)
    return out


@pytest.mark.parametrize("family", COUNTS)
def test_counts(separated, family):
    pairs, by_kind = separated[family]
    expected_pairs, expected = COUNTS[family]
    assert pairs == expected_pairs
    assert {kind: len(by_kind[kind]) for kind in KINDS} == dict(zip(KINDS, expected))


@pytest.mark.parametrize("family", COUNTS)
def test_union_contains_overlap_and_minus(separated, family):
    by_kind = separated[family][1]
    assert by_kind["overlap-path"] <= by_kind["union-path"]
    assert by_kind["minus-path"] <= by_kind["union-path"]


def test_cubic_hierarchy(separated):
    # union-path separates 21 cubic pairs that overlap and union-minus miss;
    # count-ne, betweenness and laplacian separate exactly its pairs, and
    # curvature one pair more, so on this family curvature is finer
    by_kind = separated["cubic10"][1]
    union = by_kind["union-path"]
    assert len(union - by_kind["overlap-path"]) == 21
    assert by_kind["overlap-path"] == by_kind["minus-path"]
    for kind in ("count-ne", "betweenness", "laplacian"):
        assert by_kind[kind] == union, kind
    assert union < by_kind["curvature"]
    assert len(by_kind["curvature"] - union) == 1


def test_latin_squares_beat_curvature():
    # strongly regular graphs of equal order: 1-WL and curvature separate none
    # of the three pairs, betweenness none either, while union-path and count-ne
    # separate each, in 2, 3 and 2 rounds; the reverse of the cubic order
    pairs = latin_square_pairs()
    assert [g.num_nodes for pair in pairs for g in pair] == [16, 16, 25, 25, 36, 36]
    for kind in ("union-path", "count-ne"):
        verdicts = [distinguish_pair(g1, g2, Descriptor.parse(kind)) for g1, g2 in pairs]
        assert [(v.augmented_distinguishes, v.rounds_used) for v in verdicts] == [
            (True, 2), (True, 3), (True, 2)], kind
    for kind in ("betweenness", "curvature"):
        verdicts = [distinguish_pair(g1, g2, Descriptor.parse(kind)) for g1, g2 in pairs]
        assert not any(v.augmented_distinguishes or v.raw_values_differ for v in verdicts), kind

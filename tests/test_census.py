"""The paper's descriptor hierarchy as graph-pair counts.

Three offline families of 1-WL-equivalent, non-isomorphic graph pairs:
every such pair of networkx atlas graphs (at most 7 nodes, connected or
not), every pair of the 21 cubic graphs on 10 nodes, and three pairs of
Latin square graphs of orders 4, 5 and 6.  Further rows pair the Latin
square graphs of the three abelian groups of order 8, those of Z9 and
Z3 x Z3, and the ten classes of circular skip link graphs CSL(41, r).  For
each descriptor kind at its default parameter, a pair counts as separated
when the coefficient-tagged refinement tells its graphs apart
(``distinguish_pair(...).augmented_distinguishes``).  The counts are
measured ones: where they differ from the paper's ordering, the test pins
the measurement.

Two test-only tags say where a kind loses pairs.  An edge's exact tag is
the isomorphism class of its union subgraph with both endpoints marked; its
raw tag is round(x * 1e9) of its raw value x.  Either replaces the
normalized weight in the reference refinement, and a kind loses a pair to
its encoding when the exact tag separates it and the raw tag does not, to
normalization when the raw tag does and the weight does not.  The raw-tag
and weight columns cover every table a kind builds: each encoding of the
four matrix kinds and both lambdas of count-ne.
"""

import functools
import itertools
import random
from collections import defaultdict

import networkx as nx
import pytest

from unionsub.descriptors import Descriptor, DescriptorError, Encoding, coefficient_table
from unionsub.graphs import Graph, rook_graph_4x4, shrikhande_graph
from unionsub.wl import distinguish_pair, wl_distinguishable

from helpers import (
    csl_graph, cubic_graphs_on_ten_nodes, exact_tagger, fwl2_separates, latin_square_graph,
    latin_square_pairs, order_eight_latin_pairs, product_group_table, raw_tags, reference_refine,
    relabel, weight_tags,
)

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
PATH_KINDS = ("union-path", "overlap-path", "minus-path")
# every table the local kinds build: the matrix kinds under each encoding,
# and count-ne under both lambdas; then curvature, which reads past the
# union subgraph
LOCAL_TAG_KINDS = (
    *(f"{kind}:{encoding.value}" for kind in (*PATH_KINDS, "laplacian") for encoding in Encoding),
    "betweenness", "count-ne", "count-ne:1",
)
TAG_KINDS = (*LOCAL_TAG_KINDS, "curvature")
# family -> pairs the exact tag separates; on the order-6 Latin pair the
# networkx isomorphism tests of the exact tag take 16 s, so it has none
EXACT_COUNTS = {"atlas": 26, "cubic10": 209, "latin": None}
# kind -> (pairs its raw tag separates, pairs its weight ã separates) on the
# atlas, cubic10 and Latin families, in that order
TAG_COUNTS = {
    **dict.fromkeys((f"union-path:{e.value}" for e in Encoding),
                    ((26, 23), (209, 208), (3, 3))),
    **dict.fromkeys((f"{kind}:{e.value}" for kind in PATH_KINDS[1:] for e in Encoding),
                    ((26, 23), (193, 187), (3, 3))),
    "laplacian:matrix-sum": ((0, 0), (0, 0), (0, 0)),  # each row of D - A sums to 0
    "laplacian:eigen-max": ((26, 23), (209, 208), (3, 3)),
    "laplacian:svd-sum": ((24, 23), (209, 208), (3, 3)),  # its trace, twice the local edges
    "betweenness": ((26, 23), (209, 208), (0, 0)),
    "count-ne": ((26, 23), (209, 208), (3, 3)),
    "count-ne:1": ((25, 22), (209, 208), (3, 3)),
    "curvature": ((26, 23), (210, 209), (0, 0)),
}
# the skips r of the ten CSL(41, r) classes, and, per verdict, the blocks of
# classes it cannot tell apart; a pair is separated iff its classes lie in
# different blocks, so the blocks {2}, {3}, {the other 8} separate 17 pairs
CSL_SKIPS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
CSL_BLOCKS = {
    "1-WL": (CSL_SKIPS,),  # 0 pairs; every class is 4-regular
    **dict.fromkeys(
        ("exact", "union-path", "count-ne", "betweenness", "laplacian",
         "union-path:eigen-max", "count-ne:1"),
        ((2,), (3,), (4, 5, 6, 9, 11, 12, 13, 16))),  # 17 pairs
    **dict.fromkeys(("overlap-path", "minus-path"),
                    ((2,), (3, 4, 5, 6, 9, 11, 12, 13, 16))),  # 9 pairs
    "curvature": ((2, 3, 4, 13), (5, 6, 9, 11, 12, 16)),  # 24 pairs
}
# family -> (pairs, pairs 2-FWL separates); the Latin row holds the orders
# 4-6, the three of order 8 and Z9 vs Z3 x Z3
FWL2_COUNTS = {"atlas": (26, 26), "cubic10": (210, 210), "csl": (45, 45), "latin": (7, 0)}


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
def families():
    return {"atlas": atlas_pairs(), "cubic10": cubic_pairs(), "latin": latin_square_pairs()}


@pytest.fixture(scope="module")
def separated(families):
    """family -> (pair count, kind -> set of the positions of separated pairs)"""
    out = {}
    for family, pairs in families.items():
        by_kind = {}
        for kind in KINDS:
            descriptor = Descriptor.parse(kind)
            verdicts = [distinguish_pair(g1, g2, descriptor) for g1, g2 in pairs]
            assert not any(v.wl_distinguishes for v in verdicts)
            by_kind[kind] = {i for i, v in enumerate(verdicts) if v.augmented_distinguishes}
        out[family] = (len(pairs), by_kind)
    return out


def test_exact_tag_marks_the_edge():
    # node 4 is adjacent to all others, so every edge at 4 has the whole graph
    # as its union subgraph, and 0, 1, 2 and 5 all have degree 2; but the other
    # neighbour of 0 (and 5) has degree 2, that of 1 (and 2) degree 3
    g = Graph(6, [(0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    tags = exact_tagger()(g)
    assert tags[0, 4] == tags[4, 0] == tags[4, 5] != tags[1, 4] == tags[2, 4]


def separated_by(pairs, tags):
    """The positions of the pairs whose graphs the reference refinement, its
    messages tagged by ``tags(g)`` in graph g, tells apart."""
    out = set()
    for i, pair in enumerate(pairs):
        first, second = reference_refine(pair, [tags(g) for g in pair])
        if first.histogram() != second.histogram():
            out.add(i)
    return out


@pytest.fixture(scope="module")
def tag_separated(families):
    """family -> (pairs the exact tag separates, or None, and kind -> (pairs
    its raw tag separates, pairs its weight separates)); each pair's tables
    are built once for both tags"""
    out = {}
    for family in EXACT_COUNTS:
        pairs = families[family]
        exact = (separated_by(pairs, functools.cache(exact_tagger()))
                 if EXACT_COUNTS[family] is not None else None)
        by_kind = {}
        for kind in TAG_KINDS:
            descriptor = Descriptor.parse(kind)
            tables = {id(g): coefficient_table(g, descriptor) for pair in pairs for g in pair}
            by_kind[kind] = tuple(separated_by(pairs, lambda g, tags=tags: tags(tables[id(g)]))
                                  for tags in (raw_tags, weight_tags))
        out[family] = (exact, by_kind)
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


@pytest.mark.parametrize("family", EXACT_COUNTS)
def test_tag_counts(separated, tag_separated, family):
    exact, by_kind = tag_separated[family]
    assert (exact if exact is None else len(exact)) == EXACT_COUNTS[family]
    column = list(EXACT_COUNTS).index(family)
    assert {kind: tuple(map(len, by_kind[kind])) for kind in TAG_KINDS} == {
        kind: counts[column] for kind, counts in TAG_COUNTS.items()}
    # the weight tags are the verdict's: each kind at its default agrees with it
    for kind in TAG_KINDS:
        descriptor = Descriptor.parse(kind)
        if descriptor == Descriptor(descriptor.kind):
            assert by_kind[kind][1] == separated[family][1][descriptor.kind], kind


@pytest.mark.parametrize("family", EXACT_COUNTS)
def test_each_step_only_loses_pairs(tag_separated, family):
    # exact tag -> raw value -> normalized weight: each step reads only what
    # the one before it keeps (up to rounding), so it can merge pairs, not split them
    exact, by_kind = tag_separated[family]
    for kind in TAG_KINDS:
        raw, weight = by_kind[kind]
        if kind in LOCAL_TAG_KINDS and exact is not None:
            assert raw <= exact, kind
        assert weight <= raw, kind


def test_curvature_reads_past_the_union_subgraph(tag_separated):
    # curvature's distances reach common neighbours outside the union
    # subgraph, so its raw tag separates a cubic pair the exact tag does not
    exact, by_kind = tag_separated["cubic10"]
    assert len(by_kind["curvature"][0] - exact) == 1


@pytest.mark.parametrize("family", EXACT_COUNTS)
def test_encodings_of_a_path_kind_separate_the_same_pairs(tag_separated, family):
    # no encoding of a path matrix gains or loses a pair against svd-sum, by
    # raw tag or by weight, on the atlas, cubic10 and Latin 4-6 families; the
    # order-9 Latin pair is where they part (test_order_nine_latin_squares)
    by_kind = tag_separated[family][1]
    for kind in PATH_KINDS:
        for encoding in Encoding:
            assert by_kind[f"{kind}:{encoding.value}"] == by_kind[f"{kind}:svd-sum"], (
                kind, encoding)


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


def test_order_eight_latin_squares():
    # the three abelian groups of order 8 pairwise: union-path, overlap,
    # minus, count-ne and laplacian separate each pair in 2 rounds, which
    # also shows that the graphs are not isomorphic; betweenness and
    # curvature separate none, and their raw multisets are equal
    pairs = order_eight_latin_pairs()
    assert [(g.num_nodes, len(g.edges)) for pair in pairs for g in pair] == [(64, 672)] * 6
    for kind in KINDS:
        verdicts = [distinguish_pair(g1, g2, Descriptor.parse(kind)) for g1, g2 in pairs]
        assert not any(v.wl_distinguishes for v in verdicts)
        if kind in ("betweenness", "curvature"):
            assert not any(v.augmented_distinguishes or v.raw_values_differ
                           for v in verdicts), kind
        else:
            assert [(v.augmented_distinguishes, v.rounds_used) for v in verdicts] == [
                (True, 2)] * 3, kind


def test_order_nine_latin_squares():
    # Z9 vs Z3 x Z3, 81 nodes and 972 edges each: the first pair that
    # union-path separates and count-ne and overlap-path do not, and the
    # first on which the encodings of one path kind differ.  A table either
    # separates the pair in 2 rounds, with differing raw multisets, or sees
    # equal raw multisets
    g1, g2 = (latin_square_graph(product_group_table(*orders)) for orders in ((9,), (3, 3)))
    assert [(g.num_nodes, len(g.edges)) for g in (g1, g2)] == [(81, 972)] * 2
    separating = {
        "union-path:svd-sum", "union-path:eigen-max", "laplacian:eigen-max",
        *(f"minus-path:{encoding.value}" for encoding in Encoding),
    }
    for kind in LOCAL_TAG_KINDS:
        verdict = distinguish_pair(g1, g2, Descriptor.parse(kind))
        assert not verdict.wl_distinguishes
        if kind in separating:
            assert (verdict.augmented_distinguishes, verdict.rounds_used,
                    verdict.raw_values_differ) == (True, 2, True), kind
        else:
            assert not (verdict.augmented_distinguishes or verdict.raw_values_differ), kind
    # degree 24: the cell estimate refuses curvature's table (ROADMAP item 10)
    with pytest.raises(DescriptorError, match=r"^edge \(75, 79\): .* bound of 600000 "):
        distinguish_pair(g1, g2, Descriptor("curvature"))


@pytest.mark.parametrize("verdict", CSL_BLOCKS)
def test_csl_classes(verdict):
    graphs = {r: csl_graph(r) for r in CSL_SKIPS}
    pairs = list(itertools.combinations(CSL_SKIPS, 2))
    if verdict == "1-WL":
        separated = {(a, b) for a, b in pairs if wl_distinguishable(graphs[a], graphs[b])}
    elif verdict == "exact":  # so no union-subgraph descriptor can separate more
        positions = separated_by([(graphs[a], graphs[b]) for a, b in pairs],
                                 functools.cache(exact_tagger()))
        separated = {pairs[i] for i in positions}
    else:
        descriptor = Descriptor.parse(verdict)
        separated = {(a, b) for a, b in pairs if distinguish_pair(
            graphs[a], graphs[b], descriptor).augmented_distinguishes}
    block = {r: i for i, skips in enumerate(CSL_BLOCKS[verdict]) for r in skips}
    assert sorted(block) == sorted(CSL_SKIPS)
    assert separated == {(a, b) for a, b in pairs if block[a] != block[b]}


def test_fwl2_reference(families):
    # the 2-FWL helper separates every atlas pair and no pair of relabelled
    # copies, and not the rook's graph from the Shrikhande graph, both SRG(16, 6, 2, 2)
    rng = random.Random(0)
    assert all(fwl2_separates(g1, g2) for g1, g2 in families["atlas"])
    for g in itertools.chain.from_iterable(families["atlas"] + families["cubic10"][:20]):
        assert not fwl2_separates(g, relabel(g, rng.sample(range(g.num_nodes), g.num_nodes)))
    assert not fwl2_separates(rook_graph_4x4(), shrikhande_graph())


def test_fwl2_column(families):
    # 2-FWL separates every atlas, cubic and CSL pair, and no Latin pair:
    # strongly regular graphs with equal parameters look alike to it.
    # union-path separates all 7 Latin pairs (test_latin_squares_beat_curvature
    # and the two tests after it) and misses 2 cubic and 28 CSL pairs
    # (COUNTS, CSL_BLOCKS), so it and 2-FWL, as strong as 3-WL, are incomparable
    latin = [*families["latin"], *order_eight_latin_pairs(), tuple(
        latin_square_graph(product_group_table(*orders)) for orders in ((9,), (3, 3)))]
    pairs = {"atlas": families["atlas"], "cubic10": families["cubic10"], "latin": latin,
             "csl": [(csl_graph(a), csl_graph(b))
                     for a, b in itertools.combinations(CSL_SKIPS, 2)]}
    assert {family: (len(pairs[family]), sum(fwl2_separates(*pair) for pair in pairs[family]))
            for family in FWL2_COUNTS} == FWL2_COUNTS

import random

import numpy as np
import pytest

from unionsub import wl
from unionsub.descriptors import CoefficientTable, Descriptor, coefficient_table
from unionsub.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    is_isomorphic_small,
    path_graph,
    random_graph,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
    two_triangles_graph,
)
from unionsub.wl import (
    _refine,
    augmented_refine,
    distinguish_pair,
    wl_distinguishable,
    wl_refine,
)

from helpers import reference_refine, relabel, weight_tags


def refinement_cases():
    """Seeded graphs, each with up to two isolated nodes; every third carries
    features of three values."""
    rng = random.Random(7)
    cases = []
    for i in range(45):
        n, isolated = rng.randint(1, 14), rng.randint(0, 2)
        edges = random_graph(n, rng.uniform(0.1, 0.6), rng).edges
        features = [[float(rng.randint(0, 2))] for _ in range(n + isolated)] if i % 3 == 0 else None
        cases.append(Graph(n + isolated, edges, features=features))
    return cases


CASES = refinement_cases()
TAG_KINDS = (Descriptor("union-path"), Descriptor("curvature"), Descriptor("count-ne"))


class TestPlainRefinement:
    def test_c6_single_color(self):
        assignment = wl_refine(cycle_graph(6))
        assert set(assignment.colors) == {0}
        assert assignment.rounds == 1

    def test_p3_degree_split(self):
        assignment = wl_refine(path_graph(3))
        assert assignment.colors[0] == assignment.colors[2] != assignment.colors[1]

    def test_star_two_colors(self):
        assignment = wl_refine(star_graph(4))
        assert len(set(assignment.colors)) == 2
        assert assignment.colors.count(assignment.colors[0]) == 1

    def test_features_seed_colors(self):
        g = Graph(3, [(0, 1), (1, 2)], features=[[1.0], [1.0], [2.0]])
        assignment = wl_refine(g)
        assert assignment.colors[0] != assignment.colors[2]


class TestDistinguishability:
    def test_c6_vs_triangles_not_wl_distinguishable(self):
        assert not wl_distinguishable(cycle_graph(6), two_triangles_graph())

    def test_rook_vs_shrikhande_not_wl_distinguishable(self):
        assert not wl_distinguishable(rook_graph_4x4(), shrikhande_graph())

    def test_k3_vs_p3(self):
        assert wl_distinguishable(complete_graph(3), path_graph(3))

    def test_sound_on_isomorphic_pairs(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_graph(8, 0.4, rng)
            perm = list(range(8))
            rng.shuffle(perm)
            assert not wl_distinguishable(g, relabel(g, perm))
            assert is_isomorphic_small(g, relabel(g, perm))


class TestAugmentedRefinement:
    def test_k3_single_color(self):
        g = complete_graph(3)
        coeffs = coefficient_table(g, Descriptor("union-path"))
        assignment = augmented_refine(g, coeffs)
        assert set(assignment.colors) == {0}

    def test_constant_tags_match_plain(self):
        # all normalized coefficients equal: augmentation adds nothing
        g = cycle_graph(6)
        coeffs = coefficient_table(g, Descriptor("union-path"))
        plain = wl_refine(g)
        augmented = augmented_refine(g, coeffs)
        assert plain.histogram() == augmented.histogram()

    def test_table_of_another_graph_raises(self):
        # K4's weights are 1/3 each, so path node 1's two pairs would sum to 2/3
        coeffs = coefficient_table(complete_graph(4), Descriptor("union-path"))
        with pytest.raises(GraphError, match="other edges"):
            augmented_refine(path_graph(4), coeffs)

    def test_refines_star_center_vs_leaves_consistently(self):
        g = star_graph(3)
        coeffs = coefficient_table(g, Descriptor("union-path"))
        assignment = augmented_refine(g, coeffs)
        assert assignment.colors[1] == assignment.colors[2] == assignment.colors[3]
        assert assignment.colors[0] != assignment.colors[1]


class TestVerdicts:
    # edge-transitive pairs: every normalized coefficient is 1/deg, so only
    # the raw values, which normalization removes, tell the graphs apart
    def test_c6_vs_triangles(self):
        verdict = distinguish_pair(cycle_graph(6), two_triangles_graph(), Descriptor("union-path"))
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert verdict.raw_values_differ

    def test_rook_vs_shrikhande(self):
        verdict = distinguish_pair(rook_graph_4x4(), shrikhande_graph(), Descriptor("union-path"))
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert verdict.raw_values_differ

    def test_identical_graphs(self):
        verdict = distinguish_pair(complete_graph(3), complete_graph(3), Descriptor("union-path"))
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert not verdict.raw_values_differ

    def test_wl_implies_augmented(self):
        rng = random.Random(2)
        seen_wl = 0
        for _ in range(20):
            g1 = random_graph(6, 0.4, rng)
            g2 = random_graph(6, 0.4, rng)
            verdict = distinguish_pair(g1, g2, Descriptor("union-path"))
            if verdict.wl_distinguishes:
                seen_wl += 1
                assert verdict.augmented_distinguishes
        assert seen_wl > 0

    def test_deterministic_under_relabeling(self):
        rng = random.Random(3)
        g1 = random_graph(7, 0.4, rng)
        g2 = random_graph(7, 0.4, rng)
        base = distinguish_pair(g1, g2, Descriptor("union-path"))
        for _ in range(5):
            perm = list(range(7))
            rng.shuffle(perm)
            relabeled = distinguish_pair(relabel(g1, perm), g2, Descriptor("union-path"))
            assert relabeled.wl_distinguishes == base.wl_distinguishes
            assert relabeled.augmented_distinguishes == base.augmented_distinguishes
            assert relabeled.raw_values_differ == base.raw_values_differ
            assert relabeled.histograms == base.histograms

    def test_verdict_json_shape(self):
        verdict = distinguish_pair(cycle_graph(6), two_triangles_graph(), Descriptor("union-path"))
        obj = verdict.to_json_obj()
        assert set(obj) == {"wl", "augmented", "raw", "rounds", "hist1", "hist2"}
        assert obj["wl"] is False and obj["augmented"] is False and obj["raw"] is True
        assert isinstance(obj["rounds"], int)
        assert all(len(item) == 2 for item in obj["hist1"])


class TestReferenceRefinement:
    """Every refinement entry point against helpers.reference_refine, which
    ranks tuple messages and runs the round that confirms a discrete
    partition."""

    def test_cases_cover_the_edge_cases(self):
        assert sum(0 in map(len, g.adjacency) for g in CASES) >= 10  # isolated nodes
        assert sum(len({tuple(row) for row in g.features.tolist()}) > 1 for g in CASES) >= 10
        curvature = Descriptor("curvature")
        negative = [g for g in CASES if (coefficient_table(g, curvature).weights < 0).any()]
        assert len(negative) >= 5  # negative tags
        discrete = [g for g in CASES if len(set(wl_refine(g).colors)) == g.num_nodes]
        assert sum(wl_refine(g).rounds > 0 for g in discrete) >= 5  # a round made it discrete

    def test_single_graphs(self):
        for g in CASES:
            assert wl_refine(g) == reference_refine([g])[0]
            for kind in TAG_KINDS:
                table = coefficient_table(g, kind)
                expected = reference_refine([g], [weight_tags(table)])[0]
                assert augmented_refine(g, table) == expected, kind

    def test_packing_keeps_adjacent_colors_apart(self):
        # node 0 hears (color 1, the highest tag) and node 2 (color 2, the lowest):
        # a span one short of the tags' range would pack both into one int
        g = Graph(4, [(0, 1), (2, 3)], features=[[0.0], [1.0], [0.0], [2.0]])
        table = CoefficientTable(g, np.zeros(2), np.array([0.75, 0.5, 0.25, 0.5]))
        assignment = augmented_refine(g, table)
        assert assignment == reference_refine([g], [weight_tags(table)])[0]
        assert assignment.colors[0] != assignment.colors[2]

    def test_two_graph_refinements(self):
        for pair in zip(CASES, CASES[1:]):
            assert _refine(pair) == reference_refine(pair)
            for kind in TAG_KINDS:
                tables = [coefficient_table(g, kind) for g in pair]
                expected = reference_refine(pair, [weight_tags(t) for t in tables])
                assert _refine(pair, tables) == expected, kind


class TestRefinementBound:
    """MAX_REFINE_STEPS admits exactly rounds x (nodes + pairs)."""

    @pytest.mark.parametrize("graphs", [
        [cycle_graph(6)],  # one round, not discrete
        [path_graph(9)],  # five rounds, symmetric classes
        # a spider with legs of 1, 2 and 3 edges has no automorphism: its partition
        # turns discrete, and the round that would confirm it is checked unrun
        [Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])],
        [path_graph(7), cycle_graph(7)],
    ])
    def test_bound_at_its_edge(self, monkeypatch, graphs):
        per_round = sum(g.num_nodes + 2 * g.num_edges for g in graphs)
        expected = reference_refine(graphs)
        rounds = expected[0].rounds
        monkeypatch.setattr(wl, "MAX_REFINE_STEPS", rounds * per_round)
        assert _refine(graphs) == expected
        monkeypatch.setattr(wl, "MAX_REFINE_STEPS", rounds * per_round - 1)
        message = f"^1-WL refinement: over {rounds * per_round - 1} nodes plus pairs to read$"
        with pytest.raises(GraphError, match=message):
            _refine(graphs)

    def test_spider_turns_discrete(self):
        # three rounds split the degree classes down to single nodes; the fourth
        # is the confirming round, counted unrun
        assignment = wl_refine(Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]))
        assert sorted(assignment.colors) == list(range(7))
        assert assignment.rounds == 4

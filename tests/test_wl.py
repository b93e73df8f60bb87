import random

import pytest

from unionsub.descriptors import Encoding, UNION_PATH_SVD, coefficient_table
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
    augmented_refine,
    distinguish_pair,
    wl_distinguishable,
    wl_refine,
)


class TestPlainRefinement:
    def test_c6_single_color(self):
        assignment = wl_refine(cycle_graph(6))
        assert set(assignment.colors) == {0}
        assert assignment.stable
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
        assignment = wl_refine(g, max_rounds=1)
        assert assignment.colors[0] != assignment.colors[2]

    def test_monotone_refinement_and_stabilization(self):
        rng = random.Random(0)
        for _ in range(20):
            g = random_graph(9, 0.35, rng)
            prev = 1
            for rounds in range(1, g.num_nodes + 1):
                assignment = wl_refine(g, max_rounds=rounds)
                classes = len(set(assignment.colors))
                assert classes >= prev
                prev = classes
            assert wl_refine(g).stable

    def test_max_rounds_validated(self):
        with pytest.raises(Exception):
            wl_refine(cycle_graph(3), max_rounds=0)


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
            assert not wl_distinguishable(g, g.relabel(perm))
            assert is_isomorphic_small(g, g.relabel(perm))


class TestAugmentedRefinement:
    def test_k3_single_color(self):
        g = complete_graph(3)
        coeffs = coefficient_table(g, UNION_PATH_SVD)
        assignment = augmented_refine(g, coeffs)
        assert set(assignment.colors) == {0}

    def test_constant_tags_match_plain(self):
        # all normalized coefficients equal: augmentation adds nothing
        g = cycle_graph(6)
        coeffs = coefficient_table(g, UNION_PATH_SVD)
        plain = wl_refine(g)
        augmented = augmented_refine(g, coeffs)
        assert plain.histogram() == augmented.histogram()

    def test_table_of_another_graph_raises(self):
        # K4's weights are 1/3 each, so path node 1's two pairs would sum to 2/3
        coeffs = coefficient_table(complete_graph(4), UNION_PATH_SVD)
        with pytest.raises(GraphError, match="other edges"):
            augmented_refine(path_graph(4), coeffs)

    def test_refines_star_center_vs_leaves_consistently(self):
        g = star_graph(3)
        coeffs = coefficient_table(g, UNION_PATH_SVD)
        assignment = augmented_refine(g, coeffs)
        assert assignment.colors[1] == assignment.colors[2] == assignment.colors[3]
        assert assignment.colors[0] != assignment.colors[1]


class TestVerdicts:
    # edge-transitive pairs: every normalized coefficient is 1/deg, so only
    # the raw values, which normalization removes, tell the graphs apart
    def test_c6_vs_triangles(self):
        verdict = distinguish_pair(
            cycle_graph(6), two_triangles_graph(), UNION_PATH_SVD, Encoding.SVD_SUM
        )
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert verdict.raw_values_differ

    def test_rook_vs_shrikhande(self):
        verdict = distinguish_pair(
            rook_graph_4x4(), shrikhande_graph(), UNION_PATH_SVD, Encoding.SVD_SUM
        )
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert verdict.raw_values_differ

    def test_identical_graphs(self):
        verdict = distinguish_pair(
            complete_graph(3), complete_graph(3), UNION_PATH_SVD, Encoding.SVD_SUM
        )
        assert not verdict.wl_distinguishes
        assert not verdict.augmented_distinguishes
        assert not verdict.raw_values_differ

    def test_wl_implies_augmented(self):
        rng = random.Random(2)
        seen_wl = 0
        for _ in range(20):
            g1 = random_graph(6, 0.4, rng)
            g2 = random_graph(6, 0.4, rng)
            verdict = distinguish_pair(g1, g2, UNION_PATH_SVD, Encoding.SVD_SUM)
            if verdict.wl_distinguishes:
                seen_wl += 1
                assert verdict.augmented_distinguishes
        assert seen_wl > 0

    def test_deterministic_under_relabeling(self):
        rng = random.Random(3)
        g1 = random_graph(7, 0.4, rng)
        g2 = random_graph(7, 0.4, rng)
        base = distinguish_pair(g1, g2, UNION_PATH_SVD, Encoding.SVD_SUM)
        for _ in range(5):
            perm = list(range(7))
            rng.shuffle(perm)
            relabeled = distinguish_pair(
                g1.relabel(perm), g2, UNION_PATH_SVD, Encoding.SVD_SUM
            )
            assert relabeled.wl_distinguishes == base.wl_distinguishes
            assert relabeled.augmented_distinguishes == base.augmented_distinguishes
            assert relabeled.raw_values_differ == base.raw_values_differ
            assert relabeled.histograms == base.histograms

    def test_verdict_json_shape(self):
        verdict = distinguish_pair(
            cycle_graph(6), two_triangles_graph(), UNION_PATH_SVD, Encoding.SVD_SUM
        )
        obj = verdict.to_json_obj()
        assert set(obj) == {"wl", "augmented", "raw", "rounds", "hist1", "hist2"}
        assert obj["wl"] is False and obj["augmented"] is False and obj["raw"] is True
        assert isinstance(obj["rounds"], int)
        assert all(len(item) == 2 for item in obj["hist1"])

import itertools
import random

import networkx as nx
import pytest

from unionsub.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    is_isomorphic_small,
    path_graph,
    random_graph,
    two_triangles_graph,
)
from unionsub.substructure import (
    classify_edge_types,
    overlap_isomorphic,
    overlap_subgraph,
    union_isomorphic,
    union_minus_subgraph,
    union_subgraph,
)

from helpers import local_index


class TestUnionSubgraph:
    def test_k3_whole_graph(self):
        s = union_subgraph(complete_graph(3), 0, 1)
        assert s.local == complete_graph(3)

    def test_c6_gives_path4(self):
        s = union_subgraph(cycle_graph(6), 0, 1)
        assert s.parent_ids == (0, 1, 2, 5)
        assert is_isomorphic_small(s.local, path_graph(4))

    def test_k2(self):
        s = union_subgraph(complete_graph(2), 0, 1)
        assert s.local == complete_graph(2)

    def test_requires_edge(self):
        with pytest.raises(GraphError):
            union_subgraph(cycle_graph(6), 0, 2)

    def test_contains_focal_edge_and_connected(self):
        rng = random.Random(0)
        for _ in range(30):
            g = random_graph(9, 0.3, rng)
            for v, u in g.edges:
                s = union_subgraph(g, v, u)
                assert s.local.has_edge(local_index(s, v), local_index(s, u))
                from unionsub.graphs import is_connected

                assert is_connected(s.local)


class TestOverlapSubgraph:
    def test_k3(self):
        s = overlap_subgraph(complete_graph(3), 0, 1)
        assert s.local == complete_graph(3)

    def test_c6_bare_edge(self):
        s = overlap_subgraph(cycle_graph(6), 0, 1)
        assert s.parent_ids == (0, 1)
        assert s.local == complete_graph(2)

    def test_oracle_set_intersection(self):
        rng = random.Random(1)
        from unionsub.graphs import closed_neighborhood, induced_subgraph

        for _ in range(30):
            g = random_graph(8, 0.4, rng)
            for v, u in g.edges:
                s = overlap_subgraph(g, v, u)
                nodes = closed_neighborhood(g, v) & closed_neighborhood(g, u)
                assert set(s.parent_ids) == nodes
                # edges in both closed-neighborhood subgraphs
                sv = set(induced_subgraph(g, closed_neighborhood(g, v)).parent_edges())
                su = set(induced_subgraph(g, closed_neighborhood(g, u)).parent_edges())
                assert set(s.parent_edges()) == sv & su


class TestUnionMinusSubgraph:
    def test_k3(self):
        s = union_minus_subgraph(complete_graph(3), 0, 1)
        assert s.local == complete_graph(3)

    def test_drops_cross_exclusive_edge(self):
        # v-u with exclusive neighbors c (of v) and d (of u), plus edge (c, d)
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        minus = union_minus_subgraph(g, 0, 1)
        union = union_subgraph(g, 0, 1)
        assert (2, 3) in union.parent_edges()
        assert (2, 3) not in minus.parent_edges()

    def test_oracle_graph_union(self):
        rng = random.Random(5)
        from unionsub.graphs import closed_neighborhood, induced_subgraph

        for _ in range(30):
            g = random_graph(9, 0.4, rng)
            for v, u in g.edges:
                s = union_minus_subgraph(g, v, u)
                sv = induced_subgraph(g, closed_neighborhood(g, v))
                su = induced_subgraph(g, closed_neighborhood(g, u))
                assert set(s.parent_ids) == set(sv.parent_ids) | set(su.parent_ids)
                assert set(s.parent_edges()) == set(sv.parent_edges()) | set(su.parent_edges())

    def test_nesting_chain(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(9, 0.35, rng)
            for v, u in g.edges:
                ov = set(overlap_subgraph(g, v, u).parent_edges())
                mn = set(union_minus_subgraph(g, v, u).parent_edges())
                un = set(union_subgraph(g, v, u).parent_edges())
                assert ov <= mn <= un
                assert set(union_minus_subgraph(g, v, u).parent_ids) == set(
                    union_subgraph(g, v, u).parent_ids
                )

    def test_union_diameter_at_most_3(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(10, 0.3, rng)
            for v, u in g.edges:
                s = union_subgraph(g, v, u)
                h = nx.empty_graph(s.num_nodes)
                h.add_edges_from(s.local.edges)
                assert nx.diameter(h) <= 3


def test_local_subgraphs_carry_parent_features():
    features = [[float(i), 10.0 * i] for i in range(4)]
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], features)
    for build in (union_subgraph, overlap_subgraph, union_minus_subgraph):
        s = build(g, 0, 1)
        assert s.local.features.tolist() == [features[p] for p in s.parent_ids]


class TestEdgeTypePartition:
    def test_common_neighbor_only_spokes(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        part = classify_edge_types(g, 0, 1)
        assert not (part.e1 | part.e2 | part.e3 | part.e4)
        assert part.spokes == {(0, 1), (0, 2), (1, 2)}

    def test_cross_exclusive(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        part = classify_edge_types(g, 0, 1)
        assert part.e3 == {(2, 3)} and not (part.e1 | part.e2 | part.e4)

    def test_same_side_exclusive(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        part = classify_edge_types(g, 0, 1)
        assert part.e4 == {(2, 3)} and not (part.e1 | part.e2 | part.e3)

    def test_common_common_and_common_exclusive(self):
        # a, b common; c exclusive to v; edges (a,b) E1 and (a,c) E2
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (2, 3), (2, 4)])
        part = classify_edge_types(g, 0, 1)
        assert (2, 3) in part.e1
        assert (2, 4) in part.e2

    def test_partition_covers_union_subgraph(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(9, 0.4, rng)
            for v, u in g.edges:
                part = classify_edge_types(g, v, u)
                union_edges = set(union_subgraph(g, v, u).parent_edges())
                pieces = [part.e1, part.e2, part.e3, part.e4, part.spokes]
                assert part.all_classified() == union_edges
                for i in range(len(pieces)):
                    for j in range(i + 1, len(pieces)):
                        assert not (pieces[i] & pieces[j])


def reference_graphs():
    """Seeded G(n, p) graphs, each with isolated nodes and a hub joined to
    about 80% of the G(n, p) nodes, as networkx graphs."""
    rng = random.Random(7)
    graphs = []
    for _ in range(12):
        n = rng.randint(6, 14)
        h = nx.gnp_random_graph(n, rng.uniform(0.1, 0.4), seed=rng.randrange(1 << 30))
        h.add_nodes_from(range(n, n + rng.randint(1, 3)))  # isolated
        hub = h.number_of_nodes()
        h.add_edges_from((hub, x) for x in range(n) if rng.random() < 0.8)
        graphs.append(h)
    return graphs


REFERENCE_GRAPHS = reference_graphs()
# side pair (c: in both closed neighbourhoods, v / u: in one) -> edge class
EDGE_CLASSES = {"cc": "e1", "cv": "e2", "cu": "e2", "uv": "e3", "uu": "e4", "vv": "e4"}


class TestAgainstNetworkx:
    """The local subgraphs and the E1-E4 partition against node sets taken
    from networkx neighbourhoods and the edges networkx induces on them."""

    @staticmethod
    def edge_set(h):
        return {tuple(sorted(e)) for e in h.edges()}

    @pytest.fixture(params=range(len(REFERENCE_GRAPHS)))
    def case(self, request):
        h = REFERENCE_GRAPHS[request.param]
        return h, Graph(h.number_of_nodes(), list(h.edges()))

    def test_reference_graphs_have_isolated_nodes_and_a_hub(self):
        for h in REFERENCE_GRAPHS:
            degrees = [d for _, d in h.degree()]
            assert min(degrees) == 0 and degrees[-1] == max(degrees)

    def test_local_subgraphs(self, case):
        h, g = case
        for v, u in self.edge_set(h):
            nv, nu = {v, *h[v]}, {u, *h[u]}
            expected = {
                union_subgraph: (nv | nu, self.edge_set(h.subgraph(nv | nu))),
                overlap_subgraph: (nv & nu, self.edge_set(h.subgraph(nv & nu))),
                union_minus_subgraph: (
                    nv | nu, self.edge_set(nx.compose(h.subgraph(nv), h.subgraph(nu)))),
            }
            for build, (nodes, edges) in expected.items():
                s = build(g, v, u)
                assert s.parent_ids == tuple(sorted(nodes))
                assert set(s.parent_edges()) == edges and s.num_edges == len(edges)

    def test_edge_types(self, case):
        h, g = case
        for v, u in self.edge_set(h):
            nv, nu = {v, *h[v]}, {u, *h[u]}

            def side(x):
                return "c" if x in nv and x in nu else "v" if x in nv else "u"

            expected = {name: set() for name in ("e1", "e2", "e3", "e4", "spokes")}
            for a, b in self.edge_set(h.subgraph(nv | nu)):
                if {a, b} & {v, u}:
                    expected["spokes"].add((a, b))
                else:
                    expected[EDGE_CLASSES["".join(sorted(side(a) + side(b)))]].add((a, b))
            part = classify_edge_types(g, v, u)
            assert {name: getattr(part, name) for name in expected} == expected

    def test_non_edge_raises(self, case):
        h, g = case
        v, u = next(e for e in itertools.combinations(h.nodes, 2) if not h.has_edge(*e))
        for build in (union_subgraph, overlap_subgraph, union_minus_subgraph,
                      classify_edge_types):
            with pytest.raises(GraphError, match="is not an edge"):
                build(g, v, u)


class TestNeighborhoodIsomorphism:
    def test_k3_nodes_union_isomorphic(self):
        assert union_isomorphic(complete_graph(3), 0, complete_graph(3), 1)

    def test_vertex_transitive_c5(self):
        c5 = cycle_graph(5)
        assert union_isomorphic(c5, 0, c5, 2)

    def test_c6_vs_triangles_differ(self):
        c6, tt = cycle_graph(6), two_triangles_graph()
        assert not union_isomorphic(c6, 0, tt, 0)
        assert not overlap_isomorphic(c6, 0, tt, 0)

    def test_degree_mismatch_is_false(self):
        assert not union_isomorphic(path_graph(3), 0, path_graph(3), 1)
        assert not overlap_isomorphic(star_graph_4(), 0, path_graph(3), 1)

    def test_bound_enforced(self):
        # each union subgraph at the centre is the whole 13-node star
        big = star_graph_4(leaves=12)
        with pytest.raises(GraphError, match="bound is 12 nodes"):
            union_isomorphic(big, 0, big, 0)

    def test_hub_with_small_overlaps(self):
        # 11 closed-neighbourhood nodes, but every overlap subgraph has 2
        big = star_graph_4(leaves=10)
        assert overlap_isomorphic(big, 0, big, 0)

    def test_overlap_without_union_fixture(self):
        # center of P3 vs an interior node of P4
        p3, p4 = path_graph(3), path_graph(4)
        assert overlap_isomorphic(p3, 1, p4, 1)
        assert not union_isomorphic(p3, 1, p4, 1)

    def test_union_implies_overlap_random_scan(self):
        rng = random.Random(5)
        strict = 0
        checked = 0
        for _ in range(60):
            g1 = random_graph(rng.randint(3, 7), rng.uniform(0.3, 0.7), rng)
            g2 = random_graph(rng.randint(3, 7), rng.uniform(0.3, 0.7), rng)
            for i in range(g1.num_nodes):
                for j in range(g2.num_nodes):
                    if g1.degree(i) == 0 or g2.degree(j) == 0:
                        continue
                    checked += 1
                    if union_isomorphic(g1, i, g2, j):
                        assert overlap_isomorphic(g1, i, g2, j)
                    elif overlap_isomorphic(g1, i, g2, j):
                        strict += 1
        assert checked >= 500
        assert strict >= 1


    @pytest.mark.parametrize("test, local", [
        (union_isomorphic, union_subgraph), (overlap_isomorphic, overlap_subgraph),
    ], ids=["union", "overlap"])
    def test_matches_bijection_oracle(self, test, local):
        # every bijection N(i) -> N(j) tried, local subgraphs compared by networkx
        def as_nx(sub):
            h = nx.empty_graph(sub.num_nodes)
            h.add_edges_from(sub.local.edges)
            return h

        def oracle(g1, i, g2, j):
            left, right = g1.neighbors(i), g2.neighbors(j)
            if len(left) != len(right):
                return False
            iso = [[nx.is_isomorphic(as_nx(local(g1, i, v)), as_nx(local(g2, j, w)))
                    for w in right] for v in left]
            return any(all(iso[k][w] for k, w in enumerate(perm))
                       for perm in itertools.permutations(range(len(right))))

        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for trial in range(40):
            g1 = random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.6), rng)
            if trial % 2:
                perm = list(range(g1.num_nodes))
                rng.shuffle(perm)
                g2 = g1.relabel(perm)
            else:
                g2 = random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.6), rng)
            for i in range(g1.num_nodes):
                for j in range(g2.num_nodes):
                    if max(g1.degree(i), g2.degree(j)) > 5:  # closed neighbourhoods <= 6
                        continue
                    expected = oracle(g1, i, g2, j)
                    assert test(g1, i, g2, j) == expected
                    outcomes[expected] += 1
        assert min(outcomes.values()) >= 100

def star_graph_4(leaves=4):
    from unionsub.graphs import star_graph

    return star_graph(leaves)

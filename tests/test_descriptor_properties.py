"""What the scalar encodings reduce to, pinned on seeded random graphs and
on every union-subgraph type with at most 7 nodes.

The Laplacian L = D - A of an edge's union subgraph is positive
semidefinite, so its singular values sum to its trace, twice the local edge
count; and every row of L sums to 0, so its matrix sum is 0 and every
non-isolated node's normalization falls back to uniform weights.

No scalar encoding is injective on union subgraphs: the atlas test counts
the pairs of types that each one merges.
"""

import itertools
import math
import random
import warnings
from collections import Counter

import networkx as nx
import pytest

from unionsub.descriptors import (
    COUNT_NE, LAPLACIAN_SVD, UNION_PATH_SVD, Encoding, coefficient_table,
    local_descriptor_values,
)
from unionsub.graphs import Graph, complete_graph, cycle_graph, random_graph, star_graph
from unionsub.substructure import union_subgraph
from unionsub.wl import COEFF_QUANT_SCALE


# 60 draws of G(n, p), n in 6..30 and p in 0.1..0.5: 2,797 edges, 54 isolated nodes
_rng = random.Random(0)
GRAPHS = [random_graph(_rng.randint(6, 30), _rng.uniform(0.1, 0.5), _rng) for _ in range(60)]


def test_laplacian_svd_sum_is_twice_the_local_edge_count():
    # eigvalsh rounds the spectrum, so the sum is exact only as the verdict
    # quantizes it; unquantized it is within a few units in the last place
    for g in GRAPHS:
        table = coefficient_table(g, LAPLACIAN_SVD, Encoding.SVD_SUM)
        for (v, u), value in zip(g.edges, table.values.tolist()):
            twice = 2 * union_subgraph(g, v, u).num_edges
            assert round(value * COEFF_QUANT_SCALE) == twice * COEFF_QUANT_SCALE
            assert math.isclose(value, twice, rel_tol=1e-14)


def test_laplacian_matrix_sum_is_zero_and_every_node_falls_back():
    for g in GRAPHS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = coefficient_table(g, LAPLACIAN_SVD, Encoding.MATRIX_SUM)
        assert table.values.tolist() == [0.0] * g.num_edges
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, f"coefficients around node {v} sum to ~0; "
                             "falling back to uniform weights")
            for v, row in enumerate(g.adjacency) if row
        ]
        assert table.weights.tolist() == [1.0 / len(row) for row in g.adjacency for _ in row]


def union_subgraph_types():
    """Every connected atlas graph with an edge (v, u) whose N[v] | N[u] is
    all of it, with the first such edge: that edge's union subgraph is the
    whole graph, so these are the union-subgraph types on 2 to 7 nodes."""
    types = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < 2 or not nx.is_connected(h):
            continue
        g = Graph(n, list(h.edges()))
        edge = next((e for e in g.edges if len({*e, *h[e[0]], *h[e[1]]}) == n), None)
        if edge is not None:
            types.append((g, edge))
    return types


TYPES = union_subgraph_types()


def quantized(g, edge, kind, encoding):
    value = float(local_descriptor_values(g, [edge], kind, encoding)[0])
    return round(value * COEFF_QUANT_SCALE)


def test_union_subgraph_types_per_size():
    assert Counter(g.num_nodes for g, _ in TYPES) == {2: 1, 3: 2, 4: 6, 5: 19, 6: 96, 7: 670}


@pytest.mark.parametrize("kind, encoding, distinct, colliding, same_size", [
    (UNION_PATH_SVD, Encoding.SVD_SUM, 764, 40, 13),
    (UNION_PATH_SVD, Encoding.EIGEN_MAX, 759, 44, 24),
    (UNION_PATH_SVD, Encoding.MATRIX_SUM, 40, 20_658, 12_641),
    (COUNT_NE, Encoding.SVD_SUM, 41, 29_636, 29_636),
    (LAPLACIAN_SVD, Encoding.SVD_SUM, 21, 35_140, 29_636),
], ids=["path-svd-sum", "path-eigen-max", "path-matrix-sum", "count-ne", "laplacian-svd-sum"])
def test_scalar_encodings_merge_types(kind, encoding, distinct, colliding, same_size):
    # pairs of the 794 types whose values are equal after the verdict's
    # quantization, in all and among those with the same (nodes, edges);
    # 29,636 of the 314,821 pairs share (nodes, edges)
    values = [quantized(g, edge, kind, encoding) for g, edge in TYPES]
    keyed = [(x, g.num_nodes, g.num_edges) for x, (g, _) in zip(values, TYPES)]

    def pairs(keys):
        return sum(math.comb(c, 2) for c in Counter(keys).values())

    assert len(set(values)) == distinct
    assert pairs(values) == colliding
    assert pairs(keyed) == same_size


def test_svd_sum_witnesses_collide_only_after_quantization():
    def raw(g, edge):
        return float(local_descriptor_values(g, [edge], UNION_PATH_SVD, Encoding.SVD_SUM)[0])

    # C4 and K5 both read 8: path-matrix eigenvalues 4, 0, -2, -2 and 4, -1, -1, -1, -1
    c4, k5 = raw(cycle_graph(4), (0, 1)), raw(complete_graph(5), (0, 1))
    assert (c4.hex(), k5.hex()) == ("0x1.0000000000001p+3", "0x1.fffffffffffffp+2")
    # the 4-leaf star and K7 without two disjoint edges: the last bits depend
    # on the node order (the atlas's star reads ...acf8p+3 too)
    k7_minus = Graph(7, [e for e in itertools.combinations(range(7), 2)
                         if e not in {(0, 4), (3, 5)}])
    star, dense = raw(star_graph(4), (0, 1)), raw(k7_minus, (0, 1))
    assert (star.hex(), dense.hex()) == ("0x1.a6c15a230acf9p+3", "0x1.a6c15a230acf8p+3")
    for a, b in ((c4, k5), (star, dense)):
        assert round(a * COEFF_QUANT_SCALE) == round(b * COEFF_QUANT_SCALE)

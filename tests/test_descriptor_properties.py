"""What the scalar encodings reduce to, pinned on seeded random graphs.

The Laplacian L = D - A of an edge's union subgraph is positive
semidefinite, so its singular values sum to its trace, twice the local edge
count; and every row of L sums to 0, so its matrix sum is 0 and every
non-isolated node's normalization falls back to uniform weights.
"""

import math
import random
import warnings

from unionsub.descriptors import LAPLACIAN_SVD, Encoding, coefficient_table
from unionsub.graphs import random_graph
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

"""Union-subgraph structural coefficients for graph edges.

Builds per-edge local substructures (overlap / union-minus / union
subgraphs), encodes them through shortest-path matrices and singular-value
sums, compares against rival descriptors, verifies expressiveness against
1-WL color refinement, and injects the coefficients into toy message-passing
layers, where Trans(coefficient) scales each message with no second
normalization.  Injection into Transformer models is not reproduced.
"""

from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    Subgraph,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_isomorphic_small,
    parse_graph,
    path_graph,
    rook_graph_4x4,
    shrikhande_graph,
    star_graph,
    two_triangles_graph,
)
from .substructure import (
    EdgeTypePartition,
    classify_edge_types,
    overlap_isomorphic,
    overlap_subgraph,
    union_isomorphic,
    union_minus_subgraph,
    union_subgraph,
)
from .descriptors import (
    BETWEENNESS,
    COUNT_NE,
    LAPLACIAN_SVD,
    MINUS_PATH_SVD,
    OVERLAP_PATH_SVD,
    RICCI_CURVATURE,
    UNION_PATH_SVD,
    CoefficientTable,
    Descriptor,
    DescriptorError,
    Encoding,
    coefficient_table,
    cycle_count,
    encode_matrix,
    path_matrix,
    reconstruct_subgraph,
)
from .wl import (
    ColorAssignment,
    DistinguishVerdict,
    augmented_refine,
    distinguish_pair,
    wl_distinguishable,
    wl_refine,
)

__version__ = "0.1.0"

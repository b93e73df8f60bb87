"""Union-subgraph structural coefficients for graph edges.

Per-edge union subgraphs and their overlap and union-minus rivals, encoded
through shortest-path matrices into coefficient tables beside rival
descriptors; 1-WL verdicts over the tables, and toy message-passing layers
that scale each message by its coefficient.  A ``Descriptor`` is a kind and
its one parameter: ``Descriptor("count-ne", lam=1)``, ``.parse("count-ne:1")``.
Injection into Transformer models is not reproduced.
"""

from .graphs import (
    Graph,
    GraphError,
    GraphParseError,
    Subgraph,
    complete_graph,
    cycle_graph,
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

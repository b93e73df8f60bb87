"""Single-edge and subgraph-position lookups that only the tests need."""

from unionsub.descriptors import Encoding, local_descriptor_values, ricci_curvature
from unionsub.graphs import GraphError


def edge_descriptor_value(g, v, u, kind, encoding=Encoding.SVD_SUM):
    """Raw descriptor value of one edge, computed as coefficient_table does."""
    if kind.kind == "curvature":
        return ricci_curvature(g, v, u, kind.alpha)
    if not g.has_edge(v, u):
        raise GraphError(f"({v}, {u}) is not an edge")
    return float(local_descriptor_values(g, [(v, u)], kind, encoding)[0])


def local_index(sub, parent_id):
    """Position of a parent node id among a Subgraph's local nodes."""
    return sub.parent_ids.index(parent_id)

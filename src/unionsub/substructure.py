"""Per-edge local substructures and neighborhood isomorphism tests.

For an edge (v, u): the overlap subgraph induces on the intersection of the
two closed neighborhoods, the union subgraph on their union, and the
union-minus subgraph is the union subgraph without its cross-exclusive edges
(the graph union of the two closed-neighborhood subgraphs, which misses
them).  Each is a view of the member routine every coefficient table uses,
descriptors.local_members, on a one-edge chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import Descriptor, local_members
from .graphs import Graph, GraphError, Subgraph, is_isomorphic_small


def _view(g, v, u, kind):
    """The local subgraph of the edge (v, u) that a table of ``kind`` reads,
    with parent ids ascending and the parent's feature rows."""
    if not g.has_edge(v, u):
        raise GraphError(f"({v}, {u}) is not an edge")
    indptr, nbr = g.csr
    # a one-edge chunk: the member keys are the node ids, and at, pos local ids
    ids, _, _, at, pos = local_members(indptr, np.diff(indptr), nbr, np.array([[v, u]]), kind)
    arcs = np.column_stack((at, pos))[at < pos]
    return Subgraph(Graph(len(ids), arcs.tolist(), g.features[ids]), ids.tolist())


def union_subgraph(g, v, u):
    """Induced subgraph on the union of the closed neighborhoods of v and u."""
    return _view(g, v, u, Descriptor("union-path"))


def overlap_subgraph(g, v, u):
    """Induced subgraph on N[v] & N[u]: the graph intersection of the
    closed-neighborhood subgraphs of v and u."""
    return _view(g, v, u, Descriptor("overlap-path"))


def union_minus_subgraph(g, v, u):
    """The union subgraph without its cross-exclusive (E3) edges: the graph
    union of the closed-neighborhood subgraphs of v and u, which keeps an
    edge only if both its ends lie in N[v] or both in N[u]."""
    return _view(g, v, u, Descriptor("minus-path"))


@dataclass(frozen=True)
class EdgeTypePartition:
    """The four neighbor-edge classes of an edge's closed neighborhood.

    e1: common-common, e2: common-exclusive, e3: cross-exclusive,
    e4: same-side exclusive.  Edges incident to v or u (including (v, u)
    itself) are reported separately as spokes.
    """

    e1: frozenset
    e2: frozenset
    e3: frozenset
    e4: frozenset
    spokes: frozenset


def classify_edge_types(g, v, u):
    """Partition the union subgraph's edges into E1..E4 plus spokes: the
    common nodes are the overlap subgraph's, and E3 is what union-minus drops."""
    union = union_subgraph(g, v, u).parent_edges()
    common = set(overlap_subgraph(g, v, u).parent_ids)
    kept = set(union_minus_subgraph(g, v, u).parent_edges())
    e1, e2, e3, e4, spokes = set(), set(), set(), set(), set()
    for a, b in union:
        if v in (a, b) or u in (a, b):
            spokes.add((a, b))
        elif (a, b) not in kept:  # both exclusive, on opposite sides
            e3.add((a, b))
        elif a in common and b in common:
            e1.add((a, b))
        elif a in common or b in common:
            e2.add((a, b))
        else:
            e4.add((a, b))
    return EdgeTypePartition(
        frozenset(e1), frozenset(e2), frozenset(e3), frozenset(e4), frozenset(spokes)
    )


# ---------------------------------------------------------------------------
# Union / overlap isomorphism of node neighborhoods
# ---------------------------------------------------------------------------

def _neighborhood_isomorphic(g1, i, g2, j, local_subgraph):
    """Shared engine: exists a bijection g: Ñ(i)→Ñ(j) with g(i)=j such that
    local_subgraph(g1, i, v) ≅ local_subgraph(g2, j, g(v)) for every v ∈ N(i).

    Isomorphism is an equivalence relation, so matching each neighbor of i to
    the first unused isomorphic one of j finds such a bijection whenever one
    exists.  The only bound is is_isomorphic_small's on each local subgraph.
    """
    ni, nj = g1.neighbors(i), g2.neighbors(j)
    if len(ni) != len(nj):
        return False
    unused = [local_subgraph(g2, j, w) for w in nj]
    for v in ni:
        sub = local_subgraph(g1, i, v)
        for k, other in enumerate(unused):
            if is_isomorphic_small(sub, other):
                del unused[k]
                break
        else:
            return False
    return True


def union_isomorphic(g1, i, g2, j):
    """Neighborhood equivalence through per-neighbor union subgraphs."""
    return _neighborhood_isomorphic(g1, i, g2, j, union_subgraph)


def overlap_isomorphic(g1, i, g2, j):
    """Neighborhood equivalence through per-neighbor overlap subgraphs."""
    return _neighborhood_isomorphic(g1, i, g2, j, overlap_subgraph)

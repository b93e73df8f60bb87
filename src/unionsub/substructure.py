"""Per-edge local substructures and neighborhood isomorphism tests.

For an edge (v, u): the overlap subgraph induces on the intersection of the
two closed neighborhoods, the union subgraph on their union, and the
union-minus subgraph is the union subgraph without its cross-exclusive edges
(the graph union of the two closed-neighborhood subgraphs, which misses
them).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    GraphError,
    Subgraph,
    closed_neighborhood,
    induced_subgraph,
    is_isomorphic_small,
)


def _require_edge(g, v, u):
    if not g.has_edge(v, u):
        raise GraphError(f"({v}, {u}) is not an edge")


def union_subgraph(g, v, u):
    """Induced subgraph on the union of the closed neighborhoods of v and u."""
    _require_edge(g, v, u)
    return induced_subgraph(g, closed_neighborhood(g, v) | closed_neighborhood(g, u))


def overlap_subgraph(g, v, u):
    """Induced subgraph on N[v] & N[u]: the graph intersection of the
    closed-neighborhood subgraphs of v and u."""
    _require_edge(g, v, u)
    return induced_subgraph(g, closed_neighborhood(g, v) & closed_neighborhood(g, u))


def union_minus_subgraph(g, v, u):
    """The union subgraph without its cross-exclusive (E3) edges: the graph
    union of the closed-neighborhood subgraphs of v and u."""
    s = union_subgraph(g, v, u)
    cross, ids = classify_edge_types(g, v, u).e3, s.parent_ids
    kept = [(i, j) for i, j in s.local.edges if (ids[i], ids[j]) not in cross]
    return Subgraph(Graph(s.num_nodes, kept, s.local.features), ids)


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

    def all_classified(self):
        return self.e1 | self.e2 | self.e3 | self.e4 | self.spokes


def classify_edge_types(g, v, u):
    """Partition the union subgraph's edges into E1..E4 plus spokes."""
    _require_edge(g, v, u)
    nv = closed_neighborhood(g, v)
    nu = closed_neighborhood(g, u)
    common = nv & nu
    e1, e2, e3, e4, spokes = set(), set(), set(), set(), set()
    for a, b in union_subgraph(g, v, u).parent_edges():
        if v in (a, b) or u in (a, b):
            spokes.add((a, b))
        elif a in common and b in common:
            e1.add((a, b))
        elif (a in common) != (b in common):
            e2.add((a, b))
        elif (a in nv) != (b in nv):  # both exclusive, on opposite sides
            e3.add((a, b))
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
    ni = closed_neighborhood(g1, i)
    nj = closed_neighborhood(g2, j)
    if len(ni) != len(nj):
        return False
    unused = [local_subgraph(g2, j, w) for w in sorted(nj - {j})]
    for v in sorted(ni - {i}):
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

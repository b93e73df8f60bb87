"""Frozen witness fixtures found by search (see tests for the assertions).

Each fixture is a realizable union subgraph: node 0 and node 1 are the
adjacent focal pair (v, u) and every node lies in the union of their closed
neighborhoods, so the graph equals its own union subgraph for edge (0, 1).
"""

from .graphs import Graph

FOCAL_EDGE = (0, 1)

# Betweenness misses the size change: adding the exclusive-exclusive edge
# (3, 4) on u's side leaves the shortest paths through (0, 1) untouched,
# so edge betweenness of the focal edge is 6.0 in both graphs while the
# path-matrix coefficient differs.
SIZE_AWARENESS_WITHOUT_E4 = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
SIZE_AWARENESS_WITH_E4 = Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4), (3, 4)])

# Equal node and edge counts (so equal count-ne) but non-isomorphic:
# a star versus a double broom.  The path-matrix coefficient separates them.
CONNECTIVITY_AWARENESS_A = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
CONNECTIVITY_AWARENESS_B = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])

# Eight-node case-study fixture.  Roles: v=0, u=1; common neighbors a=2,
# b=3; v-exclusive c=4, e=5; u-exclusive d=6, f=7.  Present comparison
# edges: (a,b) common-common, (a,d) common-exclusive, (d,e) cross-exclusive.
# The same-side edge (d,f) is absent; adding it is the fourth comparison.
CASE_STUDY_GRAPH = Graph(
    8,
    [
        (0, 1),
        (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 3), (1, 6), (1, 7),
        (2, 3),   # E1: common-common
        (2, 6),   # E2: common-exclusive
        (5, 6),   # E3: cross-exclusive
        (2, 4),   # extra E2 edge balancing the deltas
    ],
)
CASE_STUDY_EDGE_BY_TYPE = {
    "e1": (2, 3),
    "e2": (2, 6),
    "e3": (5, 6),
    "e4": (6, 7),  # absent from the base graph; the +edge comparison
}

"""How the structural coefficient reacts to local edits.

On a fixed 8-node neighborhood fixture: deleting edges (node set fixed)
raises the coefficient, deleting nodes lowers it, and the four edge classes
have strictly ordered single-edit impacts.  Denser neighborhoods get smaller
coefficients, de-emphasizing edges whose endpoints already communicate
through many paths.
"""

from unionsub import DescriptorError, Encoding, encode_matrix, path_matrix
from unionsub.fixtures import CASE_STUDY_EDGE_BY_TYPE, CASE_STUDY_GRAPH
from unionsub.graphs import Graph, Subgraph


def coefficient(g):
    return encode_matrix(path_matrix(Subgraph(g, range(g.num_nodes))), Encoding.SVD_SUM)


g = CASE_STUDY_GRAPH
base = coefficient(g)
print("fixture edges:", g.edges)
print(f"base coefficient a(S) = {base:.6f}")

print("\nedge deletions (node set fixed) increase the coefficient:")
for edge in g.edges:
    rest = [e for e in g.edges if e != edge]
    try:  # the path matrix of a disconnected graph is undefined
        value = coefficient(Graph(8, rest))
    except DescriptorError:
        print(f"  -{edge}: would disconnect, skipped")
        continue
    print(f"  -{edge}: {value:+.6f}  (delta {value-base:+.4f})")

print("\nnode deletions decrease the coefficient:")
for node in range(2, 8):
    # node ids above the deleted one shift down by one
    value = coefficient(Graph(7, [(a - (a > node), b - (b > node))
                                  for a, b in g.edges if node not in (a, b)]))
    print(f"  -node {node}: {value:.6f}  (delta {value-base:+.4f})")

print("\nimpact ordering over the four edge classes:")
deltas = {}
for name in ("e1", "e2", "e3"):
    edge = CASE_STUDY_EDGE_BY_TYPE[name]
    deltas[name] = coefficient(Graph(8, [e for e in g.edges if e != edge])) - base
extra = CASE_STUDY_EDGE_BY_TYPE["e4"]
deltas["e4"] = base - coefficient(Graph(8, list(g.edges) + [extra]))
for name, label in (
    ("e1", "common-common      (-edge)"),
    ("e2", "common-exclusive   (-edge)"),
    ("e3", "cross-exclusive    (-edge)"),
    ("e4", "same-side exclusive (+edge)"),
):
    print(f"  {label}: impact {deltas[name]:.6f}")
print("\nstrict ordering e1 < e2 < e3 < e4:",
      deltas["e1"] < deltas["e2"] < deltas["e3"] < deltas["e4"])

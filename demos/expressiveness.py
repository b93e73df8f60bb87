"""Color refinement versus coefficient-augmented refinement.

Shows pairs that plain 1-WL refinement cannot tell apart, including the two
16-node strongly regular graphs with identical parameters, and which signal
separates them: refinement tagged by normalized coefficients (what message
passing sees) or only the raw coefficients.  Also demonstrates the
strictness of union- over overlap-equivalence of neighborhoods and the
path-matrix round trip.
"""

from unionsub import (
    Descriptor,
    coefficient_table,
    cycle_graph,
    distinguish_pair,
    overlap_isomorphic,
    path_graph,
    path_matrix,
    reconstruct_subgraph,
    rook_graph_4x4,
    shrikhande_graph,
    two_triangles_graph,
    union_isomorphic,
    union_subgraph,
    wl_refine,
)

print("=" * 70)
print("1. Plain color refinement")
print("=" * 70)
for name, g in (("C6", cycle_graph(6)), ("P3", path_graph(3))):
    a = wl_refine(g)
    print(f"  {name}: colors {a.colors} after {a.rounds} round(s)")

print()
print("=" * 70)
print("2. Pairs invisible to refinement: tagged refinement and raw values")
print("=" * 70)
pairs = (
    ("C6 vs two triangles", cycle_graph(6), two_triangles_graph()),
    ("rook 4x4 vs shrikhande", rook_graph_4x4(), shrikhande_graph()),
    ("K3 vs K3 (identical)", cycle_graph(3), cycle_graph(3)),
)
for name, g1, g2 in pairs:
    verdict = distinguish_pair(g1, g2, Descriptor("union-path"))
    print(f"  {name:24s} refinement={verdict.wl_distinguishes}  "
          f"tagged={verdict.augmented_distinguishes}  raw={verdict.raw_values_differ}")

c1 = coefficient_table(rook_graph_4x4(), Descriptor("union-path"))
c2 = coefficient_table(shrikhande_graph(), Descriptor("union-path"))
print(f"\n  rook edge coefficient      : {next(iter(c1.raw.values())):.6f}")
print(f"  shrikhande edge coefficient: {next(iter(c2.raw.values())):.6f}")
print("  (both graphs are edge-transitive: one value each, but they differ;")
print("   normalized, each is 1/deg, so tagged refinement cannot separate them)")

print()
print("=" * 70)
print("3. Union-equivalence is strictly finer than overlap-equivalence")
print("=" * 70)
p3, p4 = path_graph(3), path_graph(4)
print("  centers of P3 and P4 (interior node):")
print("    overlap-equivalent:", overlap_isomorphic(p3, 1, p4, 1))
print("    union-equivalent:  ", union_isomorphic(p3, 1, p4, 1))
print("  (all pairwise overlaps are bare edges; one union subgraph is a P4)")

print()
print("=" * 70)
print("4. Path matrices reconstruct their subgraphs")
print("=" * 70)
sub = union_subgraph(cycle_graph(6), 0, 1)
pm = path_matrix(sub)
back = reconstruct_subgraph(pm, sub.parent_ids)
print("  union subgraph edges:", sub.parent_edges())
print("  reconstructed edges: ", back.parent_edges())
print("  round trip exact:", back == sub)

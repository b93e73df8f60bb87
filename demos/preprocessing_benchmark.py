"""Relative preprocessing cost of the descriptor kinds.

Times one coefficient table per graph for each per-edge descriptor, and one
6-cycle count per graph, over an identical synthetic corpus, and prints the
kinds from cheapest to dearest in seconds and microseconds per edge.  The
6-cycle count runs once per graph, not per edge, so its per-edge figure is
its graph total spread over the edges.
"""

import json
import random

from unionsub.cli import BENCH_KINDS, run_bench
from unionsub.graphs import random_graph

rng = random.Random(0)
corpus = [random_graph(rng.randint(20, 40), 3.7 / 29, rng) for _ in range(30)]
print(f"corpus: {len(corpus)} graphs, {sum(g.num_edges for g in corpus)} edges")

report = run_bench(corpus, list(BENCH_KINDS), repeats=3)
print(json.dumps(report, indent=2))

print("\nmedian seconds per kind:")
for kind, stats in sorted(report["kinds"].items(), key=lambda kv: kv[1]["seconds"]):
    print(f"  {kind:14s} {stats['seconds']:8.3f}s   {stats['us_per_edge']:10.1f} us/edge")

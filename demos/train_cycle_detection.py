"""Cycle detection with and without coefficient injection (small scale).

Generates a degree-matched 4-cycle detection dataset, then trains two
plain message-passing classifiers (GCN and GIN) and the same models with
coefficient-driven message weighting (union-gcn and union-gin).  Positives
and negatives share node count, edge count and degree sequence, but not
their neighbour-degree multisets: plain 1-WL separates every positive from
its negative after one round.  The plain gin cannot use that.  Each of its
layers is one linear map, so it is affine end to end, its logits see only
the shared degree sequence, and it scores 0.500.  The coefficients carry
local cycle structure, and at this small scale they give each injected
model a clear gap over its plain base, short of a clean separation of the
classes.

It uses a small dataset and few epochs to finish in under a minute.
"""

import time

from unionsub.datasets import build_cycle_dataset, split_dataset
from unionsub.neural import ModelSpec, train_classifier

print("generating 600 degree-matched graphs (label = contains a 4-cycle)...")
graphs, labels = build_cycle_dataset(4, 600, seed=0)
train, val, test = split_dataset(list(zip(graphs, labels)))
print(f"splits: {len(train)} train / {len(val)} val / {len(test)} test")

for model_name, epochs in (
    ("gcn", 300), ("union-gcn", 300), ("gin", 300), ("union-gin", 300)
):
    spec = ModelSpec.parse(model_name, hidden=48)
    start = time.time()
    report = train_classifier(
        train, val, test, spec, epochs=epochs, seed=0, batch_size=16
    )
    print(
        f"{model_name:10s} {epochs} epochs: "
        f"train {report.train_acc:.3f}  val {report.val_acc:.3f}  "
        f"test {report.test_acc:.3f}   [{time.time() - start:.0f}s]"
    )

print("\nPlain 1-WL separates every positive from its negative here, but the plain gin")
print("is affine end to end (one linear map per layer), so it sees only the shared")
print("degree sequence and stays at chance; the coefficient-injected models do better,")
print("short of separating the classes.")

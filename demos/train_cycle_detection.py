"""Cycle detection with and without coefficient injection (small scale).

Generates a degree-matched 4-cycle detection dataset, then trains two
plain message-passing classifiers (GCN and GIN) and the same models with
coefficient-driven message weighting (union-gcn and union-gin).  The plain
models have little to hold on to (positives and negatives share node count,
edge count, and degree sequence); the coefficients carry local cycle
structure, and at this small scale they give each injected model a clear
gap over its plain base, short of a clean separation of the classes.

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

print("\nDegree statistics carry no signal, so the plain models stay near chance;")
print("the coefficient-injected models do better, short of separating the classes.")

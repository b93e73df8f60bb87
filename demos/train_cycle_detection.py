"""Cycle detection with and without coefficient injection (small scale).

Generates a degree-matched 4-cycle detection dataset, then trains a plain
degree-normalized message-passing classifier and the same model with
coefficient-driven message weighting.  The plain model has nothing to hold
on to (positives and negatives share node count, edge count, and degree
sequence) while the coefficient path learns the task.

It uses a small dataset and few epochs to finish in under a minute.
"""

import time

from unionsub.datasets import build_cycle_dataset, split_dataset
from unionsub.neural import ModelSpec, train_classifier

print("generating 600 degree-matched graphs (label = contains a 4-cycle)...")
graphs, labels = build_cycle_dataset(4, 600, seed=0)
train, val, test = split_dataset(list(zip(graphs, labels)))
print(f"splits: {len(train)} train / {len(val)} val / {len(test)} test")

for model_name, epochs in (("gcn", 300), ("union-gcn", 300)):
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

print("\nThe coefficient-injected model separates the classes; the plain")
print("model hovers near chance because degree statistics carry no signal.")

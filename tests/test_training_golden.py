"""train_classifier keeps its loss curve and trained arrays for a fixed seed.

tests/golden/train.json holds, per row, the loss curve and checkpoint
arrays of five epochs of training on a seeded cycle dataset.  A change that
alters training on purpose must regenerate it deliberately:

    PYTHONPATH=src python tests/test_training_golden.py > tests/golden/train.json

Values are compared with a tight tolerance instead of bytes, because BLAS
summation order may differ across machines.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from unionsub.datasets import build_cycle_dataset, split_dataset
from unionsub.neural import ModelSpec, params_to_json_obj, train_classifier

GOLDEN = Path(__file__).resolve().parent / "golden" / "train.json"
# row -> (model, training seed).  At seed 1 every unit of the second GCN
# layer's output ReLU is dead, so the gcn row trains only the head; at seed 0
# the GCN layers learn, so gcn-seed0 checks a GCN layer gradient.
ROWS = {
    "gcn": ("gcn", 1),
    "gin": ("gin", 1),
    "union-gcn": ("union-gcn", 1),
    "union-gin": ("union-gin", 1),
    "gcn-seed0": ("gcn", 0),
}


def golden_values():
    graphs, labels = build_cycle_dataset(4, 20, seed=3)
    train, val, test = split_dataset(list(zip(graphs, labels)))
    out = {}
    for row, (name, seed) in ROWS.items():
        spec = ModelSpec.parse(name, hidden=4)
        report = train_classifier(train, val, test, spec, epochs=5, seed=seed)
        out[row] = {
            "loss_curve": [list(row) for row in report.loss_curve],
            "arrays": params_to_json_obj(report.model)["arrays"],
        }
    return out


@pytest.fixture(scope="module")
def current():
    return golden_values()


@pytest.mark.parametrize("row", ROWS)
def test_training_matches_golden(current, row):
    expected = json.loads(GOLDEN.read_text())[row]
    got = current[row]
    assert np.allclose(
        got["loss_curve"], expected["loss_curve"], rtol=1e-9, atol=1e-12
    )
    assert [a["shape"] for a in got["arrays"]] == [a["shape"] for a in expected["arrays"]]
    for a, b in zip(got["arrays"], expected["arrays"]):
        assert np.allclose(a["data"], b["data"], rtol=1e-9, atol=1e-12)


if __name__ == "__main__":
    print(json.dumps(golden_values(), indent=1))

"""Curvature tables keep every printed byte on a seeded G(n, m) corpus.

tests/golden/curvature_er.txt holds the CSV of the curvature table of the
first 8 graphs of `unionsub gen 'er:20-50:3.7' --seed 0`, at alpha 0.5 and
0.2.  The small fixtures print few enough values that a drift in the last
bit of W1 rarely reaches the 12 printed digits; these 1,000-odd edges do.
A change that alters a printed value must regenerate the file deliberately:

    PYTHONPATH=src python tests/test_curvature_golden.py > tests/golden/curvature_er.txt
"""

import sys
import warnings
from pathlib import Path

from unionsub.cli import _gen_graphs
from unionsub.descriptors import Descriptor, coefficient_table

GOLDEN = Path(__file__).resolve().parent / "golden" / "curvature_er.txt"


def golden_text():
    graphs, _ = _gen_graphs("er:20-50:3.7", 8, 0)
    parts = []
    for alpha in (0.5, 0.2):
        kind = Descriptor("curvature", alpha=alpha)
        for index, g in enumerate(graphs):
            with warnings.catch_warnings():  # near-zero sums fall back to uniform
                warnings.simplefilter("ignore", RuntimeWarning)
                table = coefficient_table(g, kind)
            parts.append(f"# alpha {alpha} graph {index}\n{table.to_csv_text()}")
    return "".join(parts)


def test_curvature_csv_matches_golden():
    assert golden_text().encode("ascii") == GOLDEN.read_bytes()


if __name__ == "__main__":
    sys.stdout.write(golden_text())

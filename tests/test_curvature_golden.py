"""Curvature tables keep every printed byte on a seeded G(n, m) corpus.

tests/golden/curvature_er.txt holds the CSV of the curvature table of the
first 8 graphs of `unionsub gen 'er:20-50:3.7' --seed 0`, at alpha 0.5 and
0.2.  The small fixtures print few enough values that a drift in the last
bit of W1 rarely reaches the 12 printed digits; these 1,000-odd edges do.
A change that alters a printed value must regenerate the file deliberately:

    PYTHONPATH=src python tests/test_curvature_golden.py > tests/golden/curvature_er.txt

Printed digits hide a drift in the last bits, so every raw value of the
whole 100-graph corpus (6,617 edges) at alpha 0, 0.2 and 0.5 is also pinned
by the sha256 of its ``float.hex`` text, one value a line.
"""

import hashlib
import sys
from pathlib import Path

from unionsub.cli import _gen_graphs
from unionsub.descriptors import Descriptor, coefficient_table

GOLDEN = Path(__file__).resolve().parent / "golden" / "curvature_er.txt"
RAW_DIGEST = "0109820acae3644e3ef0cb688a9dd739158525f2400ff470f8efc19cf365fa5c"


def golden_text():
    graphs, _ = _gen_graphs("er:20-50:3.7", 8, 0)
    parts = []
    for alpha in (0.5, 0.2):
        kind = Descriptor("curvature", alpha=alpha)
        for index, g in enumerate(graphs):
            table = coefficient_table(g, kind)
            parts.append(f"# alpha {alpha} graph {index}\n{table.to_csv_text()}")
    return "".join(parts)


def test_curvature_csv_matches_golden():
    assert golden_text().encode("ascii") == GOLDEN.read_bytes()


def raw_values_digest():
    """sha256 of every curvature raw value of the 100-graph corpus, and their count."""
    graphs, _ = _gen_graphs("er:20-50:3.7", 100, 0)
    digest, count = hashlib.sha256(), 0
    for alpha in (0.0, 0.2, 0.5):
        kind = Descriptor("curvature", alpha=alpha)
        for g in graphs:
            values = coefficient_table(g, kind).values.tolist()
            digest.update("".join(f"{x.hex()}\n" for x in values).encode("ascii"))
            count += len(values)
    return digest.hexdigest(), count


def test_curvature_raw_values_match_digest():
    assert raw_values_digest() == (RAW_DIGEST, 3 * 6617)


if __name__ == "__main__":
    sys.stdout.write(golden_text())

"""Local tables keep every byte on a seeded corpus of connected G(n, p).

tests/golden/stack_values.txt holds, for each kind that builds local
matrices and each encoding, for betweenness and for count-ne with lambda 2
and 1, the SHA-256 of the table's ``values`` and of its ``weights`` bytes.
The path lengths of a local subgraph are read off A and A^2 and then
encoded, so a change in how they are formed, or in the order of the array
ops, shows up as a new digest.  A change that alters a value must
regenerate the file deliberately:

    PYTHONPATH=src python tests/test_stack_golden.py > tests/golden/stack_values.txt
"""

import hashlib
import random
import sys
from pathlib import Path

from unionsub.descriptors import Descriptor, Encoding, coefficient_table
from unionsub.graphs import random_graph

from helpers import is_connected

GOLDEN = Path(__file__).resolve().parent / "golden" / "stack_values.txt"
CASES = [Descriptor(kind, encoding=encoding)
         for kind in ("union-path", "overlap-path", "minus-path", "laplacian")
         for encoding in Encoding] + [Descriptor("betweenness"), Descriptor("count-ne", lam=2),
                                      Descriptor("count-ne", lam=1)]


def corpus():
    """24 connected G(n, p) graphs, 8 to 40 nodes, sparse to dense."""
    rng = random.Random(0)
    graphs = []
    while len(graphs) < 24:
        g = random_graph(rng.randint(8, 40), rng.uniform(0.08, 0.5), rng)
        if is_connected(g):
            graphs.append(g)
    return graphs


def golden_line(kind, graphs):
    """The line of stack_values.txt for one descriptor."""
    values, weights = hashlib.sha256(), hashlib.sha256()
    for g in graphs:
        table = coefficient_table(g, kind)
        values.update(table.values.tobytes())
        weights.update(table.weights.tobytes())
    param = kind.lam if kind.kind == "count-ne" else kind.encoding.value
    return f"{kind.kind} {param} {values.hexdigest()} {weights.hexdigest()}\n"


def golden_text():
    graphs = corpus()
    return "".join(golden_line(kind, graphs) for kind in CASES)


def test_local_tables_match_golden():
    assert golden_text() == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    sys.stdout.write(golden_text())

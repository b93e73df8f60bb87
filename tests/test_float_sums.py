"""Outputs keep their bits under the float sum() of Python 3.12 and later.

Python 3.12 made the builtin ``sum()`` of floats compensated (Neumaier), so a
sum that reaches an output must add left to right by other means.  These
tests give every ``unionsub`` module a compensated ``sum`` and check the
curvature raw-value digest, whose transport residual is a sum of masses, and
the union-path lines of the stack golden, whose weights divide by per-node
sums.
"""

import builtins
import math
import sys

import pytest

from unionsub.descriptors import Descriptor, Encoding

import test_curvature_golden
import test_stack_golden


def compensated_sum(items, start=0):
    """sum() as Python 3.12 adds floats: Neumaier's compensated summation."""
    items = list(items)
    if not all(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_compensated_sum_differs_from_left_to_right():
    assert builtins.sum([0.1] * 10) != 1.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1, 2, 3]) == 6


@pytest.fixture
def python_312_sum(monkeypatch):
    for name, module in list(sys.modules.items()):
        if name == "unionsub" or name.startswith("unionsub."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_curvature_raw_values_keep_their_digest(python_312_sum):
    assert test_curvature_golden.raw_values_digest() == (
        test_curvature_golden.RAW_DIGEST, 3 * 6617)


def test_union_path_tables_keep_their_digests(python_312_sum):
    golden = test_stack_golden.GOLDEN.read_text(encoding="ascii").splitlines(keepends=True)
    graphs = test_stack_golden.corpus()
    for encoding in Encoding:
        line = test_stack_golden.golden_line(Descriptor("union-path", encoding=encoding), graphs)
        assert line in golden

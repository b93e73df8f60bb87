"""Demos that print path matrices and coefficients keep their stdout byte for byte.

The files under tests/golden/ are the demos' stdout as committed; a change
that alters a printed value must regenerate them deliberately:

    PYTHONPATH=src python demos/case_study.py > tests/golden/case_study.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["coefficients_tour", "expressiveness", "case_study"])
def test_demo_stdout_matches_golden(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert run.stdout == (GOLDEN / f"{name}.txt").read_bytes()

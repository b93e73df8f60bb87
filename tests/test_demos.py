"""Demos that print path matrices and coefficients keep their stdout byte for
byte, and the README's library example runs.

The files under tests/golden/ are the demos' stdout as committed; a change
that alters a printed value must regenerate them deliberately:

    PYTHONPATH=src python demos/case_study.py > tests/golden/case_study.txt
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_python(args):
    """Run this interpreter on ``args`` in the repository root with src/ on
    PYTHONPATH; a non-zero exit fails the test."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path}, check=True)


@pytest.mark.parametrize("name", ["coefficients_tour", "expressiveness", "case_study"])
def test_demo_stdout_matches_golden(name):
    run = run_python([str(ROOT / "demos" / f"{name}.py")])
    assert run.stdout == (GOLDEN / f"{name}.txt").read_bytes()


def test_readme_library_example_runs():
    # the README's one python block, under its "Library example" heading
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1
    run = run_python(["-c", blocks[0]])
    assert run.stdout.decode().splitlines()[-1] == "False False True"

"""The demos and the README's library example run as shipped.

Each runs in a fresh interpreter from an empty working directory, with
only ``src`` on PYTHONPATH, and must exit 0; a demo that writes output
writes it into that directory.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    done = run_python([str(path)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_example_runs(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]], tmp_path)
    assert done.returncode == 0, done.stderr


STRUCTURE_STDOUT = """\
e^{i theta}: rank fractions ['0.0625', '0.0312', '0.0156']
two-level: rank fractions ['0.1094', '0.0586']
f = 1: residual is exactly zero: True
hankel fractions ['0.2500', '0.1250', '0.0625'] -> PASS
  largest singular values at n=32: [1. 1. 0. 0.]
k=0, n=3: exact=True, correction rank fraction 0.5000, tail 0.0e+00
k=1, n=5: exact=True, correction rank fraction 0.3333, tail 0.0e+00
k=2, n=7: exact=True, correction rank fraction 0.3750, tail 0.0e+00
"""


def test_structure_demo_prints_exact_values(tmp_path):
    # every value printed is a count, an exact zero or a singular value rounded to 6 places
    done = run_python([str(ROOT / "demos" / "structure_identities.py")], tmp_path)
    assert done.stdout == STRUCTURE_STDOUT

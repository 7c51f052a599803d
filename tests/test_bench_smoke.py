"""The benchmark's two solve workloads pass their checks, plain and traced.

``flipbench/tracing.py`` wraps flipspec functions and methods by name, so a
renamed or moved one breaks a traced benchmark run.  Each case runs one
checked pass (``flipbench/run.py --seconds 0``) in a fresh interpreter and
reads the result object on its last line.  Traced runs write their spans
to the git-ignored ``flipbench/runs/``.  ``spectral_figures`` is left out:
one pass of it takes several seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", ["toeplitz_tables", "circsum_table"])
def test_solve_workload_passes_its_checks(workload, trace):
    out = subprocess.run([sys.executable, "flipbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stderr

"""The benchmark's own check tests pass on this tree.

flipbench/test_checks.py pins the answers and counts that the benchmark's
checks rely on, and ``testpaths`` leaves it out of this suite.  It runs in
a subprocess: importing flipbench/run.py sets OPENBLAS_NUM_THREADS=1 in
os.environ, which would carry into every later subprocess test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_check_tests_pass():
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "flipbench/test_checks.py"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]

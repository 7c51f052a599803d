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

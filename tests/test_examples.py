"""The worked multi-seed examples run end to end and print their report."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
@pytest.mark.parametrize("script, title", [
    ("ensemble_study.py", "Ensemble: 48 trials (3 variant(s) x 16 seed(s)"),
    ("economics_study.py",
     "Economics ensemble: 32 trials (2 variant(s) x 16 seed(s)"),
    ("joint_study.py",
     "Joint detection->offload ensemble: 32 trials (2 variant(s) x 16 seed(s)"),
])
def test_example_runs(script, title):
    source = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=source),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(title), done.stdout[:400]

"""Every worked example runs end to end and prints its first line.

The multi-seed examples start with their report's title; the
single-world ones (which call the library directly, so a removed or
renamed API breaks them) with their first progress line.
"""

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
    ("quickstart.py", "Building a synthetic world with 3 IXPs...\n"),
    ("detect_remote_peering.py",
     "Building the 22-IXP world and running the campaign...\n"),
    ("offload_study.py",
     "Building the offload world (29,570 contributing networks)...\n"),
    ("economic_viability.py",
     "Fitting the transit decay rate b from the offload study...\n"),
    ("structural_implications.py", "Building the 22-IXP world...\n"),
    ("threshold_sensitivity.py",
     "Building a 10-IXP world and running the campaign...\n"),
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

"""Smoke test: the quick demos still run against the package API.

Demos 03 and 04 run Monte-Carlo sweeps of about a minute each and stay
out of this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", [
    "01_dictionary_and_coherence.py",
    "02_learning_the_null.py",
    "05_false_alarm_bound.py",
    "06_end_to_end_detection.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

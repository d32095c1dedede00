"""The committed benchmark's own checks on seed 0: one short run of every
workload in BENCHMARK.json, in a fresh interpreter from the repository root,
must attempt its CLI chain and pass every output check (the recorded
digests included, where they were recorded on this platform)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["correct"] is True and result["failed"] == 0, proc.stdout

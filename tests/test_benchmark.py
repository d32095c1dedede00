"""The committed benchmark's own checks on seed 0: one short run of every
workload in BENCHMARK.json, in a fresh interpreter from the repository root,
must attempt its CLI chain and pass every output check (the recorded
digests included, where they were recorded on this platform).  Each
workload runs once untraced and once with its tracer installed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
RUNS = [pytest.param(w, trace, id=w + ("-traced" if trace == "1" else ""))
        for trace in "01" for w in WORKLOADS]


@pytest.mark.slow
@pytest.mark.parametrize("workload, trace", RUNS)
def test_seed0_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["correct"] is True and result["failed"] == 0, proc.stdout

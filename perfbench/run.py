"""shiftdetect benchmark: fixed-seed workloads through the public CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cube-survey --seed 0 --seconds 36 \
        --trace 0

The program is imported from ./src (nothing is installed).  The workload's
inputs are generated from --seed and written to files before any timing
starts; then whole passes of the workload's CLI chain run in this process
(`shiftdetect.cli.main`) until --seconds is used up.  Each call's outputs are
checked outside the timed region.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 a first untraced pass
is followed by passes with every public function of each package module
wrapped in a span, and the metrics are the per-layer ones.  A fuller report
(run metadata, per-command timings, every call) is written under
.perfbench-work/reports/, with the spans of a traced run beside it.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the fdr-sweep pool then uses at most nproc
# threads, and every run uses the same BLAS configuration.  Set before
# numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
SETUP_CODE = ("import time; t0 = time.perf_counter(); import shiftdetect.cli; "
              "shiftdetect.cli.build_parser(); "
              "print(repr(time.perf_counter() - t0))")


@dataclass
class Call:
    label: str
    run_id: int
    rc: object
    seconds: float
    stdout: str
    stderr: str
    digest: object = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


def run_cli(label, argv, run_id) -> Call:
    import shiftdetect.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main([str(a) for a in argv])
        except (Exception, SystemExit):
            # a crash is a failed operation, not a crash of the benchmark
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return Call(label, run_id, rc, seconds, out.getvalue(), err.getvalue())


def output_digest(call, outputs):
    from workloads import digest
    if outputs == ["stdout"]:
        return hashlib.sha256(call.stdout.encode()).hexdigest()
    try:
        return digest(outputs)
    except OSError:
        return None


def measure_setup() -> list:
    """Import plus CLI-parser construction, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def blas_info() -> dict:
    """numpy's BLAS build, plus the core type and thread count it runs with
    (read through ctypes from the bundled OpenBLAS when present)."""
    import numpy as np
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": build.get("name"), "version": build.get("version"),
            "core": None, "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas_", "64_"),
                                   ("openblas_", "64_"), ("openblas_", "")):
                try:
                    core = getattr(lib, f"{prefix}get_corename{suffix}")
                    nthreads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                core.restype = ctypes.c_char_p
                nthreads.restype = ctypes.c_int
                info["core"] = core().decode()
                info["threads"] = int(nthreads())
                break
        except OSError:
            continue
    return info


def metadata(args, nproc) -> dict:
    import numpy
    import scipy
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "shiftdetect", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + fh.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "machine": platform.machine(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_info(), "git_sha": git_sha,
            "src_sha256": src.hexdigest()}


def platform_key(meta) -> dict:
    """What bit-identical outputs may depend on besides the program."""
    return {"python": meta["python"], "machine": meta["machine"],
            "numpy": meta["numpy"], "scipy": meta["scipy"],
            "blas_core": meta["blas"]["core"],
            "blas_threads": meta["blas"]["threads"]}


def summary(values) -> dict:
    """Median with quartiles and sample count."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_passes(workload, args, tracer, recorded):
    """Whole passes until --seconds is used up; returns the list of passes,
    each a list of Calls with their problems filled in."""
    passes, walls = [], []
    first = {}                          # label -> (digest, problems)
    run_id = 0
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if tracer is not None and len(passes) == 1:
            tracer.install()
        calls = []
        for label, argv, outs in workload.plan(tracer is not None):
            if tracer is not None:
                tracer.begin_run(run_id)
            call = run_cli(label, argv, run_id)
            run_id += 1
            call.digest = output_digest(call, outs)
            calls.append(call)
        if not passes:
            problems = workload.check(calls)
            for call in calls:
                call.problems = list(problems.get(call.label, []))
                want = recorded.get(call.label)
                if want is not None and call.digest != want:
                    call.problems.append("outputs differ from the digest "
                                         "recorded for this seed")
                first[call.label] = (call.digest, call.problems)
        else:
            for call in calls:
                digest0, problems0 = first[call.label]
                call.problems = list(problems0) if call.digest == digest0 \
                    else ["outputs differ from the first pass"]
        passes.append(calls)
        walls.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - start
        if tracer is not None and len(passes) < 2:
            continue
        if elapsed + statistics.median(walls) > args.seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cube-survey", "fdr-sweep", "pfa-table"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shiftdetect", "__init__.py")):
        print("perfbench: src/shiftdetect not found; run from the root of a "
              "shiftdetect checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import shiftdetect
    if not os.path.abspath(shiftdetect.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported shiftdetect from {shiftdetect.__file__}, "
              "not from src/", file=sys.stderr)
        return 2
    import shiftdetect.cli  # noqa: F401  (loads every package module)
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    meta = metadata(args, nproc)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, stem)
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    recorded = {}
    digest_note = "seed has no recorded digests"
    if args.seed == digests["seed"]:
        if digests["platform"] == platform_key(meta):
            recorded = digests["workloads"].get(args.workload, {})
            digest_note = "compared" if recorded else "none recorded"
        else:
            digest_note = "skipped: recorded on another platform"
    meta["digest_check"] = digest_note

    try:
        workload = WORKLOADS[args.workload](run_dir, args.seed, nproc)
        workload.prepare()
        setup = [] if args.trace else measure_setup()
        tracer = Tracer() if args.trace else None
        passes = run_passes(workload, args, tracer, recorded)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    calls = [call for p in passes for call in p]
    attempted = len(calls)
    failed = sum(call.failed for call in calls)
    pass_s = [sum(call.seconds for call in p) for p in passes]
    # A pass's typical time, assembled from the median of each command
    # kind over the whole run ("detect/w3" is of kind "detect"): many short
    # samples keep a burst of machine noise in one pass from moving it.
    kinds = {}
    for call in calls:
        kinds.setdefault(call.label.split("/")[0], []).append(call.seconds)
    typical_pass_s = sum(statistics.median(v) * len(v) / len(passes)
                         for v in kinds.values())
    detail = {"error_rate": failed / attempted}
    report = {"meta": meta, "detail": detail, "setup_s": setup,
              "passes": [[{"label": c.label, "rc": c.rc, "seconds": c.seconds,
                           "digest": c.digest, "problems": c.problems,
                           "stderr": c.stderr[-2000:]} for c in p]
                         for p in passes]}
    if tracer is None:
        stages = {}
        for p in passes:
            for key, values in workload.stages(p).items():
                stages.setdefault(key, []).extend(values)
        detail.update({key: summary(v) for key, v in stages.items() if v})
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "fdr-sweep":
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {"setup_s": (statistics.median(setup), "s"),
                  "pass_s": (typical_pass_s, "s"),
                  "peak_rss_mb": (usage * 1024 / 1e6, "MB")}
        detail["pass_s"] = dict(summary(pass_s),
                                from_kind_medians=typical_pass_s)
        detail["setup_s"] = summary(setup)
    else:
        per_pass = [tracer.layer_metrics({c.run_id for c in p})
                    for p in passes[1:]]
        units = dict(METRICS)
        values = {key: (statistics.median(m[key] for m in per_pass), unit)
                  for key, unit in units.items()}
        traced = statistics.median(pass_s[1:])
        detail.update(computed_counts=[k for k in units if k.endswith(
                          (".bytes", ".flops", ".pixels", ".values"))],
                      untraced_pass_s=pass_s[0], traced_pass_s=traced,
                      trace_overhead_s=traced - pass_s[0],
                      autocorrelation_calls_by_caller=tracer.calls_by_parent(
                          "dictionary.autocorrelation",
                          {c.run_id for c in passes[1]}))
        spans_path = os.path.join(WORK, "reports", stem + "-spans.csv.gz")
        tracer.write(spans_path)
        report["spans"] = spans_path
    report_path = os.path.join(WORK, "reports", stem + ".json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"report": os.path.relpath(report_path, ROOT),
                      "meta": meta, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

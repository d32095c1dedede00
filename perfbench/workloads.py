"""The three benchmark workloads: input generation, the CLI chain of one
pass, and the checks on each call's outputs.

A workload writes its inputs into its work directory before any timing
starts; the program then sees only those files, configs and flags.  Every
call of a pass is one operation.  `check` runs outside the timed region and
returns, per call, the reasons its outputs are wrong (empty when right).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import struct
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# shared helpers


def digest(paths) -> str:
    """sha256 over the relative names and bytes of files and directories."""
    h = hashlib.sha256()
    for path in paths:
        if os.path.isdir(path):
            files = sorted(os.path.join(root, f)
                           for root, _, names in os.walk(path) for f in names)
        else:
            files = [path]
        for f in files:
            h.update(os.path.relpath(f, os.path.dirname(path)).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def step_up(p, level: float) -> np.ndarray:
    """Brute-force step-up scan: reject every p <= p_(k) for the largest k
    with p_(k) <= level * k / n."""
    ps = sorted(float(v) for v in p)
    n = len(ps)
    for k in range(n, 0, -1):
        if ps[k - 1] <= level * k / n:
            return np.asarray(p) <= ps[k - 1]
    return np.zeros(len(ps), dtype=bool)


def is_round_down(p: float, num: int, den: int) -> bool:
    """True when p is the largest double <= num/den."""
    exact = Fraction(num, den)
    return Fraction(p) <= exact < Fraction(float(np.nextafter(p, np.inf)))


# ---------------------------------------------------------------------------
# cube-survey


CUBE_SHAPE = (300, 300, 40)
CENTRES = (100, 150, 200)
WINDOWS = tuple((r, c) for r in CENTRES for c in CENTRES)
BAND = 20                   # window centre band; the test window is 5..35
HALF_WIDTH, HALF_BANDS = 25, 15
FIT_CENTRE = (150, 150)
LINE_SIGMA = 3.4            # bands; FWHM 8
MAP_NAMES = ("pvalue", "qvalue", "detected", "argmax_atom", "best_shift",
             "detected_q0.05", "detected_q0.1", "detected_q0.2",
             "detected_q0.4")
LEVELS = (0.05, 0.1, 0.2, 0.4)
Q = 0.2


def write_survey_cube(path, seed: int) -> None:
    """Raw FDC1 cube with a variance block: Student-t(5) noise scaled by a
    smooth variance field, line sources in some test windows and not in
    others, and one bright line at the null-fit centre.

    The bright line keeps the reference that `null-fit` estimates free of a
    noise floor at far shifts, which its strict atom-overlap check rejects.
    The data are written in row blocks so generation stays small in memory.
    """
    ny, nx, l = CUBE_SHAPE
    rng = np.random.default_rng([seed, 1])
    phase = rng.uniform(0.0, 2.0 * math.pi, 2)
    rows = np.arange(ny)[:, None]
    cols = np.arange(nx)[None, :]
    spatial = 1.0 + 0.5 * np.sin(2 * math.pi * rows / ny + phase[0]) \
        * np.cos(2 * math.pi * cols / nx + phase[1])
    band_trend = np.linspace(0.8, 1.2, l)
    bands = np.arange(l)

    sources = []                      # (row, col, amplitude, shift, radius)
    for r, c in WINDOWS:
        if (r, c) == FIT_CENTRE:
            sources.append((r, c, 80.0, 0, 3))
        elif rng.random() < 0.5:
            for _ in range(int(rng.integers(4, 9))):
                sources.append((r + int(rng.integers(-20, 21)),
                                c + int(rng.integers(-20, 21)),
                                float(rng.uniform(3.0, 8.0)),
                                int(rng.integers(-5, 6)),
                                int(rng.integers(2, 4))))

    block = 30
    with open(path, "wb") as fh:
        fh.write(b"FDC1" + struct.pack("<IIIIi", ny, nx, l, 1, 0))
        for r0 in range(0, ny, block):
            r1 = min(ny, r0 + block)
            sd = np.sqrt(spatial[r0:r1, :, None] * band_trend)
            data = rng.standard_t(5.0, size=(r1 - r0, nx, l)) * sd
            for r, c, amp, shift, rad in sources:
                line = amp * np.exp(-0.5 * ((bands - BAND - shift)
                                            / LINE_SIGMA) ** 2)
                for dy in range(-rad, rad + 1):
                    if not r0 <= r + dy < r1:
                        continue
                    for dx in range(-rad, rad + 1):
                        if dy * dy + dx * dx <= rad * rad:
                            data[r + dy - r0, c + dx] += \
                                line * sd[r + dy - r0, c + dx]
            fh.write(data.astype("<f8").tobytes())
        for r0 in range(0, ny, block):
            r1 = min(ny, r0 + block)
            var = np.broadcast_to(spatial[r0:r1, :, None] * band_trend,
                                  (r1 - r0, nx, l))
            fh.write(np.ascontiguousarray(var, dtype="<f8").tobytes())


# The readers and the statistic below re-implement the file formats and the
# spectral-angle score instead of calling the program, so that a check does
# not trust the code it checks.


def read_fdc(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"FDC1":
        raise ValueError(f"{path}: bad magic")
    ny, nx, l, flags, _ = struct.unpack("<IIIIi", raw[4:24])
    count = ny * nx * l
    expected = 24 + 8 * count * (2 if flags & 1 else 1)
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8", count=count,
                         offset=24).reshape(ny, nx, l)


def read_maps(outdir, names) -> dict:
    """Load and shape-check every CSV map and PGM preview of a detect run."""
    side = 2 * HALF_WIDTH
    header = b"P5\n%d %d\n255\n" % (side, side)
    maps = {}
    for name in names:
        arr = np.loadtxt(os.path.join(outdir, f"map_{name}.csv"),
                         delimiter=",", ndmin=2)
        if arr.shape != (side, side):
            raise ValueError(f"map_{name}.csv has shape {arr.shape}")
        with open(os.path.join(outdir, f"map_{name}.pgm"), "rb") as fh:
            pgm = fh.read()
        if not pgm.startswith(header) or len(pgm) != len(header) + side * side:
            raise ValueError(f"map_{name}.pgm is malformed")
        maps[name] = arr
    return maps


def check_maps(maps) -> list:
    """Value-range and nesting rules every detect output obeys."""
    bad = []
    for name in ("pvalue", "qvalue"):
        v = maps[name]
        if not np.all(np.isfinite(v)) or v.min() < 0 or v.max() > 1:
            bad.append(f"{name} outside [0, 1]")
    for name in maps:
        if name.startswith("detected") or name == "reference_pixels":
            if not np.all((maps[name] == 0) | (maps[name] == 1)):
                bad.append(f"{name} is not binary")
    if not np.array_equal(maps["detected"], maps[f"detected_q{Q:g}"]):
        bad.append("decision map differs from its own overlay level")
    for lo, hi in zip(LEVELS, LEVELS[1:]):
        if np.any(maps[f"detected_q{lo:g}"] > maps[f"detected_q{hi:g}"]):
            bad.append(f"overlay q{lo:g} not inside q{hi:g}")
    return bad


def read_model(path):
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if rows[0] != ["mu0_hat", "pi0_hat", "n0", "n_fit"]:
        raise ValueError("model CSV header")
    pi0, n0 = float(rows[1][1]), int(rows[1][2])
    pooled = np.array([float(r[0]) for r in rows[2:]])
    if pooled.size != 2 * n0 or np.any(np.diff(pooled) < 0):
        raise ValueError("pooled null sample is not 2*n0 sorted values")
    if not 0.0 < pi0 <= 1.0:
        raise ValueError("pi0_hat outside (0, 1]")
    return pi0, n0, pooled


def read_dictionary(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    atoms = np.array([[float(v) for v in row] for row in rows[1:]])
    if atoms.shape != (15, 2 * HALF_BANDS) or len(rows[0]) != 15:
        raise ValueError(f"dictionary shape {atoms.shape}")
    if np.any(np.abs(np.linalg.norm(atoms, axis=1) - 1.0) > 1e-12):
        raise ValueError("atoms are not unit norm")
    return atoms


def window_tmax(cube, atoms, r, c) -> np.ndarray:
    """Spectral-angle max statistic of each test-window pixel, row-major."""
    sub = cube[r - HALF_WIDTH:r + HALF_WIDTH, c - HALF_WIDTH:c + HALF_WIDTH,
               BAND - HALF_BANDS:BAND + HALF_BANDS]
    spectra = np.ascontiguousarray(sub).reshape(-1, sub.shape[2])
    scores = spectra @ atoms.T / np.linalg.norm(spectra, axis=1)[:, None]
    return scores.max(axis=1)


def check_model_window(maps, tmax, pi0, n0, pooled) -> list:
    """p-values are the largest doubles <= c / (2 n0) for an exceedance
    count c of the saved null; decisions are a brute-force step-up at
    q / pi0_hat.  The benchmark's own statistic may differ from the
    program's in the last bits, so c may be any count within 1e-12 of it."""
    bad = []
    den = 2 * n0
    p = maps["pvalue"].ravel()
    c_min = den - np.searchsorted(pooled, tmax + 1e-12, side="right")
    c_max = den - np.searchsorted(pooled, tmax - 1e-12, side="right")
    num = np.rint(p * den).astype(np.int64)
    if np.any(num < c_min) or np.any(num > c_max):
        bad.append("p-value count disagrees with the saved null")
    for value, c in sorted(set(zip(p.tolist(), num.tolist()))):
        if not is_round_down(value, c, den):
            bad.append(f"p-value {value!r} is not the largest double "
                       f"<= {c}/{den}")
            break
    for name, q in [("detected", Q)] + [(f"detected_q{v:g}", v)
                                        for v in LEVELS]:
        expected = step_up(p, min(q / pi0, 1.0))
        if not np.array_equal(maps[name].ravel().astype(bool), expected):
            bad.append(f"{name} differs from the step-up scan")
    return bad


class CubeSurvey:
    name = "cube-survey"

    def __init__(self, workdir, seed, nproc):
        self.dir = workdir
        self.seed = seed
        self.raw = os.path.join(workdir, "raw.fdc")
        self.prep = os.path.join(workdir, "prep.fdc")
        self.model = os.path.join(workdir, "model.csv")
        self.dict = os.path.join(workdir, "dict.csv")

    def prepare(self) -> None:
        write_survey_cube(self.raw, self.seed)

    def _window(self, kind, i):
        return os.path.join(self.dir, kind, f"w{i}")

    def plan(self, traced: bool) -> list:
        """(label, argv, outputs) of every call in one pass."""
        calls = [("preprocess",
                  ["preprocess", "--cube", self.raw, "--out", self.prep,
                   "--fsf", "gaussian:1.0"], [self.prep])]
        for i, (r, c) in enumerate(WINDOWS):
            out = self._window("oneshot", i)
            calls.append((f"detect/w{i}",
                          ["detect", "--cube", self.prep,
                           "--center", f"{r},{c},{BAND}", "--out", out],
                          [out]))
        fr, fc = FIT_CENTRE
        calls.append(("null-fit",
                      ["null-fit", "--cube", self.prep,
                       "--center", f"{fr},{fc},{BAND}",
                       "--out-model", self.model, "--out-dict", self.dict],
                      [self.model, self.dict]))
        for i, (r, c) in enumerate(WINDOWS):
            out = self._window("model", i)
            calls.append((f"detect-model/w{i}",
                          ["detect", "--cube", self.prep,
                           "--center", f"{r},{c},{BAND}",
                           "--model", self.model, "--dict-in", self.dict,
                           "--out", out], [out]))
        return calls

    def check(self, calls) -> dict:
        problems = {call.label: [] for call in calls}
        try:
            cube = read_fdc(self.prep)
            if cube.shape != CUBE_SHAPE or not np.all(np.isfinite(cube)):
                problems["preprocess"].append("preprocessed cube malformed")
        except (OSError, ValueError) as exc:
            problems["preprocess"].append(str(exc))
            cube = None
        try:
            pi0, n0, pooled = read_model(self.model)
            atoms = read_dictionary(self.dict)
        except (OSError, ValueError, IndexError) as exc:
            problems["null-fit"].append(str(exc))
            atoms = None
        for i, (r, c) in enumerate(WINDOWS):
            for kind, label in (("oneshot", f"detect/w{i}"),
                                ("model", f"detect-model/w{i}")):
                names = MAP_NAMES + (("reference_pixels",)
                                     if kind == "oneshot" else ())
                try:
                    maps = read_maps(self._window(kind, i), names)
                except (OSError, ValueError) as exc:
                    problems[label].append(str(exc))
                    continue
                problems[label] += check_maps(maps)
                if kind == "oneshot":
                    if maps["reference_pixels"].sum() != 5:
                        problems[label].append("reference_pixels count")
                elif cube is not None and atoms is not None:
                    problems[label] += check_model_window(
                        maps, window_tmax(cube, atoms, r, c), pi0, n0, pooled)
        return problems

    @staticmethod
    def stages(calls) -> dict:
        """Per-command timing samples of one pass, by report name."""
        names = {"preprocess": "preprocess_s", "detect": "detect_s",
                 "null-fit": "null_fit_s", "detect-model": "detect_model_s"}
        out = {name: [] for name in names.values()}
        for call in calls:
            out[names[call.label.split("/")[0]]].append(call.seconds)
        return out


# ---------------------------------------------------------------------------
# fdr-sweep

SWEEP_RUNS = 2              # replicates per SNR level, per call: 8 tasks,
#                             two chunks of 4 for the pool
SWEEP_SNRS = (-20, -16, -12, -8)
SWEEP_QS = (0.02, 0.05, 0.1, 0.2)
SWEEP_CONFIG = f"""\
# AC2's shape: Student-t(5) noise, 3x3 uniform kernel, pi0 0.81
l=30
m=15
tau=7
mode=integer
noise=student
nu=5
kernel=uniform3
pi0=0.81
snr_list={",".join(str(v) for v in SWEEP_SNRS)}
q_list={",".join(str(v) for v in SWEEP_QS)}
fit_ny=200
fit_nx=200
ny=51
nx=51
"""


class FdrSweep:
    name = "fdr-sweep"

    def __init__(self, workdir, seed, nproc):
        self.dir = workdir
        self.seed = seed
        self.threads = min(2, nproc)
        self.config = os.path.join(workdir, "sweep.conf")

    def prepare(self) -> None:
        with open(self.config, "w") as fh:
            fh.write(SWEEP_CONFIG)

    def plan(self, traced: bool) -> list:
        # spans in pool workers are not visible, so a traced pass runs the
        # serial sweep only; so does a machine with one processor
        threads = (1,) if traced or self.threads < 2 else (1, self.threads)
        calls = []
        for t in threads:
            out = os.path.join(self.dir, f"sweep_t{t}")
            calls.append((f"simulate-t{t}",
                          ["--seed", str(self.seed), "--threads", str(t),
                           "simulate", "--config", self.config,
                           "--runs", str(SWEEP_RUNS), "--out", out],
                          [os.path.join(out, "runs.csv"),
                           os.path.join(out, "aggregate.csv")]))
        return calls

    def check(self, calls) -> dict:
        problems = {call.label: [] for call in calls}
        contents = {}
        for label in problems:
            out = os.path.join(self.dir, label.replace("simulate-", "sweep_"))
            try:
                with open(os.path.join(out, "runs.csv"), newline="") as fh:
                    runs = list(csv.DictReader(fh))
                with open(os.path.join(out, "aggregate.csv"),
                          newline="") as fh:
                    agg = list(csv.DictReader(fh))
            except OSError as exc:
                problems[label].append(str(exc))
                continue
            if len(runs) != len(SWEEP_SNRS) * SWEEP_RUNS * len(SWEEP_QS) \
                    or len(agg) != len(SWEEP_SNRS) * len(SWEEP_QS):
                problems[label].append("wrong record count")
            try:
                rates = [float(row[key]) for row in runs + agg
                         for key in ("fdp", "power", "fdr") if key in row]
            except (TypeError, ValueError):
                rates = [math.nan]
            if not all(0.0 <= r <= 1.0 for r in rates):
                problems[label].append("a rate is not a number in [0, 1]")
            contents[label] = (runs, agg)
        # the sweep claims identical records whether run serially or on a
        # pool; the pool call fails when they differ in any bit
        serial = contents.get("simulate-t1")
        for label, records in contents.items():
            if serial is not None and records != serial:
                problems[label].append("records differ from the serial run")
        return problems

    def stages(self, calls) -> dict:
        reps = len(SWEEP_SNRS) * SWEEP_RUNS
        out = {"sweep_reps_per_s": [], "sweep_reps_per_s_2t": []}
        for call in calls:
            key = "sweep_reps_per_s" if call.label == "simulate-t1" \
                else "sweep_reps_per_s_2t"
            out[key].append(reps / call.seconds)
        return out


# ---------------------------------------------------------------------------
# pfa-table


class PfaTable:
    name = "pfa-table"

    def __init__(self, workdir, seed, nproc):
        self.dir = workdir
        self.seed = seed
        self.reference = os.path.join(workdir, "ref.csv")

    def prepare(self) -> None:
        """The README's truncated Gaussian reference (30 bands, centre 15,
        truncated 6 bands out), its FWHM drawn from the seed around 5."""
        rng = np.random.default_rng([self.seed, 3])
        fwhm = 5.0 + float(rng.uniform(-0.1, 0.1))
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        u = np.arange(30, dtype=float) - 15
        values = np.where(np.abs(u) <= 6.0, np.exp(-0.5 * (u / sigma) ** 2),
                          0.0)
        values /= np.linalg.norm(values)
        np.savetxt(self.reference, values[None, :], fmt="%.17g",
                   delimiter=",")

    def plan(self, traced: bool) -> list:
        return [("pfa-bound",
                 ["pfa-bound", "--reference", self.reference,
                  "--center-band", "15", "--tau", "8", "--m-range", "2..20",
                  "--alpha", "0.05"], ["stdout"])]

    def check(self, calls) -> dict:
        return {call.label: self._check_table(call.stdout) for call in calls}

    @staticmethod
    def _check_table(text) -> list:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["m", "eta_bound", "eta_orthogonal",
                                   "expected_gain"]:
            return ["table header missing"]
        try:
            table = np.array([[float(v) for v in row] for row in rows[1:]])
        except ValueError as exc:
            return [f"table unreadable: {exc}"]
        bad = []
        if table.shape != (19, 4) or \
                not np.array_equal(table[:, 0], np.arange(2, 21)):
            return [f"table shape {table.shape}"]
        if np.any(table[:, 1] > table[:, 2]):
            bad.append("eta_bound above eta_orthogonal")
        if np.any(np.diff(table[:, 1:3], axis=0) < 0):
            bad.append("thresholds decrease in m")
        if not np.all(np.isfinite(table)) or np.any(table[:, 3] <= 0):
            bad.append("expected gain not positive")
        return bad

    def stages(self, calls) -> dict:
        return {"pfa_table_s": [call.seconds for call in calls]}


WORKLOADS = {w.name: w for w in (CubeSurvey, FdrSweep, PfaTable)}

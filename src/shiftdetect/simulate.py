"""Synthetic cubes, baseline detectors and the validation harnesses.

Everything here is deterministic given the config seed: replicate streams
derive their generators from (seed, replicate-index) key tuples, so results
do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dictionary import Dictionary
from .errors import DataError
from .fdr import bh_reject, detect
from .nullmodel import fit_null
from .pipeline import Cube
from .similarity import SimilarityKind
from .teststat import compute_field


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class NoiseSpec:
    """Marginal noise law: centered Gaussian(sigma) or Student-t(nu)."""

    family: str = "gaussian"
    sigma: float = 1.0
    nu: float = 5.0

    def __post_init__(self):
        if self.family not in ("gaussian", "student"):
            raise DataError(f"unknown noise family {self.family!r}")
        # written so that NaN fails each test
        if self.family == "gaussian" and not 0 < self.sigma < math.inf:
            raise DataError(f"sigma must be positive and finite: {self.sigma}")
        if self.family == "student" and not 2 < self.nu < math.inf:
            raise DataError(f"student noise needs finite nu > 2: {self.nu}")

    @property
    def marginal_variance(self) -> float:
        if self.family == "gaussian":
            return self.sigma ** 2
        return self.nu / (self.nu - 2.0)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self.family == "gaussian":
            return self.sigma * rng.standard_normal(shape)
        return rng.standard_t(self.nu, size=shape)


@dataclass(frozen=True)
class SimConfig:
    """One synthetic-cube experiment.

    signal_atom selects a fixed dictionary atom for every contaminated
    pixel; None draws an independent uniform shift on [-tau, tau] per pixel
    (which needs the dictionary's reference).  Amplitudes are drawn
    uniformly from amplitude_range (lo, hi), 0 <= lo <= hi < inf.
    target_snr, when set, must be finite and hi positive; it rescales the
    drawn amplitudes so the realized total signal energy matches
    10 log10(A / (n l sigma^2)) = target_snr.
    kernel_size k, when set, smooths every band with the uniform k x k
    kernel of weights 1/k, which keeps the noise variance.
    """

    n_y: int
    n_x: int
    noise: NoiseSpec
    dictionary: Dictionary
    pi0: float
    amplitude_range: tuple = (0.1, 3.0)
    seed: int = 0
    kernel_size: Optional[int] = None
    signal_atom: Optional[int] = None
    target_snr: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.pi0 <= 1.0):
            raise DataError("pi0 must lie in (0, 1]")
        if self.n_y < 1 or self.n_x < 1:
            raise DataError(f"empty cube shape {self.n_y}x{self.n_x}")
        lo, hi = self.amplitude_range
        if not 0 <= lo <= hi < math.inf:
            raise DataError(f"bad amplitude range {self.amplitude_range}")
        if self.kernel_size is not None and self.kernel_size < 1:
            raise DataError(f"uniform kernel size must be >= 1, "
                            f"got {self.kernel_size}")
        if self.signal_atom is not None and not (
                0 <= self.signal_atom < self.dictionary.m):
            raise DataError("signal_atom out of range")
        if self.target_snr is not None and not math.isfinite(
                self.target_snr):
            raise DataError(f"target_snr must be finite: {self.target_snr}")
        if self.target_snr is not None and not hi > 0:
            raise DataError("target_snr needs an amplitude range above 0")

    @property
    def n(self) -> int:
        return self.n_y * self.n_x

    @property
    def l(self) -> int:
        return self.dictionary.length


@dataclass(frozen=True)
class GroundTruth:
    """Where signal actually sits in the generated cube.

    h1_mask marks every pixel whose mean is nonzero in the final cube
    (after any spatial convolution, which spreads the injected signal onto
    neighbors); amplitudes and true_shifts are nonzero / finite exactly on
    the injected pixels.
    """

    h1_mask: np.ndarray
    amplitudes: np.ndarray
    true_shifts: np.ndarray

    @property
    def n_h1(self) -> int:
        return int(np.count_nonzero(self.h1_mask))


def signal_energy_for_snr(config: SimConfig, snr_db: float) -> float:
    """Total signal energy A at which the sweep axis
    10 log10(A / (n l sigma^2)) equals snr_db."""
    return config.n * config.l * config.noise.marginal_variance \
        * 10.0 ** (snr_db / 10.0)


def generate(config: SimConfig) -> tuple:
    """Draw one cube and its ground truth, deterministically from the seed.

    Draw order is fixed (noise cube, contaminated-pixel choice, amplitudes,
    shifts) so identical configs give bit-identical output.  The lines are
    added into the noise cube in place, so a call holds one cube buffer,
    plus the output of the smoothing when kernel_size is set.
    """
    from scipy import ndimage
    rng = np.random.default_rng(config.seed)
    n_y, n_x, l = config.n_y, config.n_x, config.l
    data = config.noise.draw(rng, (n_y, n_x, l))

    n = config.n
    n1 = int(round((1.0 - config.pi0) * n))
    picked = rng.choice(n, size=n1, replace=False) if n1 else np.empty(0, int)
    lo, hi = config.amplitude_range
    amps = rng.uniform(lo, hi, size=n1)
    if config.target_snr is not None and n1:
        energy = float(np.sum(amps ** 2))
        amps = amps * math.sqrt(signal_energy_for_snr(config,
                                                      config.target_snr)
                                / energy)
    if config.signal_atom is not None:
        shifts = np.full(n1, config.dictionary.shifts[config.signal_atom])
        lines = amps[:, None] * config.dictionary.atoms[config.signal_atom]
    else:
        ref = config.dictionary.reference
        if ref is None:
            raise DataError("uniform-shift injection needs a dictionary "
                            "with its reference attached")
        tau = config.dictionary.tau
        shifts = rng.uniform(-tau, tau, size=n1)
        lines = np.empty((n1, l))
        for i, u in enumerate(shifts):
            v = ref.unit_shift(u)
            if v is None:   # a None row would be NaN, not an error
                raise DataError("injected shift leaves no support")
            lines[i] = amps[i] * v

    rows, cols = picked // n_x, picked % n_x
    # picked has no repeats, so each line is added once
    data[rows, cols, :] += lines
    del lines
    injected = np.zeros((n_y, n_x), dtype=bool)
    injected[rows, cols] = True
    k = config.kernel_size
    if k is not None:
        data = ndimage.convolve(data, np.ones((k, k, 1)) / k, mode="reflect")
        h1_mask = ndimage.binary_dilation(injected,
                                          structure=np.ones((k, k), bool))
    else:
        h1_mask = injected

    amplitudes = np.zeros((n_y, n_x))
    amplitudes[rows, cols] = amps
    true_shifts = np.full((n_y, n_x), np.nan)
    true_shifts[rows, cols] = shifts
    return (Cube(data=data), GroundTruth(h1_mask=h1_mask,
                                         amplitudes=amplitudes,
                                         true_shifts=true_shifts))


# ---------------------------------------------------------------------------
# baseline detectors


def glr_field(cube, dictionary: Dictionary, sigma_diag) -> np.ndarray:
    """1-sparse non-negative GLR score of every pixel: the largest
    standardized whitened matched-filter response
    max_j d_j' S^-1 y / sqrt(d_j' S^-1 d_j) with diagonal S (the
    least-negative one when every coefficient estimate is non-positive).
    Returns a flat array in row-major pixel order."""
    data = getattr(cube, "data", cube)
    data = np.asarray(data, dtype=float)
    spectra = data.reshape(-1, dictionary.length)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    if np.any(sigma_diag <= 0):
        raise DataError("sigma_diag must be strictly positive")
    num = (spectra / sigma_diag) @ dictionary.atoms.T
    den = np.sqrt(np.sum(dictionary.atoms ** 2 / sigma_diag, axis=1))
    return (num / den).max(axis=1)


def calibrate_glr_null(dictionary: Dictionary, seed: int = 0) -> np.ndarray:
    """Null sample of the GLR statistic under N(0, I) noise from 10^4
    Monte-Carlo draws, sorted."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((10 ** 4, dictionary.length))
    stats = (eps @ dictionary.atoms.T).max(axis=1)
    return np.sort(stats)

def glr_pvalues(stats, null_sample: np.ndarray) -> np.ndarray:
    """Empirical survival-function p-values against a stored null sample."""
    stats = np.asarray(stats, dtype=float)
    n = null_sample.size
    below = np.searchsorted(null_sample, stats, side="left")
    return (n - below) / n


def _residual_band_variances(data: np.ndarray, dictionary: Dictionary,
                             null_sample: np.ndarray) -> np.ndarray:
    """Per-band noise variances estimated from 1-sparse fit residuals.

    A robust initial scale screens for clear detections (initial statistic
    beyond the calibration sample's 99.9% point); the best-fitting atom
    contribution is removed from those pixels only, and the band variances
    of the cleaned cube are returned.  Subtracting the fit everywhere would
    deflate the noise energy of every null pixel; subtracting nowhere lets
    strong signals inflate the scales.
    """
    flat = data.reshape(-1, dictionary.length)
    med = np.median(flat, axis=0)
    rough = (1.4826 * np.median(np.abs(flat - med), axis=0)) ** 2
    stats0 = (flat / rough) @ dictionary.atoms.T
    den = np.sum(dictionary.atoms ** 2 / rough, axis=1)
    standardized = stats0 / np.sqrt(den)
    cut = null_sample[min(int(math.ceil(0.999 * null_sample.size)),
                          null_sample.size - 1)]
    strong = standardized.max(axis=1) > cut
    resid = flat.copy()
    if np.any(strong):
        coef = stats0[strong] / den
        jhat = np.argmax(standardized[strong], axis=1)
        rows = np.arange(coef.shape[0])
        ahat = np.maximum(coef[rows, jhat], 0.0)
        resid[strong] -= ahat[:, None] * dictionary.atoms[jhat]
    return np.var(resid, axis=0, ddof=1)


# ---------------------------------------------------------------------------
# scoring


@dataclass(frozen=True)
class Metrics:
    false_detections: int
    true_detections: int
    fdp: float
    power: float


def score(detected, truth: GroundTruth) -> Metrics:
    """Count detections against the ground truth.

    `detected` is a boolean map or a flat boolean vector in row-major pixel
    order.
    """
    detected = np.asarray(detected)
    if detected.size != truth.h1_mask.size:
        raise DataError("detection map and truth shapes differ")
    detected = detected.reshape(truth.h1_mask.shape)
    r = int(np.count_nonzero(detected))
    tp = int(np.count_nonzero(detected & truth.h1_mask))
    fp = r - tp
    n_h1 = truth.n_h1
    return Metrics(false_detections=fp, true_detections=tp,
                   fdp=fp / max(r, 1),
                   power=tp / n_h1 if n_h1 else 0.0)


# ---------------------------------------------------------------------------
# validation harnesses


def _derived_seed(*key) -> np.random.SeedSequence:
    return np.random.SeedSequence(key)


def _openblas_function(name: str):
    """The `name` function (get_num_threads, set_num_threads) of numpy's
    bundled OpenBLAS, under any of its symbol prefixes; None when no such
    library is found."""
    import ctypes
    import glob
    import os
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("openblas_", "64_"), ("openblas_", "")):
            function = getattr(lib, f"{prefix}{name}{suffix}", None)
            if function is not None:
                return function
    return None


def _one_blas_thread() -> None:
    """Pool initializer of `fdr_snr_sweep`: cap this process's OpenBLAS at
    one thread (a no-op without one), so that a worker does not run one
    BLAS thread per core beside the other workers."""
    set_num_threads = _openblas_function("set_num_threads")
    if set_num_threads is not None:
        set_num_threads(1)


def _sweep_replicate(task):
    """One (snr, replicate) cell of the FDR sweep from its fit and test
    configs; module-level so worker processes can pickle it."""
    fit_cfg, test_cfg, kind, rep, q_list = task
    fit_cube, _ = generate(fit_cfg)
    test_cube, truth = generate(test_cfg)
    model = fit_null(compute_field(fit_cube, fit_cfg.dictionary, kind))
    test_field = compute_field(test_cube, test_cfg.dictionary, kind)
    # one decision per field; every level reads from it
    result = detect(model, test_field)
    out = []
    for q in q_list:
        m = score(test_field.to_map(result.detected_at(q)), truth)
        out.append({"snr": fit_cfg.target_snr, "q": q, "rep": rep,
                    "fdp": m.fdp, "power": m.power,
                    "detections": m.true_detections + m.false_detections,
                    "pi0_hat": model.pi0_hat})
    return out


def fdr_snr_sweep(dictionary: Dictionary, snr_list, q_list, runs: int,
                  seed: int = 0, test_shape=(51, 51), fit_shape=(200, 200),
                  noise: NoiseSpec = NoiseSpec("student", nu=5.0),
                  pi0: float = 0.81,
                  kernel_size: Optional[int] = 3,
                  kind: SimilarityKind = SimilarityKind.SPECTRAL_ANGLE,
                  threads: int = 1):
    """Empirical FDR and power on spatially convolved cubes across a grid
    of nominal levels and signal strengths.

    Every contaminated pixel carries the central atom (index m // 2).  The
    cubes are smoothed with the uniform kernel_size x kernel_size kernel
    of `SimConfig`, 3x3 unless given; None leaves them unsmoothed.  The
    null model is refit per replicate on an extended cube drawn from the
    same contaminated process, then applied to the test cube; all nominal
    levels share each replicate.  Replicates draw their seeds from (seed,
    snr-index, replicate) so results are identical whether run serially or
    on a worker pool; the levels and all their configs are checked before
    the first cube is drawn.  Each pool worker computes on one BLAS
    thread; a serial run keeps the caller's BLAS setting.  Returns
    (records, aggregate): per-run dicts and mean FDR / power keyed by
    (snr, q).
    """
    if runs < 1:
        raise DataError(f"runs must be >= 1, got {runs}")
    if len(snr_list) == 0 or len(q_list) == 0:
        raise DataError("snr_list and q_list must be non-empty")
    if not all(0.0 <= q < 1.0 for q in q_list):
        raise DataError("q must lie in [0, 1)")
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    tasks = []
    for snr_idx, snr_db in enumerate(snr_list):
        for rep in range(runs):
            # the SNR axis normalizes by each cube's own pixel count, so
            # fit and test cubes get the same per-pixel amplitude law
            fit_cfg = SimConfig(
                n_y=fit_shape[0], n_x=fit_shape[1], noise=noise,
                dictionary=dictionary, pi0=pi0,
                seed=_derived_seed(seed, snr_idx, rep, 0),
                kernel_size=kernel_size, signal_atom=dictionary.m // 2,
                target_snr=snr_db)
            test_cfg = replace(fit_cfg, n_y=test_shape[0], n_x=test_shape[1],
                               seed=_derived_seed(seed, snr_idx, rep, 1))
            tasks.append((fit_cfg, test_cfg, kind, rep, tuple(q_list)))
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        # forked workers inherit the parent's modules: imported once here,
        # scipy.ndimage is not imported again in every worker
        from scipy import ndimage  # noqa: F401
        with ProcessPoolExecutor(max_workers=threads,
                                 initializer=_one_blas_thread) as pool:
            chunks = list(pool.map(_sweep_replicate, tasks, chunksize=4))
    else:
        chunks = [_sweep_replicate(t) for t in tasks]
    records = [row for chunk in chunks for row in chunk]
    return records, _mean_fdr_power(records, "snr", snr_list, q_list)


def _mean_fdr_power(records, key: str, groups, q_list) -> dict:
    """Mean FDP (as "fdr") and power of the records per (record[key], q)."""
    aggregate = {}
    for group in groups:
        for q in q_list:
            sel = [r for r in records if r[key] == group and r["q"] == q]
            aggregate[(group, q)] = {
                "fdr": float(np.mean([r["fdp"] for r in sel])),
                "power": float(np.mean([r["power"] for r in sel])),
            }
    return aggregate


def glr_contrast(dictionary: Dictionary, noise: NoiseSpec, q_list,
                 runs: int = 200, seed: int = 0):
    """Head-to-head FDR/power of the empirical-null max test versus a
    Gaussian-calibrated GLR baseline on the same cubes.

    Each replicate draws a 50x50 test cube and a 200x200 fit cube with
    pi0 = 0.97, the central atom (index m // 2) and amplitudes uniform on
    [8, 12].  The GLR is calibrated once per dictionary by 10^4
    Monte-Carlo draws under unit normal noise; its per-band noise
    variances are re-estimated on each cube.  The max test uses the
    matched-filter score and fits its null on the fit cube (the fit-large
    / test-small workflow).  The levels are checked before the first cube
    is drawn.  Returns (records, aggregate) with mean FDR and power per
    (method, q).
    """
    if runs < 1:
        raise DataError(f"runs must be >= 1, got {runs}")
    if len(q_list) == 0:
        raise DataError("q_list must be non-empty")
    if not all(0.0 <= q < 1.0 for q in q_list):
        raise DataError("q must lie in [0, 1)")
    null_sample = calibrate_glr_null(dictionary,
                                     seed=_derived_seed(seed, 0xca1))
    records = []
    for rep in range(runs):
        cfg = SimConfig(n_y=50, n_x=50, noise=noise, dictionary=dictionary,
                        pi0=0.97, amplitude_range=(8.0, 12.0),
                        seed=_derived_seed(seed, rep),
                        signal_atom=dictionary.m // 2)
        fit_cfg = replace(cfg, n_y=200, n_x=200,
                          seed=_derived_seed(seed, rep, 0xf17))
        cube, truth = generate(cfg)
        fit_cube, _ = generate(fit_cfg)
        field = compute_field(cube, dictionary,
                              SimilarityKind.MATCHED_FILTER)
        model = fit_null(compute_field(fit_cube, dictionary,
                                       SimilarityKind.MATCHED_FILTER))
        sigma_diag = _residual_band_variances(cube.data, dictionary,
                                              null_sample)
        g_stats = glr_field(cube, dictionary, sigma_diag)
        # one decision per field; every level reads from it
        res = detect(model, field)
        g_res = bh_reject(glr_pvalues(g_stats, null_sample))
        for q in q_list:
            for method, detected in (
                    ("maxtest", field.to_map(res.detected_at(q))),
                    ("glr", g_res.detected_at(q))):
                m = score(detected, truth)
                records.append({"method": method, "q": q, "rep": rep,
                                "fdp": m.fdp, "power": m.power})
    return records, _mean_fdr_power(records, "method", ("maxtest", "glr"),
                                    q_list)


def disk_mask(shape, center, n_pixels: int) -> np.ndarray:
    """Boolean mask of the n_pixels grid points closest to `center`
    (deterministic tie-break by row-major order): a pixelated disk."""
    yy, xx = np.indices(shape)
    d2 = (yy - center[0]) ** 2 + (xx - center[1]) ** 2
    order = np.argsort(d2.ravel(), kind="stable")
    mask = np.zeros(shape[0] * shape[1], dtype=bool)
    mask[order[:n_pixels]] = True
    return mask.reshape(shape)

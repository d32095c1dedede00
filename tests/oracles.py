"""Scalar reference implementations that the vectorized library paths are
checked against: `similarity` for `similarity.score_matrix`,
`glr_statistic` for `simulate.glr_field`, and `bvnu` and `tvn` for the
array kernels of `pfabound`.  They work on one input at a time, written
straight from the definitions or the published algorithms.

`fit_null_sorted`, `piecewise_linear_shift` and the `csv.writer` writers
are the earlier, plainer forms of `nullmodel.fit_null`, of the fractional
`ReferenceAtom.sampled_shift`, of the fit-artifact writers and of
`pipeline.save_cube` (`save_cube_tobytes`); the library code must
reproduce their results bit for bit.  `compute_field_rowwise`,
`standardize_nanmedian` (and `preprocess_where_fill`, the steps around
it) and `check_nan_policy_per_pixel` are the earlier forms of
`teststat.compute_field`, of `pipeline.preprocess` and of
`pipeline._check_nan_policy`; the library
reproduces them bit for bit up to the sign of a zero (see
`equal_up_to_zero_sign`)."""

import csv
import math
import struct
import warnings

import numpy as np
from scipy.special import ndtr

from shiftdetect.errors import DataError
from shiftdetect.nullmodel import NullModel
from shiftdetect.pfabound import _rules
from shiftdetect.pipeline import Cube
from shiftdetect.similarity import SimilarityKind, score_matrix
from shiftdetect.teststat import TestField, masked_spectra

_TWOPI = 2.0 * math.pi
_GL20_X, _GL20_W, _PATH_T, _PATH_W = _rules()


def similarity(kind: SimilarityKind, y, d) -> float:
    """Score one spectrum against one atom.

    MATCHED_FILTER returns <d/||d||, y>; SPECTRAL_ANGLE returns the cosine
    <d, y> / (||d|| ||y||), defined as 0 when ||y|| = 0 (the only value
    consistent with oddness).
    """
    kind = SimilarityKind(kind)
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    if y.shape != d.shape or y.ndim != 1:
        raise DataError("y and d must be 1-d vectors of equal length")
    dnorm = np.linalg.norm(d)
    if dnorm <= 0:
        raise DataError("zero atom")
    if kind is SimilarityKind.MATCHED_FILTER:
        return float((d / dnorm) @ y)
    ynorm = np.linalg.norm(y)
    if ynorm == 0.0:
        return 0.0
    return float((d @ y) / (dnorm * ynorm))


def glr_statistic(y, dictionary, sigma_diag) -> float:
    """1-sparse non-negative GLR score: the largest standardized whitened
    matched-filter response max_j d_j' S^-1 y / sqrt(d_j' S^-1 d_j) with
    diagonal S.  When every coefficient estimate is non-positive this is
    the least-negative standardized score."""
    y = np.asarray(y, dtype=float)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    if y.shape != (dictionary.length,) or sigma_diag.shape != y.shape:
        raise DataError("y and sigma_diag must have the atom length")
    if np.any(sigma_diag <= 0):
        raise DataError("sigma_diag must be strictly positive")
    num = dictionary.atoms @ (y / sigma_diag)
    den = np.sqrt(np.sum(dictionary.atoms ** 2 / sigma_diag, axis=1))
    return float(np.max(num / den))


def bvnu(dh: float, dk: float, r: float) -> float:
    """Upper bivariate normal probability P(X > dh, Y > dk) for standard
    margins with correlation r, one branch per case.

    Port of the Drezner-Wesolowsky / Genz algorithm: a Gauss-Legendre
    evaluation of the arcsine-parametrized integral for |r| < 0.925 and the
    transformed complementary expansion above that.
    """
    if np.isposinf(dh) or np.isposinf(dk):
        return 0.0
    if np.isneginf(dh):
        return 1.0 if np.isneginf(dk) else float(ndtr(-dk))
    if np.isneginf(dk):
        return float(ndtr(-dh))
    if r == 0.0:
        return float(ndtr(-dh) * ndtr(-dk))
    if r >= 1.0:
        return float(ndtr(-max(dh, dk)))
    if r <= -1.0:
        return float(max(0.0, ndtr(-dh) - ndtr(dk)))

    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(r)
        sn = np.sin(0.5 * asr * (1.0 + _GL20_X))
        bvn = float(np.sum(_GL20_W * np.exp((sn * hk - hs) / (1.0 - sn * sn))))
        return max(0.0, min(1.0, bvn * asr / (2.0 * _TWOPI)
                            + float(ndtr(-h) * ndtr(-k))))

    if r < 0.0:
        k = -k
        hk = -hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -0.5 * (bs / a_sq + hk)
    if asr > -100.0:
        bvn = a * math.exp(asr) * (1.0 - c * (bs - a_sq)
                                   * (1.0 - d * bs / 5.0) / 3.0
                                   + c * d * a_sq * a_sq / 5.0)
    if -hk < 100.0:
        b = math.sqrt(bs)
        sp = math.sqrt(_TWOPI) * float(ndtr(-b / a))
        bvn -= math.exp(-0.5 * hk) * sp * b * (1.0 - c * bs
                                               * (1.0 - d * bs / 5.0) / 3.0)
    half_a = 0.5 * a
    # the symmetric node set covers both mirror points (1 - x) and (1 + x)
    xs = (half_a * (_GL20_X + 1.0)) ** 2
    rs = np.sqrt(1.0 - xs)
    asr_v = -0.5 * (bs / xs + hk)
    keep = asr_v > -100.0
    sp_v = 1.0 + c * xs * (1.0 + d * xs)
    ep_v = np.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
    bvn += half_a * float(np.sum(
        np.where(keep, _GL20_W * np.exp(asr_v) * (ep_v - sp_v), 0.0)))
    bvn = -bvn / _TWOPI
    if r > 0.0:
        bvn += float(ndtr(-max(h, k)))
    else:
        bvn = -bvn + max(0.0, float(ndtr(-h) - ndtr(-k)))
    return max(0.0, min(1.0, bvn))


def _phi2(x: float, y: float, rho) -> np.ndarray:
    """Bivariate normal density at (x, y), vectorized over rho."""
    det = 1.0 - rho * rho
    q = (x * x - 2.0 * rho * x * y + y * y) / det
    return np.exp(-0.5 * q) / (_TWOPI * np.sqrt(det))


def _tvn_corr_path_term(b_i, b_j, b_k, rho_ij_target, rho_ki_t, rho_kj_t):
    """Integrand of Plackett's identity for a scaled correlation rho_ij(t):
    rho_ij_target * phi2(b_i, b_j; t rho_ij) * Phi(conditional b_k),
    vectorized over the path nodes."""
    rho_ij = _PATH_T * rho_ij_target
    det = 1.0 - rho_ij * rho_ij
    mu = ((rho_ki_t - rho_ij * rho_kj_t) * b_i
          + (rho_kj_t - rho_ij * rho_ki_t) * b_j) / det
    var = 1.0 - (rho_ki_t ** 2 + rho_kj_t ** 2
                 - 2.0 * rho_ij * rho_ki_t * rho_kj_t) / det
    var = np.maximum(var, 0.0)
    sd = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, (b_k - mu) / np.where(sd > 0, sd, 1.0),
                     np.where(b_k >= mu, np.inf, -np.inf))
    return rho_ij_target * _phi2(b_i, b_j, rho_ij) * ndtr(z)


def tvn(h: float, k: float, j: float, rho12: float, rho13: float,
        rho23: float) -> float:
    """P(X1 <= h, X2 <= k, X3 <= j) for a standard trivariate normal with a
    valid correlation triple.

    Singular pairs (|rho| = 1) reduce exactly to bivariate probabilities;
    otherwise the largest correlation is held fixed and the other two are
    scaled from zero along a linear path, integrating Plackett's derivative
    identity with Gauss-Legendre quadrature.
    """
    b = np.array([h, k, j], dtype=float)
    rho = np.array([rho12, rho13, rho23], dtype=float)
    corr = np.array([[1.0, rho12, rho13],
                     [rho12, 1.0, rho23],
                     [rho13, rho23, 1.0]])
    for (i1, i2), r in (((0, 1), rho12), ((0, 2), rho13), ((1, 2), rho23)):
        if abs(r) >= 1.0 - 1e-14:
            i3 = 3 - i1 - i2
            pair_r = corr[i1, i3]
            if r > 0:
                return bvnu(-min(b[i1], b[i2]), -b[i3], pair_r)
            lo, hi = -b[i2], b[i1]
            if lo >= hi:
                return 0.0
            return max(0.0, bvnu(-hi, -b[i3], pair_r)
                       - bvnu(-lo, -b[i3], pair_r))

    fixed_pair = int(np.argmax(np.abs(rho)))
    if fixed_pair == 0:      # (1,2) largest: variable 3 becomes variable 1
        b1, b2, b3 = b[2], b[0], b[1]
        r21, r31, r32 = rho13, rho23, rho12
    elif fixed_pair == 1:    # (1,3) largest: variable 2 becomes variable 1
        b1, b2, b3 = b[1], b[0], b[2]
        r21, r31, r32 = rho12, rho23, rho13
    else:
        b1, b2, b3 = b[0], b[1], b[2]
        r21, r31, r32 = rho12, rho13, rho23

    total = float(ndtr(b1)) * bvnu(-b2, -b3, r32)
    if r21 != 0.0:
        term = _tvn_corr_path_term(b1, b2, b3, r21,
                                   _PATH_T * r31, np.full_like(_PATH_T, r32))
        total += float(np.sum(_PATH_W * term))
    if r31 != 0.0:
        term = _tvn_corr_path_term(b1, b3, b2, r31,
                                   _PATH_T * r21, np.full_like(_PATH_T, r32))
        total += float(np.sum(_PATH_W * term))
    return max(0.0, min(1.0, total))


def fit_null_sorted(field) -> NullModel:
    """`fit_null` by two full stable sorts: mu0_hat is the mean of the
    middle pair of the sorted pool, g0 the last n0 of the stably sorted
    flipped minima."""
    tmax = np.asarray(field.tmax, dtype=float)
    neg_min = -np.asarray(field.tmin, dtype=float)
    n = tmax.size
    if n < 2:
        raise DataError("need at least two tested pixels")
    pool = np.concatenate([tmax, neg_min])
    if np.all(pool == pool[0]):
        raise DataError("degenerate field: all statistics identical")
    spool = np.sort(pool, kind="stable")
    mu0 = 0.5 * (spool[n - 1] + spool[n])
    s0 = tmax[tmax <= mu0]
    n0 = int(s0.size)
    if n0 == 0:
        raise DataError("degenerate field: no max statistics at or below "
                        "the pooled median")
    g0 = np.sort(neg_min, kind="stable")[-n0:]
    pooled = np.sort(np.concatenate([s0, g0]), kind="stable")
    return NullModel(mu0_hat=float(mu0), pi0_hat=min((2 * n0) / n, 1.0),
                     n0=n0, n_fit=n, pooled=pooled)


def piecewise_linear_shift(reference, shift) -> np.ndarray:
    """Fractional shift of a reference without a line model, through an
    explicit piecewise-linear model of its samples (zero outside them):
    the model at the shifted band offsets over its norm at the unshifted
    ones."""
    grid = np.arange(reference.length, dtype=float) - reference.center_band
    values = reference.values.copy()

    def model(u):
        return np.interp(np.asarray(u, dtype=float), grid, values,
                         left=0.0, right=0.0)

    offsets = np.arange(reference.length, dtype=float) \
        - reference.center_band - float(shift)
    base = model(np.arange(reference.length, dtype=float)
                 - reference.center_band)
    return model(offsets) / np.linalg.norm(base)


def write_null_csv(model, path) -> None:
    """The NullModel CSV written row by row through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu0_hat", "pi0_hat", "n0", "n_fit"])
        writer.writerow(["%.17g" % model.mu0_hat, "%.17g" % model.pi0_hat,
                         model.n0, model.n_fit])
        for v in model.pooled:
            writer.writerow(["%.17g" % v])


def write_dictionary_csv(dictionary, path) -> None:
    """The Dictionary CSV written row by row through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["%.17g" % s for s in dictionary.shifts])
        for row in dictionary.atoms:
            writer.writerow(["%.17g" % v for v in row])


def save_cube_tobytes(cube, path) -> None:
    """`pipeline.save_cube` with a `.tobytes()` copy of every block."""
    n_y, n_x, l = cube.shape
    flags = int(cube.variance is not None)
    with open(path, "wb") as fh:
        fh.write(b"FDC1")
        fh.write(struct.pack("<IIIIi", n_y, n_x, l, flags, cube.band_origin))
        for block in (cube.data, cube.variance)[:1 + flags]:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def equal_up_to_zero_sign(a, b) -> bool:
    """Same dtype, shape and bytes once every zero is read as +0.0 and
    every NaN as numpy's NaN (infinite input can give NaNs of either
    sign)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    a, b = (np.where(x == 0, 0.0, np.where(np.isnan(x), np.nan, x))
            for x in (a, b))
    return a.tobytes() == b.tobytes()


def compute_field_rowwise(cube, dictionary, kind) -> TestField:
    """`compute_field` with per-pixel NaN counts and a copy of the unmasked
    spectra on every call, and max, min and argmax taken along the atom
    axis of the (pixel, atom) scores."""
    data = np.asarray(getattr(cube, "data", cube), dtype=float)
    if data.ndim == 2:
        data = data[:, None, :]
    if data.ndim != 3:
        raise DataError("expected a (n_y, n_x, l) cube or (n, l) spectra")
    if data.shape[2] != dictionary.length:
        raise DataError(
            f"cube has {data.shape[2]} bands but atoms have length "
            f"{dictionary.length}")
    n_y, n_x, l = data.shape
    flat = data.reshape(-1, l)
    nan_count = np.isnan(flat).sum(axis=1)
    masked = nan_count == l
    if np.any((nan_count > 0) & ~masked):
        raise DataError("NaNs allowed only in fully masked pixels")
    valid = np.nonzero(~masked)[0]
    scores = score_matrix(flat[valid], dictionary.atoms, kind)
    return TestField(tmax=scores.max(axis=1), tmin=scores.min(axis=1),
                     argmax_atom=scores.argmax(axis=1), rows=valid // n_x,
                     cols=valid % n_x, shape=(n_y, n_x))


def standardize_nanmedian(cube, use_variance) -> np.ndarray:
    """`preprocess` without baseline or kernel: division by sqrt(variance),
    then each band centred on its `np.nanmedian` and scaled by 1.4826 times
    the `np.nanmedian` of its absolute deviations, a new array each step."""
    data = cube.data.copy()
    if use_variance:
        data = data / np.sqrt(cube.variance)
    for b in range(data.shape[2]):
        band = data[:, :, b]
        with warnings.catch_warnings():     # "All-NaN slice encountered"
            warnings.simplefilter("ignore", RuntimeWarning)
            band = band - np.nanmedian(band)
            scale = 1.4826 * np.nanmedian(np.abs(band))
        if not np.isfinite(scale) or scale <= 0:
            raise DataError(f"degenerate band {b}: zero spread")
        data[:, :, b] = band / scale
    return data


def preprocess_where_fill(cube, use_variance, baseline, kernel) -> np.ndarray:
    """`preprocess` as it ran before the band-major standardization: the
    baseline step, `standardize_nanmedian`, then a NaN-to-zero copy of the
    whole cube for the convolution and NaN back on the masked pixels."""
    from scipy import ndimage
    data = cube.data
    if baseline is not None:
        data = data - ndimage.median_filter(data, size=(1, 1, baseline),
                                            mode="reflect")
    data = standardize_nanmedian(Cube(data=data, variance=cube.variance),
                                 use_variance)
    if kernel is not None:
        masked = masked_spectra(cube.data)
        data = ndimage.convolve(np.where(np.isnan(data), 0.0, data),
                                kernel.weights[:, :, None], mode="reflect")
        if masked is not None:
            data[masked] = np.nan
    return data


def check_nan_policy_per_pixel(cube) -> None:
    """`_check_nan_policy` from per-pixel NaN counts of data and variance,
    whether or not the cube holds a NaN."""
    flat = cube.data.reshape(-1, cube.shape[2])
    counts = np.isnan(flat).sum(axis=1)
    if np.any((counts > 0) & (counts < cube.shape[2])):
        raise DataError("NaNs allowed only in fully masked pixels")
    if cube.variance is not None:
        vcounts = np.isnan(cube.variance.reshape(flat.shape)).sum(axis=1)
        if np.any(vcounts != counts):
            raise DataError("variance mask must match data mask")

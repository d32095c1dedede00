"""False-alarm analysis of the max statistic under i.i.d. Gaussian noise.

For orthogonal atoms the false-alarm probability of the max test has the
closed form 1 - Phi(eta)^m.  For a coherent linearly-spaced-shift
dictionary it does not, but a recursive product of conditional orthant
probabilities gives a computable upper bound: each step multiplies by
Pr(z1 <= t | z2 <= t, z3 <= t) evaluated from trivariate and bivariate
normal CDFs, using the two nearest-neighbor correlations of the denser
grid.  The bound is sharp for uncorrelated atoms.

A table of thresholds over dictionary sizes does each piece of work
once: Gamma, the reference's autocorrelation in the shift, is checked
once per (reference, tau), each grid size's correlations are evaluated
once, and the factors of the recursion are shared across sizes, since
M_m(t) is a prefix of M_{m+1}(t).

The bivariate CDF follows the classic Drezner / Genz single-integral
scheme (including the transformed high-correlation branch); the trivariate
CDF integrates Plackett's correlation-derivative identity along a linear
correlation path with Gauss-Legendre quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri, roots_legendre

from .dictionary import Dictionary, autocorrelation
from .errors import DataError, NumericError

_TWOPI = 2.0 * math.pi

# Gauss-Legendre rule used by the bivariate integrand (20-point).
_GL20_X, _GL20_W = roots_legendre(20)
# Rule for the trivariate correlation-path integral on [0, 1].
_GL_PATH_X, _GL_PATH_W = roots_legendre(96)
_PATH_T = 0.5 * (_GL_PATH_X + 1.0)
_PATH_W = 0.5 * _GL_PATH_W
# Bisection width of every bound threshold.
_ETA_TOL = 1e-8


def _bvnu(dh: float, dk: float, r: float) -> float:
    """Upper bivariate normal probability P(X > dh, Y > dk) for standard
    margins with correlation r.

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


def normal_cdf_2d(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise DataError("correlation must lie in [-1, 1]")
    return _bvnu(-float(h), -float(k), float(rho))


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


def normal_cdf_3d(h: float, k: float, j: float, rho12: float, rho13: float,
                  rho23: float) -> float:
    """P(X1 <= h, X2 <= k, X3 <= j) for standard trivariate normal.

    The correlation triple must form a positive semidefinite matrix.
    Singular pairs (|rho| = 1) reduce exactly to bivariate calls; otherwise
    the largest correlation is held fixed and the other two are scaled from
    zero along a linear path, integrating Plackett's derivative identity.
    """
    b = np.array([h, k, j], dtype=float)
    rho = np.array([rho12, rho13, rho23], dtype=float)
    if np.any(np.abs(rho) > 1.0):
        raise DataError("correlations must lie in [-1, 1]")
    corr = np.array([[1.0, rho12, rho13],
                     [rho12, 1.0, rho23],
                     [rho13, rho23, 1.0]])
    if np.linalg.eigvalsh(corr)[0] < -1e-10:
        raise DataError("non-PSD correlation")

    # |rho| = 1 collapses two coordinates onto one.
    for (i1, i2), r in (((0, 1), rho12), ((0, 2), rho13), ((1, 2), rho23)):
        if abs(r) >= 1.0 - 1e-14:
            i3 = 3 - i1 - i2
            pair_r = corr[i1, i3]
            if r > 0:
                return normal_cdf_2d(min(b[i1], b[i2]), b[i3], pair_r)
            lo, hi = -b[i2], b[i1]
            if lo >= hi:
                return 0.0
            return max(0.0, normal_cdf_2d(hi, b[i3], pair_r)
                       - normal_cdf_2d(lo, b[i3], pair_r))

    # Permute so the pair with the largest |rho| is (2, 3); its correlation
    # stays fixed while the two correlations touching variable 1 are scaled,
    # which keeps the path integrand smooth for highly coherent grids.
    pairs = np.abs(rho)
    fixed_pair = int(np.argmax(pairs))
    if fixed_pair == 0:      # (1,2) largest: variable 3 becomes variable 1
        b1, b2, b3 = b[2], b[0], b[1]
        r21, r31, r32 = rho13, rho23, rho12
    elif fixed_pair == 1:    # (1,3) largest: variable 2 becomes variable 1
        b1, b2, b3 = b[1], b[0], b[2]
        r21, r31, r32 = rho12, rho23, rho13
    else:
        b1, b2, b3 = b[0], b[1], b[2]
        r21, r31, r32 = rho12, rho13, rho23

    base = float(ndtr(b1)) * normal_cdf_2d(b2, b3, r32)
    total = base
    if r21 != 0.0:
        term = _tvn_corr_path_term(b1, b2, b3, r21,
                                   _PATH_T * r31, np.full_like(_PATH_T, r32))
        total += float(np.sum(_PATH_W * term))
    if r31 != 0.0:
        term = _tvn_corr_path_term(b1, b3, b2, r31,
                                   _PATH_T * r21, np.full_like(_PATH_T, r32))
        total += float(np.sum(_PATH_W * term))
    return max(0.0, min(1.0, total))


def pfa_exact_orthogonal(m: int, eta: float) -> float:
    """Exact max-test false-alarm probability 1 - Phi(eta)^m for m
    orthogonal unit atoms under N(0, I) noise."""
    if m < 1:
        raise DataError("m must be >= 1")
    return float(-np.expm1(m * np.log(ndtr(eta)))) if ndtr(eta) > 0 else 1.0


def threshold_for_pfa_orthogonal(m: int, alpha: float) -> float:
    """Threshold with exact false-alarm alpha for m orthogonal atoms."""
    return float(ndtri((1.0 - alpha) ** (1.0 / m)))


def _check_neighbors(neighbors: str) -> None:
    if neighbors not in ("flanking", "one_sided"):
        raise DataError(f"unknown neighbor convention {neighbors!r}")


class _BoundRecursion:
    """The recursion M_m(t) for one (reference, tau, neighbors), doing each
    piece of work once.

    Gamma is validated on its grid at construction; the correlations of
    grid size s are evaluated once per s; and per threshold t the products
    M_2(t), M_3(t), ... are kept, so M_m(t) extends the prefix M_{m-1}(t)
    by one factor.  An instance lives for one computation: nothing is
    cached across calls.
    """

    def __init__(self, reference, tau: float, neighbors: str):
        _check_neighbors(neighbors)
        if reference is None:
            raise DataError("pfa_bound needs a dictionary built from a "
                            "reference (load_csv drops it); rebuild with "
                            "build_lss")
        grid = np.linspace(0.0, 2.0 * tau, 201)
        vals = np.array([autocorrelation(reference, u) for u in grid])
        if np.any(vals < -1e-9):
            raise NumericError("autocorrelation takes negative values: "
                               "comparison step invalid")
        if np.any(np.diff(vals) > 1e-9):
            raise NumericError("autocorrelation not non-increasing in the "
                               "shift: comparison step invalid")
        self._reference = reference
        self._tau = tau
        self._flanking = neighbors == "flanking"
        self._rho_two = self._gamma(2.0 * tau)
        self._rho_by_size = []        # (Gamma(delta), Gamma(2 delta)), s = 3..
        self._prefix_by_t = {}        # t -> [M_2(t), M_3(t), ...]

    def _gamma(self, u: float) -> float:
        return max(0.0, autocorrelation(self._reference, u))

    def _rho(self, size: int):
        for s in range(len(self._rho_by_size) + 3, size + 1):
            delta = 2.0 * self._tau / (s - 1)
            self._rho_by_size.append((self._gamma(delta),
                                      self._gamma(2.0 * delta)))
        return self._rho_by_size[size - 3]

    def pfa(self, t: float, m: int) -> float:
        """1 - M_m(t), clipped to [0, 1]; 1 once a denominator vanishes."""
        prefix = self._prefix_by_t.get(t)
        if prefix is None:
            prefix = self._prefix_by_t[t] = [
                normal_cdf_2d(t, t, self._rho_two)]
        # None marks a vanished denominator: the bound is 1 from there on
        while len(prefix) < m - 1 and prefix[-1] is not None:
            r1, r2 = self._rho(len(prefix) + 2)
            if self._flanking:
                den = normal_cdf_2d(t, t, r2)
                num = normal_cdf_3d(t, t, t, r1, r1, r2)
            else:
                den = normal_cdf_2d(t, t, r1)
                num = normal_cdf_3d(t, t, t, r1, r2, r1)
            prefix.append(None if den <= 0.0 else prefix[-1] * (num / den))
        big_m = prefix[min(m - 2, len(prefix) - 1)]
        if big_m is None:
            return 1.0
        return float(min(1.0, max(0.0, 1.0 - big_m)))

    def threshold(self, m: int, alpha: float) -> float:
        """Smallest t with 1 - M_m(t) <= alpha, by bisection to _ETA_TOL."""
        def big_m(t):
            return 1.0 - self.pfa(float(t), m)

        grid = np.linspace(-6.0, 8.0, 29)
        vals = np.array([big_m(t) for t in grid])
        if np.any(np.diff(vals) < -1e-10):
            raise NumericError("bound recursion not monotone in the "
                               "threshold")

        target = 1.0 - alpha
        lo, hi = -6.0, 8.0
        for _ in range(60):
            if big_m(lo) <= target:
                break
            lo -= 8.0
            if lo < -80.0:
                raise NumericError("bracketing failure (low side)")
        for _ in range(60):
            if big_m(hi) >= target:
                break
            hi += 8.0
            if hi > 80.0:
                raise NumericError("bracketing failure (high side)")
        while hi - lo > _ETA_TOL:
            mid = 0.5 * (lo + hi)
            if big_m(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def pfa_bound(dictionary: Dictionary, eta: float,
              neighbors: str = "flanking") -> float:
    """Upper bound on the max-test false-alarm probability at threshold eta.

    Evaluates the recursion
        M_2(t)   = P(z1 <= t, z2 <= t)                 [2-atom grid]
        M_{s}(t) = P(z1 <= t | z2 <= t, z3 <= t) M_{s-1}(t)
    where at size s the conditioned score z1 is judged against its two most
    correlated companions on the size-s grid, and returns 1 - M_m(eta).

    `neighbors` fixes which companions those are:

    * "flanking" (default): z1 is an interior atom and z2, z3 its two
      flanks at one grid step (correlations Gamma(delta), Gamma(delta);
      mutual correlation Gamma(2 delta)).  This makes the size-3 term the
      exact trivariate orthant probability and gives the tighter bound.
    * "one_sided": z1 is the first atom of the grid and z2, z3 the next
      two (correlations Gamma(delta), Gamma(2 delta)); the remaining
      scores then form a contiguous denser grid, which is the variant the
      Gaussian comparison argument covers step by step.

    Requires a dictionary whose autocorrelation is non-negative and
    non-increasing; collapses to the orthogonal closed form when all the
    involved correlations vanish.
    """
    _check_neighbors(neighbors)
    if dictionary.m == 1:
        return pfa_exact_orthogonal(1, eta)
    recursion = _BoundRecursion(dictionary.reference, dictionary.tau,
                                neighbors)
    return recursion.pfa(float(eta), dictionary.m)


def threshold_table(reference, tau: float, ms, alpha: float,
                    neighbors: str = "flanking") -> list:
    """Bound thresholds for the LSS dictionaries of sizes `ms` over
    [-tau, tau]: for each m the smallest threshold whose false-alarm bound
    is at most alpha, found by bisection to within 1e-8.

    All sizes share one validated Gamma and one recursion, so M_m(t) at a
    threshold already visited for a smaller m costs one factor per extra
    grid size.  Each m runs the same checks and bisection as on its own,
    so the thresholds equal `threshold_for_pfa`'s bit for bit.  Sizes are
    processed in the given order; the first failure is raised.
    """
    if not (0.0 < alpha < 1.0):
        raise DataError("alpha must lie in (0, 1)")
    recursion = None
    out = []
    for m in ms:
        if m < 1:
            raise DataError("m must be >= 1")
        if m == 1:
            out.append(float(ndtri(1.0 - alpha)))
            continue
        if recursion is None:
            recursion = _BoundRecursion(reference, tau, neighbors)
        out.append(recursion.threshold(m, alpha))
    return out


def threshold_for_pfa(dictionary: Dictionary, alpha: float,
                      neighbors: str = "flanking") -> float:
    """Smallest threshold whose false-alarm bound is at most alpha:
    solves M_m(eta) = 1 - alpha by bisection to within 1e-8.

    Monotonicity of M_m in the threshold is asserted numerically on a
    coarse grid before inverting.
    """
    return threshold_table(dictionary.reference, dictionary.tau,
                           [dictionary.m], alpha, neighbors)[0]

"""False-alarm analysis of the max statistic under i.i.d. Gaussian noise.

For orthogonal atoms the false-alarm probability of the max test has the
closed form 1 - Phi(eta)^m.  For a coherent linearly-spaced-shift
dictionary it does not, but a recursive product of conditional orthant
probabilities gives a computable upper bound: each step multiplies by
Pr(z1 <= t | z2 <= t, z3 <= t) for an interior atom z1 of the denser grid
and its two flanks z2, z3, from trivariate and bivariate normal CDFs.
The bound is sharp for uncorrelated atoms.

A table of thresholds over dictionary sizes checks Gamma, the reference's
autocorrelation in the shift, once per (reference, tau) and each grid
size's correlations once, and bisects every size in lockstep: one
recursion evaluation per round serves all unfinished sizes.

The bivariate CDF is Owen's closed form in his T function, accurate to
about 1e-16 in absolute terms: the recursion multiplies a small orthant
probability, which keeps few relative digits, into M ~ 0.  The
trivariate CDF integrates Plackett's correlation-derivative identity along
a linear correlation path with Gauss-Legendre quadrature.  Both kernels
work on arrays, element by element; the trivariate one takes finite
limits only, which is all the recursion gives it.  A limit or threshold
beyond +-38.5 counts as infinite: the normal CDF is 0.0 or 1.0 there.
`normal_cdf_2d` and `normal_cdf_3d` are the kernels' scalar forms: a NaN
limit or correlation raises DataError, and `normal_cdf_3d` reduces an
infinite limit to 0 or to the bivariate CDF of the other two.
`pfa_bound` rejects a NaN threshold and settles an infinite one (0 at
+inf, 1 at -inf).

Importing scipy.special takes longer than a CLI run that never uses it, so
the functions import it where they need it, and the quadrature rule is
built on first use and kept for the rest of the process.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dictionary import Dictionary, autocorrelation, build_lss
from .errors import DataError, NumericError

# Bisection width of every bound threshold.
_ETA_TOL = 1e-8
# Thresholds on which M_m is checked to be monotone before it is inverted;
# the ends start each bisection bracket.
_MONOTONE_GRID = np.linspace(-6.0, 8.0, 29)
# (threshold, grid size) rows per kernel call of a recursion evaluation:
# a bisection round of the 2..20 table (171 rows) is one call, and the
# kernels' temporaries stay under 1 MB.
_KERNEL_ROWS = 180
# A limit or threshold beyond +-38.5 counts as infinite: ndtr(-38.5) is
# 0.0 and ndtr(38.5) is 1.0 in double precision.
_SATURATED = 38.5


@functools.cache
def _rules() -> tuple:
    """Nodes and weights of the 96-point Gauss-Legendre rule of the
    trivariate correlation-path integral, mapped to [0, 1]."""
    from scipy.special import roots_legendre
    path_x, path_w = roots_legendre(96)
    return 0.5 * (path_x + 1.0), 0.5 * path_w


def _bvnu(dh, dk, r) -> np.ndarray:
    """Upper bivariate normal probabilities P(X > dh, Y > dk), correlation
    r, elementwise over broadcast arrays: a bulk call returns the bits of
    one call per element.

    Owen's identity (1956), with h = -dh, k = -dk, s = sqrt(1 - r^2) and
    beta = 1/2 when h and k lie on opposite sides of 0 (one of them 0 and
    h + k < 0 included): P(X <= h, Y <= k) = (Phi(h) + Phi(k))/2 - beta
    - T(h, (k/h - r)/s) - T(k, (h/k - r)/s), with k/h = 1 at h = k = 0.
    Exact for an infinite limit (beyond +-38.5), r = 0 and |r| = 1;
    elsewhere the error is about 1e-16 in absolute terms, so
    P(X <= -6, Y <= -6; 0.03) = 2.9e-18 keeps only six digits.
    """
    from scipy.special import ndtr, owens_t
    dh, dk, r = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                      for v in (dh, dk, r)))
    shape = dh.shape
    dh, dk, r = dh.ravel(), dk.ravel(), r.ravel()
    # an infinite limit makes the probability the product of the margins
    # (its own margin is 0 or 1), exactly as r = 0 does
    indep = (np.abs(dh) > _SATURATED) | (np.abs(dk) > _SATURATED) | (r == 0.0)
    out = ndtr(-dh) * ndtr(-dk)
    one = ~indep & (r >= 1.0)
    out[one] = ndtr(-np.maximum(dh[one], dk[one]))
    anti = ~indep & (r <= -1.0)
    out[anti] = np.maximum(0.0, ndtr(-dh[anti]) - ndtr(dk[anti]))

    rest = ~(indep | one | anti)
    # + 0.0 turns -0.0 into 0.0: a zero limit has one slope sign
    h, k, r = -dh[rest] + 0.0, -dk[rest] + 0.0, r[rest]
    s = np.sqrt((1.0 - r) * (1.0 + r))
    # beta from the signs: the product h k can underflow to 0
    cdf = 0.5 * (ndtr(h) + ndtr(k)) - 0.5 * ((h < 0.0) != (k < 0.0))
    # k/h - r as (k - h)/h + (1 - r), or (k + h)/h - (1 + r) for r < 0:
    # k -+ h is exact for close limits, whose slope error 1/s magnifies.
    # A denormal h overflows it; 0/0 at h = k = 0 takes the limit 1 - r
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for x, y in ((h, k), (k, h)):
            num = np.where(r > 0.0, (y - x) / x + (1.0 - r),
                           (y + x) / x - (1.0 + r))
            num = np.where(np.isnan(num), 1.0 - r, num)
            cdf -= owens_t(x, num / s)
    out[rest] = np.clip(cdf, 0.0, 1.0)
    return out.reshape(shape)


def normal_cdf_2d(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise DataError("correlation must lie in [-1, 1]")
    if np.isnan([h, k]).any():
        raise DataError("limits must not be NaN")
    return float(_bvnu(-float(h), -float(k), float(rho)))


def _path_integral(b_i, b_j, b_k, rho_ij_target, rho_ki, rho_kj):
    """Plackett's identity integrated along the path rho_ij(t) =
    t rho_ij_target, rho_ki(t) = t rho_ki, t in [0, 1], with rho_kj held:
    the sum over path nodes of rho_ij_target * phi2(b_i, b_j; rho_ij(t))
    * Phi(conditional b_k).  Columns (n, 1) in, one value per row out.
    The integrand is evaluated a quarter of the nodes at a time, which
    keeps the temporaries small."""
    from scipy.special import ndtr
    path_nodes, path_weights = _rules()
    term = np.empty((len(b_i), path_nodes.size))
    quarter = path_nodes.size // 4
    for lo in range(0, path_nodes.size, quarter):
        nodes = slice(lo, lo + quarter)
        path_t = path_nodes[nodes]
        rho_ij = path_t * rho_ij_target
        rho_ki_t = path_t * rho_ki
        det = 1.0 - rho_ij * rho_ij
        mu = ((rho_ki_t - rho_ij * rho_kj) * b_i
              + (rho_kj - rho_ij * rho_ki_t) * b_j) / det
        var = 1.0 - (rho_ki_t ** 2 + rho_kj ** 2
                     - 2.0 * rho_ij * rho_ki_t * rho_kj) / det
        var = np.maximum(var, 0.0)
        sd = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0, (b_k - mu) / np.where(sd > 0, sd, 1.0),
                         np.where(b_k >= mu, np.inf, -np.inf))
        # the bivariate normal density at (b_i, b_j), correlation rho_ij
        q = (b_i * b_i - 2.0 * rho_ij * b_i * b_j + b_j * b_j) / det
        phi2 = np.exp(-0.5 * q) / (2.0 * math.pi * np.sqrt(det))
        term[:, nodes] = rho_ij_target * phi2 * ndtr(z)
    term *= path_weights
    return np.sum(term, axis=1)


# Singular pair p of (rho12, rho13, rho23): its coordinates (i1, i2), the
# third coordinate i3, and the index of the correlation rho(i1, i3).
_SINGULAR_VARS = np.array([[0, 1, 2, 1], [0, 2, 1, 0], [1, 2, 0, 0]])
# Largest pair p: the coordinate order (b1, b2, b3) and the correlations
# (r21, r31, r32) that put it at (2, 3).
_PERM_B = np.array([[2, 0, 1], [1, 0, 2], [0, 1, 2]])
_PERM_RHO = np.array([[1, 2, 0], [0, 2, 1], [0, 1, 2]])


def _tvn(b, rho) -> np.ndarray:
    """P(X1 <= b1, X2 <= b2, X3 <= b3) per row of b (n, 3), for standard
    trivariate normals with correlations rho (n, 3) = (rho12, rho13,
    rho23): finite limits, valid correlations.

    Singular pairs (|rho| = 1) reduce exactly to bivariate calls;
    otherwise the largest correlation is held fixed and the other two are
    scaled from zero along a linear path, integrating Plackett's
    derivative identity.  Rows are independent, so a bulk call returns the
    same bits as one call per row.
    """
    from scipy.special import ndtr
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    rho = np.asarray(rho, dtype=float).reshape(-1, 3)
    out = np.empty(len(b))

    # |rho| = 1 collapses two coordinates onto one
    near_one = np.abs(rho) >= 1.0 - 1e-14
    sing = near_one.any(axis=1)
    p = np.argmax(near_one[sing], axis=1)
    at = np.arange(len(p))
    bs, rs = b[sing], rho[sing]
    i1, i2, i3, r13 = _SINGULAR_VARS[p].T
    lo, hi = -bs[at, i2], bs[at, i1]
    cdf = _bvnu(-np.stack([np.minimum(hi, bs[at, i2]), hi, lo]), -bs[at, i3],
                rs[at, r13])
    out[sing] = np.where(rs[at, p] > 0, cdf[0],
                         np.where(lo >= hi, 0.0,
                                  np.maximum(0.0, cdf[1] - cdf[2])))

    # Permute so the pair with the largest |rho| is (2, 3); its correlation
    # stays fixed while the two correlations touching variable 1 are scaled,
    # which keeps the path integrand smooth for highly coherent grids.
    rows = np.flatnonzero(~sing)
    fixed = np.argmax(np.abs(rho[rows]), axis=1)
    b1, b2, b3 = (b[rows, _PERM_B[fixed, c]][:, None] for c in range(3))
    r21, r31, r32 = (rho[rows, _PERM_RHO[fixed, c]][:, None]
                     for c in range(3))
    total = ndtr(b1[:, 0]) * _bvnu(-b2[:, 0], -b3[:, 0], r32[:, 0])
    total += np.where(r21[:, 0] != 0.0,
                      _path_integral(b1, b2, b3, r21, r31, r32), 0.0)
    total += np.where(r31[:, 0] != 0.0,
                      _path_integral(b1, b3, b2, r31, r21, r32), 0.0)
    out[rows] = np.clip(total, 0.0, 1.0)
    return out


def _check_correlations(rho12: float, rho13: float, rho23: float) -> None:
    """Reject a correlation triple outside [-1, 1] or not PSD."""
    if not np.all(np.abs([rho12, rho13, rho23]) <= 1.0):
        raise DataError("correlations must lie in [-1, 1]")
    corr = np.array([[1.0, rho12, rho13],
                     [rho12, 1.0, rho23],
                     [rho13, rho23, 1.0]])
    if np.linalg.eigvalsh(corr)[0] < -1e-10:
        raise DataError("non-PSD correlation")


def normal_cdf_3d(h: float, k: float, j: float, rho12: float, rho13: float,
                  rho23: float) -> float:
    """P(X1 <= h, X2 <= k, X3 <= j) for standard trivariate normal.

    The correlation triple must form a positive semidefinite matrix.  A
    limit below -38.5 gives 0; above 38.5, the bivariate CDF of the other
    two.
    """
    _check_correlations(rho12, rho13, rho23)
    if np.isnan([h, k, j]).any():
        raise DataError("limits must not be NaN")
    for limit, (x, y, r) in zip((h, k, j), ((k, j, rho23), (h, j, rho13),
                                            (h, k, rho12))):
        if abs(limit) > _SATURATED:
            return 0.0 if limit < 0 else float(_bvnu(-x, -y, r))
    return float(_tvn([h, k, j], [rho12, rho13, rho23])[0])


def pfa_exact_orthogonal(m: int, eta: float) -> float:
    """Exact max-test false-alarm probability 1 - Phi(eta)^m for m
    orthogonal unit atoms under N(0, I) noise, via log Phi: no cancellation."""
    from scipy.special import log_ndtr
    if m < 1:
        raise DataError("m must be >= 1")
    return float(-np.expm1(m * log_ndtr(eta)))


def threshold_for_pfa_orthogonal(m: int, alpha: float) -> float:
    """Threshold with exact false-alarm alpha for m orthogonal atoms,
    solved on the upper tail Phi(-eta) = 1 - (1 - alpha)^(1/m)."""
    from scipy.special import ndtri
    return float(-ndtri(-math.expm1(math.log1p(-alpha) / m)))


class _BoundRecursion:
    """The recursion M_m(t) for one (reference, tau) and sizes up to m_max,
    evaluated for arrays of thresholds.

    Gamma is validated on its grid at construction, and the correlations of
    each grid size s are evaluated and checked once.  An evaluation makes
    one bivariate and one trivariate kernel call per block of the (t, s)
    rows it needs.
    """

    def __init__(self, reference, tau: float, m_max: int):
        grid = np.linspace(0.0, 2.0 * tau, 201)
        vals = np.array([autocorrelation(reference, u) for u in grid])
        if np.any(vals < -1e-9):
            raise NumericError("autocorrelation takes negative values: "
                               "comparison step invalid")
        if np.any(np.diff(vals) > 1e-9):
            raise NumericError("autocorrelation not non-increasing in the "
                               "shift: comparison step invalid")

        def gamma(u):
            # the overlap of two unit atoms lies in [0, 1] (Cauchy-Schwarz);
            # Gamma(0) can round above 1
            return min(1.0, max(0.0, autocorrelation(reference, u)))

        self._rho_two = gamma(2.0 * tau)
        deltas = 2.0 * tau / (np.arange(3, m_max + 1) - 1)
        r1 = np.array([gamma(delta) for delta in deltas])
        r2 = np.array([gamma(2.0 * delta) for delta in deltas])
        # size s >= 3: z1 against its flanks z2, z3 at correlations
        # (rho12, rho13, rho23); the denominator is P(z2 <= t, z3 <= t)
        self._num_rho = np.stack([r1, r1, r2], axis=1)
        self._den_rho = self._num_rho[:, 2]
        self._first_bad, self._error = m_max + 1, None
        # size 2's triple (Gamma(2 tau), 0, 0) is valid: Gamma is clamped
        for size, triple in enumerate(self._num_rho, start=3):
            try:
                _check_correlations(*triple)
            except DataError as exc:
                self._first_bad, self._error = size, exc
                break

    def check(self, m: int) -> None:
        """Raise the input error of the first grid size <= m that has one."""
        if m >= self._first_bad:
            raise self._error

    def pfa(self, t, m) -> np.ndarray:
        """Row i: the bounds 1 - M_s(t_i), clipped to [0, 1], for s = 2 ..
        m_i, continued with the value at m_i up to the largest m; 1 from a
        size whose denominator vanishes.

        M_s = M_{s-1} * (num / den) is multiplied in size order (cumprod),
        so no value depends on the other rows, and rows are evaluated in
        blocks that bound the kernels' memory.
        """
        t = np.asarray(t, dtype=float)
        m = np.asarray(m)
        factors = np.ones((len(t), m.max() - 1))
        # consecutive blocks of about _KERNEL_ROWS (t, size) rows each
        cuts = np.flatnonzero(np.diff(np.cumsum(m - 2) // _KERNEL_ROWS)) + 1
        for start, stop in zip([0, *cuts], [*cuts, len(t)]):
            tb, rows = t[start:stop], factors[start:stop]
            i, j = np.nonzero(np.arange(3, m.max() + 1)
                              <= m[start:stop, None])
            cdf2 = _bvnu(-np.concatenate([tb, tb[i]]),
                         -np.concatenate([tb, tb[i]]),
                         np.concatenate([np.full(len(tb), self._rho_two),
                                         self._den_rho[j]]))
            num = _tvn(np.repeat(tb[i, None], 3, axis=1), self._num_rho[j])
            den = cdf2[len(tb):]
            rows[:, 0] = cdf2[:len(tb)]
            # a zero factor makes the bound 1 from the vanished size on
            rows[i, j + 1] = np.divide(num, den, out=np.zeros_like(num),
                                       where=den > 0.0)
        return np.minimum(1.0, np.maximum(0.0, 1.0 - np.cumprod(factors,
                                                                axis=1)))


def _reference(dictionary: Dictionary):
    """The reference of m >= 2 atoms that are `build_lss(reference, m,
    tau)` bit for bit: the bound reads only those three, not the atoms.
    The rebuild skips the non-negativity rule, so any gram_tol passes."""
    if dictionary.m == 1:
        return dictionary.reference
    if dictionary.reference is None:
        raise DataError("pfa_bound needs a dictionary built from a "
                        "reference (load_csv drops it); rebuild with "
                        "build_lss")
    rebuilt = build_lss(dictionary.reference, dictionary.m, dictionary.tau,
                        gram_tol=math.inf)
    if (rebuilt.shifts.tobytes() != dictionary.shifts.tobytes()
            or rebuilt.atoms.tobytes() != dictionary.atoms.tobytes()):
        raise DataError("pfa_bound needs the atoms and shifts of "
                        "build_lss(reference, m, tau); these differ")
    return dictionary.reference


def pfa_bound(dictionary: Dictionary, eta: float) -> float:
    """Upper bound on the max-test false-alarm probability at threshold eta.

    Evaluates the recursion
        M_2(t)   = P(z1 <= t, z2 <= t)                 [2-atom grid]
        M_{s}(t) = P(z1 <= t | z2 <= t, z3 <= t) M_{s-1}(t)
    where at size s the conditioned score z1 is an interior atom of the
    size-s grid and z2, z3 its two flanks at one grid step (correlations
    Gamma(delta), Gamma(delta), Gamma(2 delta)); returns 1 - M_m(eta).
    The size-3 term is then the exact trivariate orthant probability.

    Requires a dictionary that is `build_lss(reference, m, tau)` bit for
    bit (DataError otherwise), whose autocorrelation is non-negative and
    non-increasing; collapses to the orthogonal closed form when all the
    involved correlations vanish.  The bound is 0 above 38.5, 1 below -38.5.
    """
    if math.isnan(eta):
        raise DataError("eta must not be NaN")
    m = dictionary.m
    if m == 1:
        return pfa_exact_orthogonal(1, eta)
    recursion = _BoundRecursion(_reference(dictionary), dictionary.tau, m)
    recursion.check(m)
    if abs(eta) > _SATURATED:
        return 0.0 if eta > 0 else 1.0
    return float(recursion.pfa([float(eta)], [m])[0, -1])


def threshold_table(reference, tau: float, ms, alpha: float) -> list:
    """Bound thresholds for the LSS dictionaries of sizes `ms` over
    [-tau, tau]: for each m the smallest threshold whose false-alarm bound
    is at most alpha, found by bisection to within 1e-8 (m = 1 rows are
    orthogonal and need no reference).

    tau and alpha are checked first, then every m >= 2 in the given order,
    raising the first failure: its dictionary builds (`build_lss`'s strict
    default), its grid sizes' correlations, the monotonicity of M_m on a
    shared 29-point grid of thresholds, and the bracket [lo, hi], widened
    in steps of 8 where needed.  Then all sizes bisect in lockstep, one
    recursion evaluation per round for the unfinished ones.  Only the
    comparisons M_m(mid) < 1 - alpha steer a bisection, and each value is
    computed as on its own: the thresholds are `threshold_for_pfa`'s, bit
    for bit.
    """
    if not 0 <= tau < math.inf:
        raise DataError(f"tau must be finite and >= 0, got {tau}")
    if not (0.0 < alpha < 1.0):
        raise DataError("alpha must lie in (0, 1)")
    ms = list(ms)
    target = 1.0 - alpha
    recursion = None
    bound_ms, los, his = [], [], []
    for m in ms:
        if m < 1:
            raise DataError("m must be >= 1")
        if m == 1:
            continue
        build_lss(reference, m, tau)
        if recursion is None:
            recursion = _BoundRecursion(reference, tau, max(ms))
            on_grid = 1.0 - recursion.pfa(
                _MONOTONE_GRID, np.full(len(_MONOTONE_GRID), max(ms)))
        recursion.check(m)
        vals = on_grid[:, m - 2]
        if np.any(np.diff(vals) < -1e-10):
            raise NumericError("bound recursion not monotone in the "
                               "threshold")
        lo, hi = _MONOTONE_GRID[0], _MONOTONE_GRID[-1]
        value = vals[0]
        while value > target:
            lo -= 8.0
            if lo < -80.0:
                raise NumericError("bracketing failure (low side)")
            value = 1.0 - recursion.pfa([lo], [m])[0, -1]
        value = vals[-1]
        while value < target:
            hi += 8.0
            if hi > 80.0:
                raise NumericError("bracketing failure (high side)")
            value = 1.0 - recursion.pfa([hi], [m])[0, -1]
        bound_ms.append(m)
        los.append(lo)
        his.append(hi)

    bound_ms, lo, hi = np.array(bound_ms), np.array(los), np.array(his)
    active = np.flatnonzero(hi - lo > _ETA_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        below = 1.0 - recursion.pfa(mid, bound_ms[active])[:, -1] < target
        lo[active[below]] = mid[below]
        hi[active[~below]] = mid[~below]
        active = active[hi[active] - lo[active] > _ETA_TOL]
    etas = iter(0.5 * (lo + hi))
    return [threshold_for_pfa_orthogonal(1, alpha) if m == 1
            else float(next(etas)) for m in ms]


def threshold_for_pfa(dictionary: Dictionary, alpha: float) -> float:
    """Smallest threshold whose false-alarm bound is at most alpha:
    solves M_m(eta) = 1 - alpha by bisection to within 1e-8.

    The dictionary must be `build_lss(reference, m, tau)` bit for bit, and
    `threshold_table` builds it once more with the strict default, whose
    non-negativity rule the identity check skips; monotonicity of M_m in
    the threshold is asserted numerically on a coarse grid before inverting.
    """
    return threshold_table(_reference(dictionary), dictionary.tau,
                           [dictionary.m], alpha)[0]

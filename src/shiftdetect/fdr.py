"""FDR-controlled decisions: one sort of the p-values gives the q-values
and the step-up decision at every level; `detect` alone reads the
null-proportion plug-in from its spec string."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError
from .nullmodel import NullModel, empirical_pvalues
from .teststat import TestField


@dataclass(frozen=True)
class DetectionResult:
    """Per-pixel p-values and q-values, the plug-in pi0 and the stable sort
    order of the p-values; `detected_at` reads the decision at any level
    from that one sort.  Built by `_decide`."""

    pvalues: np.ndarray
    qvalues: np.ndarray
    pi0: float
    order: np.ndarray

    def detected_at(self, level: float) -> np.ndarray:
        """The step-up rule at min(level/pi0, 1): reject the k_hat smallest
        p-values, k_hat = max{k : p_(k) <= min(level/pi0, 1) k/n}, ties
        together.  level must lie in [0, 1); level 0 rejects nothing, not
        even p = 0."""
        if not (0.0 <= level < 1.0):
            raise DataError("q must lie in [0, 1)")
        n = self.pvalues.size
        if level == 0.0:
            return np.zeros(n, dtype=bool)
        ps = self.pvalues[self.order]
        passing = np.nonzero(ps <= min(level / self.pi0, 1.0)
                             * np.arange(1, n + 1) / n)[0]
        if not passing.size:
            return np.zeros(n, dtype=bool)
        return self.pvalues <= ps[passing[-1]]


def _decide(p: np.ndarray, pi0: float) -> DetectionResult:
    """The one decision path: sort p once and take the q-values with pi0;
    the result decides at any level (see `DetectionResult.detected_at`)."""
    if not (0.0 < pi0 <= 1.0):
        raise DataError("pi0 must lie in (0, 1]")
    order = np.argsort(p, kind="stable")
    n = p.size
    raw = pi0 * p[order] * n / np.arange(1, n + 1)
    qv = np.empty(n)
    qv[order] = np.minimum(np.minimum.accumulate(raw[::-1])[::-1], 1.0)
    return DetectionResult(p, qv, pi0, order)


def bh_reject(pvalues) -> DetectionResult:
    """The plain step-up procedure (pi0 = 1): at level q, `detected_at(q)`
    rejects the k_hat smallest p-values, k_hat = max{k : p_(k) <= q*k/n}
    (with p_(0) = 0, so k_hat may be 0).  Tied p-values are rejected or
    kept together."""
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DataError("pvalues must be a non-empty 1-d vector")
    return _decide(p, 1.0)


def qvalues(pvalues, pi0: float = 1.0) -> np.ndarray:
    """Smallest control level at which each p-value would be rejected:
    running minimum (from the largest p downward) of pi0 * p_(k) * n / k,
    clipped to [0, 1].  A q-value of 0 is an infimum: level 0 rejects
    nothing."""
    return _decide(np.asarray(pvalues, dtype=float), pi0).qvalues


def storey_pi0(pvalues, zeta) -> float:
    """Storey's null-proportion estimate min{(1 + #{p > zeta})/((1-zeta) n), 1}.

    `zeta` may be a float or an exact ``fractions.Fraction``; the ratio is
    evaluated in exact rational arithmetic and rounded once, so that at the
    grid points zeta = k/(2 n0) (k = n0 .. 2n0-1) the estimate reproduces
    the empirical-null pi0_hat bit for bit on p-values produced by
    ``empirical_pvalues``.
    """
    p = np.asarray(pvalues, dtype=float)
    # a NaN or infinite zeta fails this test before Fraction sees it
    if not (0 <= zeta < 1):
        raise DataError("zeta must lie in [0, 1)")
    zeta_exact = Fraction(zeta)
    n = p.size
    if n == 0:
        raise DataError("pvalues must be non-empty")
    # Counting p > zeta over floats: compare against the largest double
    # <= zeta, which gives the exact count for non-representable zeta too.
    lo = float(zeta_exact)
    if Fraction(lo) > zeta_exact:
        lo = float(np.nextafter(lo, -np.inf))
    count = int(np.count_nonzero(p > lo))
    estimate = Fraction(1 + count) / ((1 - zeta_exact) * n)
    return float(min(estimate, Fraction(1)))


def detect(model: NullModel, field: TestField,
           pi0: str = "empirical") -> DetectionResult:
    """Empirical p-values from the fitted null, sorted once; the result's
    `detected_at(q)` is the step-up rule at the plug-in level q / pi0
    (capped at 1), and its q-values use the same pi0.

    pi0 names the plug-in: "empirical" (the null model's pi0_hat, the
    default procedure), "one" (no correction), or Storey's estimate at
    zeta = 1/2 ("storey") or at a given zeta ("storey:<zeta>").  Any other
    text is a DataError.
    """
    p = empirical_pvalues(model, field)
    if pi0 == "empirical":
        return _decide(p, model.pi0_hat)
    if pi0 == "one":
        return _decide(p, 1.0)
    mode, colon, zeta = pi0.partition(":")
    try:
        zeta = float(zeta) if colon else 0.5
    except ValueError:
        mode = None
    if mode != "storey":
        raise DataError(f"pi0 must be empirical, one, storey or "
                        f"storey:<zeta>, got {pi0!r}")
    return _decide(p, storey_pi0(p, zeta))

"""FDR-controlled decisions: step-up procedure, null-proportion plug-in,
q-values."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError
from .nullmodel import NullModel, empirical_pvalues
from .teststat import TestField


@dataclass(frozen=True)
class DetectionResult:
    """Per-pixel p-values and q-values, the plug-in pi0 and the stable sort
    order of the p-values, with the decision at nominal_q; `detected_at`
    reuses the order to decide at any other level.  Built by `_decide`."""

    pvalues: np.ndarray
    qvalues: np.ndarray
    nominal_q: float
    pi0: float
    order: np.ndarray
    detected: np.ndarray = field(init=False)
    k_hat: int = field(init=False)

    def __post_init__(self):
        detected = self.detected_at(self.nominal_q)
        object.__setattr__(self, "detected", detected)
        object.__setattr__(self, "k_hat", int(np.count_nonzero(detected)))

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


def _decide(p: np.ndarray, pi0: float, q: float) -> DetectionResult:
    """The one decision path: sort p once, q-values with pi0, and the
    step-up decision at q (see `DetectionResult.detected_at`)."""
    if not (0.0 < pi0 <= 1.0):
        raise DataError("pi0 must lie in (0, 1]")
    order = np.argsort(p, kind="stable")
    n = p.size
    raw = pi0 * p[order] * n / np.arange(1, n + 1)
    qv = np.empty(n)
    qv[order] = np.minimum(np.minimum.accumulate(raw[::-1])[::-1], 1.0)
    return DetectionResult(p, qv, q, pi0, order)


def bh_reject(pvalues, q: float) -> DetectionResult:
    """Step-up procedure at level q in [0, 1): reject the k_hat smallest
    p-values, k_hat = max{k : p_(k) <= q*k/n} (with p_(0) = 0, so k_hat may
    be 0).  q = 0 rejects nothing, as in `detect`.

    Tied p-values are rejected or kept together.  This is the plain
    procedure: q-values in the result and its `detected_at` use pi0 = 1.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DataError("pvalues must be a non-empty 1-d vector")
    return _decide(p, 1.0, q)


def qvalues(pvalues, pi0: float = 1.0) -> np.ndarray:
    """Smallest control level at which each p-value would be rejected:
    running minimum (from the largest p downward) of pi0 * p_(k) * n / k,
    clipped to [0, 1].  A q-value of 0 is an infimum: level 0 rejects
    nothing."""
    return _decide(np.asarray(pvalues, dtype=float), pi0, 0.0).qvalues


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


def detect(model: NullModel, field: TestField, q: float,
           pi0_mode: str = "empirical", zeta: float = 0.5) -> DetectionResult:
    """Full decision pipeline: empirical p-values from the fitted null, then
    the step-up procedure at the plug-in level q / pi0 (capped at 1).

    pi0_mode selects the plug-in: "empirical" (the null model's estimate,
    the default procedure), "storey:<zeta>"-style via pi0_mode="storey",
    or "one" (no correction).  q-values use the same pi0.  The p-values
    are computed and sorted once; `detected_at(level)` on the result gives
    the decision at any other level, equal to detect(..., level).detected.
    q = 0 rejects nothing.
    """
    p = empirical_pvalues(model, field)
    if pi0_mode == "empirical":
        pi0 = model.pi0_hat
    elif pi0_mode == "storey":
        pi0 = storey_pi0(p, zeta)
    elif pi0_mode == "one":
        pi0 = 1.0
    else:
        raise DataError(f"unknown pi0_mode {pi0_mode!r}")
    return _decide(p, pi0, q)

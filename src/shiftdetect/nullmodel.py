"""Empirical null distribution learned from noise symmetry.

Pooling the per-pixel max statistics with the sign-flipped min statistics
gives a sample whose lower half is null-dominated.  The pooled median
splits off two truncated samples (low max values, high flipped-min values)
whose union estimates the null distribution without any parametric model;
the truncation count also yields the null-proportion estimate
pi0_hat = min(2 n0 / n, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, read_text
from .teststat import TestField


@dataclass(frozen=True)
class NullModel:
    """Fitted null distribution of the max statistic.

    pooled holds the sorted union of the two truncated samples (size 2*n0);
    the null CDF is its empirical step function.
    """

    mu0_hat: float
    pi0_hat: float
    n0: int
    n_fit: int
    pooled: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n0 <= self.n_fit:
            raise DataError("need 1 <= n0 <= n_fit")
        if not np.isfinite(self.mu0_hat):
            raise DataError("mu0_hat must be finite")
        pooled = self.pooled
        if pooled.shape != (2 * self.n0,) or not np.all(np.isfinite(pooled)) \
                or np.any(pooled[1:] < pooled[:-1]):
            raise DataError("pooled sample must be 2*n0 sorted finite values")
        if not (0.0 < self.pi0_hat <= 1.0):
            raise DataError("pi0_hat must lie in (0, 1]")

    def save_csv(self, path) -> None:
        """Header, values and pooled rows at %.17g, CRLF as `csv.writer`."""
        with open(path, "w", newline="") as fh:
            fh.write("mu0_hat,pi0_hat,n0,n_fit\r\n%.17g,%.17g,%d,%d\r\n"
                     % (self.mu0_hat, self.pi0_hat, self.n0, self.n_fit))
            fh.write("%.17g\r\n" * self.pooled.size
                     % tuple(self.pooled.tolist()))

    @classmethod
    def load_csv(cls, path) -> "NullModel":
        header, values, pooled = (read_text(path) + "\n\n").split("\n", 2)
        if header.strip() != "mu0_hat,pi0_hat,n0,n_fit":
            raise DataError(f"{path}: not a NullModel CSV")
        try:
            mu0, pi0, n0, n_fit = values.split(",")
            fields = (float(mu0), float(pi0), int(n0), int(n_fit),
                      np.array(pooled.split(), dtype=float))
        except ValueError as exc:
            raise DataError(f"{path}: malformed NullModel CSV ({exc})") \
                from None
        return cls(*fields)


def fit_null(field: TestField) -> NullModel:
    """Estimate the null median, null proportion and null CDF from a field.

    The 2n pooled values (tmax_i and -tmin_i) are sorted; mu0_hat is the
    sample median (t_(n) + t_(n+1))/2.  s0 collects the max statistics at or
    below mu0_hat, n0 = |s0|; g0 collects the n0 largest flipped-min values,
    which coincides with {-tmin_i > mu0_hat} whenever the pooled values are
    tie-free around the median (the continuous-data case).  The order
    statistics are exact; zeros keep the signs a stable sort gives them.
    """
    tmax = np.asarray(field.tmax, dtype=float)
    neg_min = -np.asarray(field.tmin, dtype=float)
    n = tmax.size
    if n < 2:
        raise DataError("need at least two tested pixels")
    pool = np.concatenate([tmax, neg_min])
    if np.all(pool == pool[0]):
        raise DataError("degenerate field: all statistics identical")
    part = np.partition(pool, n)
    lo, hi = part[:n].max(), part[n]
    if lo == hi == 0:   # signed zeros: take them in stable-sort order
        lo, hi = np.sort(pool, kind="stable")[n - 1:n + 1]
    mu0 = 0.5 * (lo + hi)

    s0 = tmax[tmax <= mu0]
    n0 = int(s0.size)
    if n0 == 0:
        raise DataError("degenerate field: no max statistics at or below "
                        "the pooled median")
    g0 = np.partition(neg_min, n - n0)[n - n0:]
    if not g0.all():    # a zero among them: as for mu0
        g0 = np.sort(neg_min, kind="stable")[-n0:]
    pi0 = min((2 * n0) / n, 1.0)
    pooled = np.concatenate([s0, g0])
    pooled.sort(kind=None if pooled.all() else "stable")    # as for mu0
    return NullModel(mu0_hat=float(mu0), pi0_hat=pi0, n0=n0, n_fit=n,
                     pooled=pooled)


def empirical_pvalues(model: NullModel, field) -> np.ndarray:
    """Right-tail p-values 1 - F0_hat(tmax) for a field (or an array of
    statistics), possibly different from the field the model was fit on.

    p-values are exact count ratios (2n0 - c)/(2n0) evaluated with the
    final float division rounded toward zero, so thresholding them at an
    exact grid point k/(2n0) (see storey_pi0) never miscounts the boundary
    sample.  Statistics above every pooled null value get p = 0 exactly.
    """
    stats = getattr(field, "tmax", field)
    stats = np.asarray(stats, dtype=float)
    counts = np.searchsorted(model.pooled, stats, side="right")
    return _ratio_round_down(2 * model.n0 - counts, 2 * model.n0)


def _ratio_round_down(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """Elementwise integer ratio c/d as float64, rounded toward zero.

    v = fl(c/d) is stepped down one ulp where v*d > c.  That test is exact
    for d < 2**26: with head = v cut to its top 26 significant bits, both
    head*d and (v - head)*d fit in 53 bits, and c - head*d is exact by
    Sterbenz's lemma.
    """
    if denominator >= 2 ** 26:
        raise DataError(f"exact p-values need 2*n0 < 2**26, got "
                        f"{denominator}")
    c = np.asarray(numerators, dtype=float)
    v = c / denominator
    # clear the low 27 of the 52 stored mantissa bits
    head = (v.view(np.uint64) & np.uint64(2 ** 64 - 2 ** 27)).view(float)
    above = (v - head) * denominator > c - head * denominator
    return np.where(above, np.nextafter(v, 0.0), v)

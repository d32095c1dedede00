"""Scalar reference implementations that the vectorized library paths are
checked against: `similarity` for `similarity.score_matrix` and
`glr_statistic` for `simulate.glr_field`.  They score one spectrum at a
time, written straight from the definitions."""

import numpy as np

from shiftdetect.errors import DataError
from shiftdetect.similarity import SimilarityKind


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

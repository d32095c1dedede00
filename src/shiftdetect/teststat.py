"""Per-pixel max and min statistics over a dictionary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import DataError
from .similarity import SimilarityKind, score_matrix


@dataclass(frozen=True)
class TestField:
    """Max/min similarity statistics for a set of tested pixels.

    rows/cols give each tested pixel's grid position; pixels excluded from
    testing (masked) simply do not appear.
    """

    tmax: np.ndarray
    tmin: np.ndarray
    argmax_atom: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    shape: tuple

    __test__ = False  # not a pytest class, despite the name

    def __post_init__(self):
        n = self.tmax.size
        for name in ("tmin", "argmax_atom", "rows", "cols"):
            if getattr(self, name).size != n:
                raise DataError(f"TestField field {name} has wrong length")
        if np.any(self.tmin > self.tmax):
            raise DataError("TestField requires tmin <= tmax per pixel")

    @property
    def n(self) -> int:
        return self.tmax.size

    def to_map(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-pixel values back onto the full grid; untested
        pixels read False in a boolean map and NaN otherwise."""
        values = np.asarray(values)
        if values.dtype == bool:
            out = np.zeros(self.shape, dtype=bool)
        else:
            out = np.full(self.shape, np.nan)
        out[self.rows, self.cols] = values
        return out


def masked_spectra(data: np.ndarray) -> np.ndarray | None:
    """The masked (all-NaN) spectra along the last axis of `data`, or None
    when it holds no NaN; a spectrum partly NaN is an error."""
    nan = np.isnan(data)
    if not nan.any():
        return None
    counts = nan.sum(axis=-1)
    if np.any((counts > 0) & (counts < data.shape[-1])):
        raise DataError("NaNs allowed only in fully masked pixels")
    return counts > 0


def compute_field(cube, dictionary: Dictionary,
                  kind: SimilarityKind) -> TestField:
    """Max/min statistic and best-matching atom for every tested pixel.

    `cube` may be a pipeline Cube, a (n_y, n_x, l) array, or a (n, l) matrix
    of spectra (treated as an (n, 1) grid); masked pixels are left out.
    Argmax ties break toward the lowest atom index; a NaN score counts as
    the maximum, as in `np.argmax`.  Max, min and argmax run over pixels of
    an atom-major copy of the `score_matrix` scores: exact order statistics,
    though a zero (or, from infinite input, NaN) one may differ in sign.
    """
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
    flat = np.ascontiguousarray(data.reshape(-1, l))    # C rows for BLAS
    valid = np.arange(n_y * n_x)
    masked = masked_spectra(flat)
    if masked is not None:
        valid = np.nonzero(~masked)[0]
        flat = flat[valid]

    scores = np.ascontiguousarray(score_matrix(flat, dictionary.atoms, kind).T)
    tmax = scores.max(axis=0)
    argmax = np.zeros(valid.size, dtype=np.intp)
    for j in range(len(scores) - 1, -1, -1):    # the lowest index wins
        argmax[(scores[j] == tmax) | np.isnan(scores[j])] = j
    return TestField(
        tmax=tmax,
        tmin=scores.min(axis=0),
        argmax_atom=argmax,
        rows=valid // n_x,
        cols=valid % n_x,
        shape=(n_y, n_x),
    )

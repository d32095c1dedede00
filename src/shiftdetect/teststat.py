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


def compute_field(cube, dictionary: Dictionary,
                  kind: SimilarityKind) -> TestField:
    """Max/min statistic and best-matching atom for every tested pixel.

    `cube` may be a pipeline Cube, a (n_y, n_x, l) array, or a (n, l) matrix
    of spectra (treated as an (n, 1) grid).  Pixels whose spectrum is
    entirely NaN are masked out; a partially-NaN spectrum is an error.
    Argmax ties break toward the lowest atom index.
    """
    data = getattr(cube, "data", cube)
    data = np.asarray(data, dtype=float)
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
    return TestField(
        tmax=scores.max(axis=1),
        tmin=scores.min(axis=1),
        argmax_atom=scores.argmax(axis=1),
        rows=valid // n_x,
        cols=valid % n_x,
        shape=(n_y, n_x),
    )

"""Per-pixel max and min statistics over a dictionary."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary
from .errors import DataError
from .similarity import SimilarityKind, score_matrix

# spectra per scored block (up to twice as many in the last): at m = 15
# atoms a block's scores and their atom-major copy stay in L2, and a
# multithreaded BLAS pays its start-up once per block, not per few rows
_BLOCK_PIXELS = 4096


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
    """Max/min statistic and best-matching atom for every tested pixel of
    a pipeline `Cube`; masked pixels are left out.  Argmax ties break
    toward the lowest atom index; a NaN score counts as the maximum, as in
    `np.argmax`.

    The unmasked spectra are scored in cache-sized blocks; max, min and
    argmax run over pixels of an atom-major copy of each block's
    `score_matrix` scores, into preallocated outputs.  A block starts at a
    multiple of `_BLOCK_PIXELS` and holds at least that many rows (unless
    it is the whole field), so BLAS sums each score in the order of the
    whole-field product: the statistics are its exact order statistics,
    though a zero (or, from infinite input, NaN) one may differ in sign.
    """
    data = cube.data
    if data.shape[2] != dictionary.length:
        raise DataError(
            f"cube has {data.shape[2]} bands but atoms have length "
            f"{dictionary.length}")

    n_y, n_x, l = data.shape
    flat = data.reshape(-1, l)
    valid = np.arange(n_y * n_x)
    masked = masked_spectra(flat)
    if masked is not None:
        valid = np.nonzero(~masked)[0]
        flat = flat[valid]

    n = valid.size
    tmax, tmin = np.empty(n), np.empty(n)
    argmax = np.zeros(n, dtype=np.intp)
    # the remainder joins the last block: a short product can take another
    # BLAS kernel (gemv for one row) that sums in another order
    starts = range(0, max(n - _BLOCK_PIXELS, 0) + 1, _BLOCK_PIXELS)
    for start, stop in zip(starts, [*starts[1:], n]):
        block = slice(start, stop)
        spectra = np.ascontiguousarray(flat[block])     # C rows for BLAS
        scores = np.ascontiguousarray(
            score_matrix(spectra, dictionary.atoms, kind).T)
        top = scores.max(axis=0, out=tmax[block])
        scores.min(axis=0, out=tmin[block])
        best = argmax[block]
        for j in range(len(scores) - 1, -1, -1):    # the lowest index wins
            best[(scores[j] == top) | np.isnan(scores[j])] = j
    return TestField(tmax=tmax, tmin=tmin, argmax_atom=argmax,
                     rows=valid // n_x, cols=valid % n_x, shape=(n_y, n_x))

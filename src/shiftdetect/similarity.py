"""Pairwise similarity scores between an observed spectrum and an atom.

Both measures are odd functions of the observation, S(-y, d) = -S(y, d),
which is what lets the null distribution be learned from the sign-flipped
minimum statistic downstream.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DataError


class SimilarityKind(str, Enum):
    MATCHED_FILTER = "mf"
    SPECTRAL_ANGLE = "sad"

    @classmethod
    def parse(cls, name: str) -> "SimilarityKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise DataError(f"unknown similarity kind {name!r}; "
                            "expected 'mf' or 'sad'") from None


def score_matrix(spectra: np.ndarray, atoms: np.ndarray,
                 kind: SimilarityKind) -> np.ndarray:
    """Scores for every (spectrum, atom) pair; spectra (n, l), atoms (m, l).

    Atoms are assumed unit norm (a Dictionary invariant).  Zero-norm spectra
    score 0 against every atom under SPECTRAL_ANGLE.
    """
    kind = SimilarityKind(kind)
    scores = spectra @ atoms.T
    if kind is SimilarityKind.SPECTRAL_ANGLE:
        norms = np.linalg.norm(spectra, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        scores = scores / safe[:, None]
        scores[norms == 0.0] = 0.0
    return scores

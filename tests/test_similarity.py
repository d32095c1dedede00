import numpy as np
import pytest

from shiftdetect.errors import DataError
from shiftdetect.similarity import SimilarityKind, score_matrix

from oracles import similarity

MF = SimilarityKind.MATCHED_FILTER
SAD = SimilarityKind.SPECTRAL_ANGLE


def unit(v):
    return v / np.linalg.norm(v)


class TestSimilarity:
    def test_scaled_atom_is_maximizer(self, rng):
        d = unit(rng.standard_normal(20))
        y = 3.5 * d
        assert similarity(MF, y, d) == pytest.approx(3.5, abs=1e-12)
        assert similarity(SAD, y, d) == pytest.approx(1.0, abs=1e-12)

    def test_negated_atom(self, rng):
        d = unit(rng.standard_normal(20))
        assert similarity(SAD, -d, d) == pytest.approx(-1.0, abs=1e-12)

    def test_oddness_property(self, rng):
        # S(-y, d) = -S(y, d) for both kinds on random draws
        for _ in range(1000):
            y = rng.standard_normal(12)
            d = rng.standard_normal(12)
            for kind in (MF, SAD):
                assert similarity(kind, -y, d) == pytest.approx(
                    -similarity(kind, y, d), abs=1e-12)

    def test_sad_scale_invariance(self, rng):
        y = rng.standard_normal(15)
        d = rng.standard_normal(15)
        base = similarity(SAD, y, d)
        for c in (0.3, 2.0, -1.7):
            assert similarity(SAD, c * y, d) == pytest.approx(
                np.sign(c) * base, abs=1e-12)

    def test_mf_linearity(self, rng):
        d = rng.standard_normal(15)
        y1, y2 = rng.standard_normal(15), rng.standard_normal(15)
        assert similarity(MF, y1 + y2, d) == pytest.approx(
            similarity(MF, y1, d) + similarity(MF, y2, d), abs=1e-12)

    def test_sad_bounded(self, rng):
        for _ in range(200):
            y = rng.standard_normal(8)
            d = rng.standard_normal(8)
            assert -1.0 - 1e-12 <= similarity(SAD, y, d) <= 1.0 + 1e-12

    def test_zero_observation_sad_is_zero(self, rng):
        d = rng.standard_normal(10)
        assert similarity(SAD, np.zeros(10), d) == 0.0

    def test_zero_atom_rejected(self):
        with pytest.raises(DataError, match="zero atom"):
            similarity(MF, np.ones(5), np.zeros(5))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            similarity(MF, np.ones(5), np.ones(6))

    def test_kind_parsing(self):
        assert SimilarityKind.parse("mf") is MF
        assert SimilarityKind.parse("SAD") is SAD
        with pytest.raises(DataError):
            SimilarityKind.parse("cosine")


class TestScoreMatrix:
    def test_matches_scalar_similarity(self, rng):
        atoms = np.array([unit(rng.standard_normal(10)) for _ in range(4)])
        spectra = rng.standard_normal((25, 10))
        for kind in (MF, SAD):
            scores = score_matrix(spectra, atoms, kind)
            for i in range(25):
                for j in range(4):
                    assert scores[i, j] == pytest.approx(
                        similarity(kind, spectra[i], atoms[j]), abs=1e-12)

    def test_zero_rows_under_sad(self, rng):
        atoms = np.array([unit(rng.standard_normal(6))])
        spectra = np.zeros((3, 6))
        assert np.all(score_matrix(spectra, atoms, SAD) == 0.0)

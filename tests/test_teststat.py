import numpy as np
import pytest

from shiftdetect.dictionary import build_lss
from shiftdetect.errors import DataError
from shiftdetect.similarity import SimilarityKind, score_matrix
from shiftdetect.teststat import TestField, compute_field

from oracles import similarity

MF = SimilarityKind.MATCHED_FILTER
SAD = SimilarityKind.SPECTRAL_ANGLE


def naive_field(cube, dictionary, kind):
    """Brute-force oracle: per-pixel scores shared with the library's score
    path, then explicit python-loop max/min/argmax with first-index ties."""
    flat = cube.reshape(-1, cube.shape[-1])
    scores = score_matrix(flat, dictionary.atoms, kind)
    tmax, tmin, amax = [], [], []
    for row in scores:
        best, worst, arg = -np.inf, np.inf, -1
        for j, s in enumerate(row):
            if s > best:
                best, arg = s, j
            if s < worst:
                worst = s
        tmax.append(best)
        tmin.append(worst)
        amax.append(arg)
    return np.array(tmax), np.array(tmin), np.array(amax)


class TestComputeField:
    def test_matches_bruteforce_exactly(self, line_dictionary, rng):
        cube = rng.standard_normal((9, 7, 30))
        for kind in (MF, SAD):
            field = compute_field(cube, line_dictionary, kind)
            tmax, tmin, amax = naive_field(cube, line_dictionary, kind)
            assert np.array_equal(field.tmax, tmax)
            assert np.array_equal(field.tmin, tmin)
            assert np.array_equal(field.argmax_atom, amax)

    def test_scores_match_scalar_path(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 3, 30))
        field = compute_field(cube, line_dictionary, SAD)
        flat = cube.reshape(-1, 30)
        for i in range(flat.shape[0]):
            per_atom = [similarity(SAD, flat[i], a)
                        for a in line_dictionary.atoms]
            assert field.tmax[i] == pytest.approx(max(per_atom), rel=1e-12)
            assert field.tmin[i] == pytest.approx(min(per_atom), rel=1e-12)

    def test_single_atom_dictionary(self, gauss_reference, rng):
        d1 = build_lss(gauss_reference, 1, 0.0)
        cube = rng.standard_normal((5, 5, 30))
        field = compute_field(cube, d1, MF)
        assert np.array_equal(field.tmax, field.tmin)
        assert np.all(field.argmax_atom == 0)

    def test_planted_atom_is_argmax(self, line_dictionary):
        j = 4
        cube = 2.5 * line_dictionary.atoms[j][None, None, :]
        field = compute_field(cube, line_dictionary, SAD)
        assert field.argmax_atom[0] == j
        assert field.tmax[0] == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_duality_exact(self, line_dictionary, rng):
        # max(-y) = -min(y) and min(-y) = -max(y), bitwise
        cube = rng.standard_normal((8, 8, 30))
        for kind in (MF, SAD):
            plus = compute_field(cube, line_dictionary, kind)
            minus = compute_field(-cube, line_dictionary, kind)
            assert np.array_equal(minus.tmax, -plus.tmin)
            assert np.array_equal(minus.tmin, -plus.tmax)

    def test_extra_atom_never_hurts(self, gauss_reference, rng):
        small = build_lss(gauss_reference, 3, 6.0)
        # same grid plus two atoms appended outside: use a denser dictionary
        big = build_lss(gauss_reference, 5, 6.0)
        cube = rng.standard_normal((6, 6, 30))
        f_small = compute_field(cube, small, MF)
        f_big = compute_field(cube, big, MF)
        # shared atoms: the 3-grid {-6,0,6} is a subset of the 5-grid
        assert np.all(f_big.tmax >= f_small.tmax - 1e-12)
        assert np.all(f_big.tmin <= f_small.tmin + 1e-12)

    def test_argmax_tie_breaks_low(self):
        atoms = np.zeros((2, 4))
        atoms[0, 0] = 1.0
        atoms[1, 1] = 1.0
        from shiftdetect.dictionary import Dictionary
        d = Dictionary(atoms=atoms, shifts=np.array([0.0, 1.0]), tau=1.0)
        cube = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        field = compute_field(cube, d, MF)
        assert field.argmax_atom[0] == 0

    def test_band_mismatch(self, line_dictionary, rng):
        with pytest.raises(DataError):
            compute_field(rng.standard_normal((3, 3, 29)), line_dictionary,
                          MF)

    def test_masked_pixels_dropped(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 4, 30))
        cube[1, 2, :] = np.nan
        field = compute_field(cube, line_dictionary, SAD)
        assert field.n == 15
        assert not np.any((field.rows == 1) & (field.cols == 2))

    def test_partial_nan_rejected(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 4, 30))
        cube[1, 2, 5] = np.nan
        with pytest.raises(DataError, match="masked"):
            compute_field(cube, line_dictionary, SAD)

    def test_flat_spectra_input(self, line_dictionary, rng):
        spectra = rng.standard_normal((11, 30))
        field = compute_field(spectra, line_dictionary, MF)
        assert field.shape == (11, 1)
        assert field.n == 11


class TestTestFieldContainer:
    def test_invariant_checked(self):
        with pytest.raises(DataError):
            TestField(tmax=np.array([1.0]), tmin=np.array([2.0]),
                      argmax_atom=np.array([0]), rows=np.array([0]),
                      cols=np.array([0]), shape=(1, 1))

    def test_to_map(self, line_dictionary, rng):
        cube = rng.standard_normal((3, 4, 30))
        field = compute_field(cube, line_dictionary, MF)
        grid = field.to_map(field.tmax)
        assert grid.shape == (3, 4)
        assert grid[2, 1] == field.tmax[(field.rows == 2)
                                        & (field.cols == 1)][0]

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftdetect import teststat
from shiftdetect.dictionary import build_lss, gaussian_line_reference
from shiftdetect.errors import DataError
from shiftdetect.pipeline import Cube
from shiftdetect.similarity import SimilarityKind, score_matrix
from shiftdetect.teststat import TestField, compute_field

from oracles import compute_field_rowwise, equal_up_to_zero_sign, similarity

MF = SimilarityKind.MATCHED_FILTER
SAD = SimilarityKind.SPECTRAL_ANGLE

_DICTIONARIES = (build_lss(gaussian_line_reference(30, 15, 5.0, 6.0), 15, 7.0),
                 build_lss(gaussian_line_reference(8, 4, 3.0), 3, 1.0))
# 1..70 pixels as a row, a column or a small block, and one 50x50 window:
# pixel counts on and off the BLAS block sizes
_GRIDS = st.one_of(st.integers(1, 70).map(lambda n: (1, n)),
                   st.integers(1, 70).map(lambda n: (n, 1)),
                   st.tuples(st.integers(1, 8), st.integers(1, 8)),
                   st.just((50, 50)))


@st.composite
def field_cases(draw):
    """A cube, dictionary and similarity for `compute_field`.  Values are
    continuous or quantised (ties, zeros of both signs), with now and then
    zero spectra, masked pixels, a partially NaN pixel or an infinity."""
    dictionary = draw(st.sampled_from(_DICTIONARIES))
    l = dictionary.length
    shape = draw(_GRIDS) + (l,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(0, 3, shape) * rng.choice([-0.5, 0.5], shape)
    else:
        data = rng.standard_normal(shape)
    pixels = data.reshape(-1, l)
    for fill in (0.0, np.nan):
        share = draw(st.sampled_from([0.0, 0.2, 1.0]))
        pixels[rng.random(len(pixels)) < share] = fill
    for fill in (np.nan, np.inf):
        if draw(st.integers(0, 9)) == 0:
            pixels[rng.integers(len(pixels)), rng.integers(l)] = fill
    return data, dictionary, draw(st.sampled_from([MF, SAD]))


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
            field = compute_field(Cube(data=cube), line_dictionary, kind)
            tmax, tmin, amax = naive_field(cube, line_dictionary, kind)
            assert np.array_equal(field.tmax, tmax)
            assert np.array_equal(field.tmin, tmin)
            assert np.array_equal(field.argmax_atom, amax)

    def test_scores_match_scalar_path(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 3, 30))
        field = compute_field(Cube(data=cube), line_dictionary, SAD)
        flat = cube.reshape(-1, 30)
        for i in range(flat.shape[0]):
            per_atom = [similarity(SAD, flat[i], a)
                        for a in line_dictionary.atoms]
            assert field.tmax[i] == pytest.approx(max(per_atom), rel=1e-12)
            assert field.tmin[i] == pytest.approx(min(per_atom), rel=1e-12)

    def test_single_atom_dictionary(self, gauss_reference, rng):
        d1 = build_lss(gauss_reference, 1, 0.0)
        cube = rng.standard_normal((5, 5, 30))
        field = compute_field(Cube(data=cube), d1, MF)
        assert np.array_equal(field.tmax, field.tmin)
        assert np.all(field.argmax_atom == 0)

    def test_planted_atom_is_argmax(self, line_dictionary):
        j = 4
        cube = 2.5 * line_dictionary.atoms[j][None, None, :]
        field = compute_field(Cube(data=cube), line_dictionary, SAD)
        assert field.argmax_atom[0] == j
        assert field.tmax[0] == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_duality_exact(self, line_dictionary, rng):
        # max(-y) = -min(y) and min(-y) = -max(y), bitwise
        cube = rng.standard_normal((8, 8, 30))
        for kind in (MF, SAD):
            plus = compute_field(Cube(data=cube), line_dictionary, kind)
            minus = compute_field(Cube(data=-cube), line_dictionary, kind)
            assert np.array_equal(minus.tmax, -plus.tmin)
            assert np.array_equal(minus.tmin, -plus.tmax)

    def test_extra_atom_never_hurts(self, gauss_reference, rng):
        small = build_lss(gauss_reference, 3, 6.0)
        # same grid plus two atoms appended outside: use a denser dictionary
        big = build_lss(gauss_reference, 5, 6.0)
        cube = rng.standard_normal((6, 6, 30))
        f_small = compute_field(Cube(data=cube), small, MF)
        f_big = compute_field(Cube(data=cube), big, MF)
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
        field = compute_field(Cube(data=cube), d, MF)
        assert field.argmax_atom[0] == 0

    def test_band_mismatch(self, line_dictionary, rng):
        with pytest.raises(DataError):
            compute_field(Cube(data=rng.standard_normal((3, 3, 29))),
                          line_dictionary, MF)

    def test_masked_pixels_dropped(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 4, 30))
        cube[1, 2, :] = np.nan
        field = compute_field(Cube(data=cube), line_dictionary, SAD)
        assert field.n == 15
        assert not np.any((field.rows == 1) & (field.cols == 2))

    def test_partial_nan_rejected(self, line_dictionary, rng):
        cube = rng.standard_normal((4, 4, 30))
        cube[1, 2, 5] = np.nan
        with pytest.raises(DataError, match="masked"):
            compute_field(Cube(data=cube), line_dictionary, SAD)


class TestComputeFieldOracle:
    """`compute_field` against its earlier row-wise form: the same bytes,
    except that a zero statistic may carry the other sign, and a DataError
    exactly where the earlier form raises one."""

    @settings(max_examples=300, deadline=None)
    @given(case=field_cases())
    def test_equals_rowwise_form(self, case):
        self.check_equals_rowwise_form(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=field_cases(), block=st.integers(2, 9))
    def test_equals_rowwise_form_across_blocks(self, case, block):
        # blocks of 2..9 spectra: masked pixels, zero spectra, ties and
        # NaN or infinite scores fall on both sides of block edges.  (A
        # block of one row is a matrix-vector product, summed otherwise.)
        with mock.patch.object(teststat, "_BLOCK_PIXELS", block):
            self.check_equals_rowwise_form(*case)

    def test_block_edges_planted(self, line_dictionary, rng):
        # with blocks of 4 spectra: a masked pixel inside block 0, zero
        # spectra astride the first edge, infinities (NaN scores) astride
        # the second, and tied quantised spectra everywhere else
        data = rng.integers(-1, 2, (23, 1, 30)) * 0.5
        data[3] = np.nan
        data[[4, 5]] = 0.0
        data[8, 0, 7] = np.inf
        data[9, 0, 7] = -np.inf
        with mock.patch.object(teststat, "_BLOCK_PIXELS", 4):
            self.check_equals_rowwise_form(data, line_dictionary, SAD)

    def test_equals_rowwise_form_on_a_large_field(self, line_dictionary,
                                                 rng):
        # 13,200 pixels, about 200 of them masked: three blocks of the
        # default size, each product on BLAS's full-size kernels
        data = rng.standard_normal((120, 110, 30))
        data[rng.random((120, 110)) < 200 / 13_200] = np.nan
        for kind in (MF, SAD):
            self.check_equals_rowwise_form(data, line_dictionary, kind)

    @staticmethod
    def check_equals_rowwise_form(data, dictionary, kind):
        cube = Cube(data=data)
        # an infinity can make NaN scores, with numpy's invalid-value flag
        with np.errstate(all="ignore"):
            try:
                expected = compute_field_rowwise(cube, dictionary, kind)
            except DataError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    compute_field(cube, dictionary, kind)
                return
            got = compute_field(cube, dictionary, kind)
        assert equal_up_to_zero_sign(got.tmax, expected.tmax)
        assert equal_up_to_zero_sign(got.tmin, expected.tmin)
        for name in ("argmax_atom", "rows", "cols"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.shape == expected.shape

    def test_scores_come_from_score_matrix(self, line_dictionary, rng,
                                           monkeypatch):
        # the benchmark's `--trace 1` wraps `teststat.score_matrix` by name,
        # so the scores must be fetched through that module attribute
        calls = []

        def spy(spectra, atoms, kind):
            calls.append(spectra.shape)
            return score_matrix(spectra, atoms, kind)

        monkeypatch.setattr(teststat, "score_matrix", spy)
        cube = rng.standard_normal((4, 5, 30))
        cube[1, 2] = np.nan
        assert compute_field(Cube(data=cube), line_dictionary, SAD).n == 19
        assert calls == [(19, 30)]
        # one call per block of unmasked spectra; the last block takes the
        # remainder
        calls.clear()
        monkeypatch.setattr(teststat, "_BLOCK_PIXELS", 8)
        assert compute_field(Cube(data=cube), line_dictionary, SAD).n == 19
        assert calls == [(8, 30), (11, 30)]

    def test_peak_memory_bounded(self, line_dictionary, rng):
        # 200x200x30, the fit window: 9.6 MB of spectra, 4.8 MB of scores
        # for the whole field.  Blocks hold the peak to the outputs (1.6 MB
        # with rows and cols), a NaN screen (1.2 MB) and the largest
        # block's scores: 4.5 MB measured, against 15.4 MB when the whole
        # field was scored at once.
        cube = rng.standard_normal((200, 200, 30))
        tracemalloc.start()
        try:
            compute_field(Cube(data=cube), line_dictionary, SAD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000, peak


class TestTestFieldContainer:
    def test_invariant_checked(self):
        with pytest.raises(DataError):
            TestField(tmax=np.array([1.0]), tmin=np.array([2.0]),
                      argmax_atom=np.array([0]), rows=np.array([0]),
                      cols=np.array([0]), shape=(1, 1))

    def test_to_map(self, line_dictionary, rng):
        cube = rng.standard_normal((3, 4, 30))
        field = compute_field(Cube(data=cube), line_dictionary, MF)
        grid = field.to_map(field.tmax)
        assert grid.shape == (3, 4)
        assert grid[2, 1] == field.tmax[(field.rows == 2)
                                        & (field.cols == 1)][0]

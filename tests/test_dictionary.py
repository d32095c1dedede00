import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftdetect.dictionary import (Dictionary, ReferenceAtom,
                                    autocorrelation, build_lss,
                                    expected_max_gain,
                                    gaussian_line_reference)
from shiftdetect.errors import DataError
from tests.oracles import piecewise_linear_shift, write_dictionary_csv


def naive_roll_truncate(values, shift):
    """Independent index-shift of a sampled profile with zero padding."""
    l = len(values)
    out = np.zeros(l)
    for j in range(l):
        src = j - shift
        if 0 <= src < l:
            out[j] = values[src]
    return out


class TestReferenceAtom:
    def test_normalized_on_construction(self):
        ref = ReferenceAtom(np.array([1.0, 2.0, 2.0]), center_band=1)
        assert abs(np.linalg.norm(ref.values) - 1.0) < 1e-12

    def test_relaxed_mode_accepts_negatives(self):
        # negative samples need no flag; build_lss checks the atom Gram
        ref = ReferenceAtom(np.array([1.0, -0.01, 0.2]), center_band=0)
        assert ref.values[1] < 0

    def test_too_short(self):
        with pytest.raises(DataError):
            ReferenceAtom(np.array([1.0]), center_band=0)

    @pytest.mark.parametrize("shift", [0.0, 3.0, -2.5, 17.9])
    def test_unit_shift_is_the_normalized_sampled_shift(self,
                                                        gauss_reference,
                                                        shift):
        vec = gauss_reference.sampled_shift(shift)
        atom = gauss_reference.unit_shift(shift)
        assert atom.tobytes() == (vec / np.linalg.norm(vec)).tobytes()

    def test_unit_shift_off_support_is_none(self):
        ref = gaussian_line_reference(30, 15, 5.0, 6.0)
        assert ref.unit_shift(40.0) is None
        assert ref.unit_shift(-40.0) is None


class TestBuildLss:
    def test_shift_grid(self, gauss_reference):
        shifts = build_lss(gauss_reference, 5, 8.0).shifts
        assert np.allclose(shifts, [-8.0, -4.0, 0.0, 4.0, 8.0])

    def test_single_atom(self, gauss_reference):
        d = build_lss(gauss_reference, 1, 0.0)
        assert d.m == 1
        assert d.coherence == 0.0
        assert np.array_equal(d.atoms[0], gauss_reference.values)

    def test_single_atom_with_shift_fails(self, gauss_reference):
        with pytest.raises(DataError):
            build_lss(gauss_reference, 1, 3.0)

    def test_unit_norm_atoms(self, gauss_reference):
        for m in (2, 3, 7, 15):
            d = build_lss(gauss_reference, m, 7.0)
            norms = np.linalg.norm(d.atoms, axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_integer_mode_matches_naive_roll_bitwise(self, gauss_reference,
                                                     rng):
        d = build_lss(gauss_reference, 3, 8.0)
        for atom, shift in zip(d.atoms, d.shifts):
            raw = naive_roll_truncate(gauss_reference.values, int(shift))
            expected = raw / np.linalg.norm(raw)
            assert np.array_equal(atom, expected)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40),
           data=st.data())
    def test_fractional_shift_equals_piecewise_linear_oracle(self, values,
                                                             data):
        values = np.array(values)
        assume(np.linalg.norm(values) > 1e-3)
        ref = ReferenceAtom(values, data.draw(st.integers(0, len(values) - 1)))
        u = data.draw(st.floats(-len(values) - 2.0, len(values) + 2.0))
        assume(abs(u - round(u)) > 1e-9)
        assert ref.sampled_shift(u).tobytes() == \
            piecewise_linear_shift(ref, u).tobytes()

    def test_fractional_grid_without_model_resamples(self, gauss_reference):
        # shifts -8, -8/3, 8/3, 8: the inner two are not whole bands
        sampled = ReferenceAtom(gauss_reference.values, 15)
        d = build_lss(sampled, 4, 8.0)
        for atom, shift in zip(d.atoms[1:3], d.shifts[1:3]):
            raw = piecewise_linear_shift(sampled, shift)
            assert np.array_equal(atom, raw / np.linalg.norm(raw))

    def test_continuous_matches_integer_on_whole_shifts(self,
                                                        gauss_reference):
        # on a whole-band grid the atoms are rolls of the samples, so a
        # reference without a line model gives the Gaussian one's atoms
        sampled = ReferenceAtom(gauss_reference.values, 15)
        di = build_lss(sampled, 5, 8.0)
        dc = build_lss(gauss_reference, 5, 8.0)
        assert np.allclose(di.atoms, dc.atoms, atol=1e-12)

    def test_atom_vanished(self):
        ref = gaussian_line_reference(30, 15, 5.0, 6.0)
        with pytest.raises(DataError, match="vanished"):
            build_lss(ref, 3, 40.0)

    def test_fig6_coherences(self, gauss_reference):
        # Direct dot-product evaluation of the stated reference gives
        # 0.0262 (3 atoms) and 0.4109 (5 atoms); the figure caption's
        # rounded 0.2 / 0.5 do not follow from its own parameters (see the
        # decisions ledger), so the computed values are frozen here.
        d3 = build_lss(gauss_reference, 3, 8.0)
        d5 = build_lss(gauss_reference, 5, 8.0)
        g3 = d3.atoms[1] @ d3.atoms[2]  # consecutive atoms, 8 bands apart
        assert abs(d3.coherence - 0.026175620895397197) < 1e-12
        assert abs(d5.coherence - 0.4108661421044116) < 1e-12
        assert d3.coherence == pytest.approx(
            abs(d3.atoms[0] @ d3.atoms[1]), abs=1e-12)
        assert d5.coherence == pytest.approx(
            abs(d5.atoms[1] @ d5.atoms[2]), abs=1e-12)
        assert d5.coherence > d3.coherence > 0.0
        assert g3 == pytest.approx(autocorrelation(gauss_reference, 8.0),
                                   abs=1e-12)

    def test_coherence_equals_consecutive_pair(self, gauss_reference):
        for m in (3, 5, 9, 15):
            d = build_lss(gauss_reference, m, 7.0)
            consecutive = d.atoms[:-1, :] * d.atoms[1:, :]
            assert d.coherence == pytest.approx(consecutive.sum(axis=1).max(),
                                                abs=1e-12)

    def test_coherence_nondecreasing_in_m(self, gauss_reference):
        values = [build_lss(gauss_reference, m, 8.0).coherence
                  for m in range(2, 31)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_disjoint_supports_give_zero_coherence(self):
        ref = gaussian_line_reference(200, 100, 2.0, 3.0)
        d = build_lss(ref, 3, 50.0)
        assert d.coherence == 0.0

    def test_gram_is_a_correlation_matrix(self, line_dictionary):
        # the Gram matrix is the correlation of the per-atom matched-filter
        # scores under N(0, I) noise, which the false-alarm bound and its
        # Monte-Carlo checks sample from
        gram = line_dictionary.gram()
        m = line_dictionary.m
        assert gram.shape == (m, m)
        assert np.allclose(gram, gram.T, atol=1e-12)
        assert np.all(np.abs(np.diag(gram) - 1.0) <= 1e-10)
        assert np.all(gram >= -1e-10)
        assert np.linalg.eigvalsh(gram)[0] >= -1e-10

    def test_relaxed_gram_check_fires(self):
        values = np.zeros(40)
        values[10] = 1.0
        values[30] = -0.6
        ref = ReferenceAtom(values, center_band=10)
        with pytest.raises(DataError, match="non-negativity"):
            build_lss(ref, 3, 20.0)


class TestAutocorrelation:
    def test_zero_shift_is_one(self, gauss_reference):
        assert autocorrelation(gauss_reference, 0.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_monotone_nonincreasing(self, gauss_reference):
        grid = np.linspace(0.0, 12.0, 49)
        vals = [autocorrelation(gauss_reference, u) for u in grid]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_disjoint_support_is_zero(self):
        ref = gaussian_line_reference(100, 50, 2.0, 3.0)
        assert autocorrelation(ref, 20.0) == 0.0

    def test_bounded(self, gauss_reference, rng):
        for u in rng.uniform(-20, 20, 50):
            assert -1.0 - 1e-12 <= autocorrelation(gauss_reference, u) \
                <= 1.0 + 1e-12

    def test_fallback_interpolant_matches_model_on_grid(self,
                                                        gauss_reference):
        sampled = ReferenceAtom(gauss_reference.values.copy(), 15,
                                model=None)
        for u in (1.0, 3.0, -2.0):
            assert autocorrelation(sampled, u) == pytest.approx(
                autocorrelation(gauss_reference, u), abs=1e-12)


class TestExpectedMaxGain:
    def test_zero_amplitude(self, gauss_reference):
        assert expected_max_gain(gauss_reference, 5, 8.0, 0.0) == 0.0

    def test_zero_tau_is_the_unshifted_overlap(self, gauss_reference):
        want = 2.7 * autocorrelation(gauss_reference, 0.0)
        assert expected_max_gain(gauss_reference, 5, 0.0, 2.7) == want
        assert want == pytest.approx(2.7, abs=1e-12)

    def test_dense_grid_approaches_amplitude(self, gauss_reference):
        val = expected_max_gain(gauss_reference, 400, 8.0, 2.7)
        assert val == pytest.approx(2.7, rel=1e-3)

    def test_monotone_in_m_and_saturates(self, gauss_reference):
        vals = [expected_max_gain(gauss_reference, m, 8.0, 2.7)
                for m in range(2, 21)]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 2.7
        assert vals[-1] > 0.97 * 2.7

    def test_against_dense_riemann_oracle(self, gauss_reference):
        m, tau, a = 6, 8.0, 2.7
        half = tau / (m - 1)
        e = np.linspace(0.0, half, 20001)
        gam = np.array([autocorrelation(gauss_reference, u) for u in e])
        oracle = a * np.trapezoid(gam, e) / half
        assert expected_max_gain(gauss_reference, m, tau, a) == pytest.approx(
            oracle, abs=1e-6)


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, gauss_reference, tmp_path):
        d = build_lss(gauss_reference, 15, 7.0)
        path = tmp_path / "dict.csv"
        d.save_csv(path)
        loaded = Dictionary.load_csv(path)
        assert np.array_equal(loaded.atoms, d.atoms)
        assert np.array_equal(loaded.shifts, d.shifts)
        assert loaded.tau == d.tau
        assert loaded.coherence == d.coherence

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(DataError):
            Dictionary.load_csv(path)

    @pytest.mark.parametrize("content", [None, b"0,1\r\n\xff\xfe\r\n"],
                             ids=["missing", "undecodable"])
    def test_unreadable_file_names_it(self, tmp_path, content):
        path = tmp_path / "dict.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match="cannot read .*dict.csv"):
            Dictionary.load_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:2] + ["abc," + rows[2]] + rows[3:],
        lambda rows: ["x" + rows[0]] + rows[1:],
        lambda rows: rows[:-1] + [rows[-1] + ",1"],
    ], ids=["atom-abc", "shift-x", "ragged-row"])
    def test_load_rejects_malformed_numbers(self, gauss_reference, tmp_path,
                                            edit):
        path = tmp_path / "dict.csv"
        build_lss(gauss_reference, 5, 4.0).save_csv(path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(DataError, match="malformed number"):
            Dictionary.load_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), l=st.integers(2, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_csv_bytes_equal_csv_writer(self, tmp_path_factory, m, l, seed):
        rng = np.random.default_rng(seed)
        atoms = rng.standard_normal((m, l))
        atoms[:, 0] *= np.where(rng.random(m) < 0.3, -0.0, 1.0)
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        d = Dictionary(atoms=atoms, shifts=rng.standard_normal(m), tau=1.0)
        root = tmp_path_factory.mktemp("dict")
        d.save_csv(root / "fast.csv")
        write_dictionary_csv(d, root / "oracle.csv")
        assert (root / "fast.csv").read_bytes() == \
            (root / "oracle.csv").read_bytes()
        back = Dictionary.load_csv(root / "fast.csv")
        assert back.atoms.tobytes() == d.atoms.tobytes()
        assert back.shifts.tobytes() == d.shifts.tobytes()

    @pytest.mark.parametrize("part, value", [
        ("atoms", np.nan), ("shifts", np.nan), ("shifts", -np.inf)])
    def test_non_finite_entry_rejected(self, line_dictionary, part, value):
        # a NaN atom entry makes a NaN norm, and every comparison with NaN
        # is false
        fields = dict(atoms=line_dictionary.atoms.copy(),
                      shifts=line_dictionary.shifts.copy())
        fields[part].flat[1] = value
        with pytest.raises(DataError):
            Dictionary(**fields, tau=line_dictionary.tau)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 6), l=st.integers(2, 8),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_round_trip_and_non_finite_entry_fails_closed(
            self, tmp_path_factory, m, l, seed, data):
        rng = np.random.default_rng(seed)
        atoms = rng.standard_normal((m, l))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        shifts = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=m, max_size=m)))
        d = Dictionary(atoms=atoms, shifts=shifts, tau=1.0)
        path = tmp_path_factory.mktemp("dict") / "d.csv"
        d.save_csv(path)
        back = Dictionary.load_csv(path)
        assert back.atoms.tobytes() == d.atoms.tobytes()
        assert back.shifts.tobytes() == d.shifts.tobytes()
        # any one entry, shift or atom, made non-finite
        rows = [row.split(",") for row in path.read_text().splitlines()]
        row = data.draw(st.integers(0, m))
        col = data.draw(st.integers(0, len(rows[row]) - 1))
        rows[row][col] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(DataError):
            Dictionary.load_csv(path)

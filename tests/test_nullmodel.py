from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftdetect.errors import DataError
from shiftdetect.nullmodel import (NullModel, _ratio_round_down,
                                   empirical_pvalues, fit_null)
from shiftdetect.similarity import SimilarityKind
from shiftdetect.teststat import TestField, compute_field
from tests.oracles import fit_null_sorted, write_null_csv


def make_field(tmax, tmin):
    tmax = np.asarray(tmax, dtype=float)
    tmin = np.asarray(tmin, dtype=float)
    n = tmax.size
    return TestField(tmax=tmax, tmin=tmin,
                     argmax_atom=np.zeros(n, dtype=int),
                     rows=np.arange(n), cols=np.zeros(n, dtype=int),
                     shape=(n, 1))


def random_field(rng, n, contamination=0.2, lift=2.0):
    """Continuous synthetic max/min pairs with an optional upper-tail
    contamination, for property tests."""
    tmax = rng.standard_normal(n)
    k = int(contamination * n)
    tmax[:k] += lift * rng.random(k)
    tmin = tmax - np.abs(rng.standard_normal(n)) - 0.05
    return make_field(tmax, tmin)


class TestFitNull:
    def test_hand_example(self):
        # tmax (1,2,3), tmin (-3,-2,-1): pooled sort (1,1,2,2,3,3),
        # median (2+2)/2 = 2, two max stats at or below it, pi0 = min(4/3,1)
        model = fit_null(make_field([1.0, 2.0, 3.0], [-3.0, -2.0, -1.0]))
        assert model.mu0_hat == 2.0
        assert model.n0 == 2
        assert model.pi0_hat == 1.0

    def test_symmetric_pure_noise_gives_pi0_one(self, rng):
        tmax = np.abs(rng.standard_normal(501))
        field = make_field(tmax, -tmax)
        assert fit_null(field).pi0_hat == 1.0

    def test_crossing_equation_exact(self, rng):
        for trial in range(25):
            field = random_field(rng, 301 + trial)
            model = fit_null(field)
            low = np.count_nonzero(field.tmax <= model.mu0_hat)
            high = np.count_nonzero(-field.tmin > model.mu0_hat)
            assert low == high == model.n0

    def test_truncated_samples_sizes_match(self, rng):
        field = random_field(rng, 777)
        model = fit_null(field)
        assert model.pooled.size == 2 * model.n0

    def test_pixel_permutation_invariance(self, rng):
        field = random_field(rng, 400)
        perm = rng.permutation(400)
        shuffled = make_field(field.tmax[perm], field.tmin[perm])
        a, b = fit_null(field), fit_null(shuffled)
        assert a.mu0_hat == b.mu0_hat
        assert a.pi0_hat == b.pi0_hat
        assert np.array_equal(a.pooled, b.pooled)

    def test_degenerate_field(self):
        with pytest.raises(DataError, match="degenerate"):
            fit_null(make_field([1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]))

    def test_needs_two_pixels(self):
        with pytest.raises(DataError):
            fit_null(make_field([1.0], [0.0]))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(*[st.sampled_from(
        [-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])] * 2),
        min_size=2, max_size=40))
    def test_equals_sort_oracle_on_tied_fields(self, pairs):
        # quantised statistics with both signed zeros: the partition-based
        # fit must give the bits of two full stable sorts, including the
        # sign of a zero median and the order of signed zeros in pooled
        field = make_field([max(p) for p in pairs], [min(p) for p in pairs])
        try:
            expected = fit_null_sorted(field)
        except DataError as exc:
            with pytest.raises(DataError, match=str(exc)):
                fit_null(field)
            return
        got = fit_null(field)
        assert np.float64(got.mu0_hat).tobytes() == \
            np.float64(expected.mu0_hat).tobytes()
        assert (got.n0, got.pi0_hat) == (expected.n0, expected.pi0_hat)
        assert got.pooled.tobytes() == expected.pooled.tobytes()

    def test_pi0_upward_bias_in_contaminated_setting(self, line_dictionary,
                                                     rng):
        # the two-groups setting with true null fraction 0.81: the estimate
        # should exceed it on average (mass leaking across the median)
        from shiftdetect.simulate import (NoiseSpec, SimConfig, generate,
                                          _derived_seed)
        pi0s = []
        for rep in range(200):
            cfg = SimConfig(n_y=50, n_x=50,
                            noise=NoiseSpec("student", nu=5.0),
                            dictionary=line_dictionary, pi0=0.81,
                            amplitude_range=(0.1, 3.0),
                            seed=_derived_seed(99, rep), signal_atom=7)
            cube, _ = generate(cfg)
            field = compute_field(cube, line_dictionary,
                                  SimilarityKind.SPECTRAL_ANGLE)
            pi0s.append(fit_null(field).pi0_hat)
        assert np.mean(pi0s) > 0.81
        assert np.mean(pi0s) == pytest.approx(0.89, abs=0.06)


class TestNullCdf:
    """The learned null CDF is 1 - p: an empirical p-value is the share of
    pooled null values above the statistic."""

    @staticmethod
    def pvalue(model, t):
        return empirical_pvalues(model, np.array([t]))[0]

    def test_extremes(self, rng):
        model = fit_null(random_field(rng, 200))
        assert self.pvalue(model, model.pooled[0] - 1.0) == 1.0
        assert self.pvalue(model, model.pooled[-1]) == 0.0

    def test_at_median_at_least_half(self, rng):
        # every low-side sample sits at or below the median, so the CDF
        # there is at least 1/2 and the p-value at most 1/2
        for trial in range(10):
            model = fit_null(random_field(rng, 251 + trial))
            assert self.pvalue(model, model.mu0_hat) <= 0.5

    def test_counts_match_naive(self, rng):
        # p is the largest double not above the exact share of pooled
        # values above t
        model = fit_null(random_field(rng, 150))
        ts = rng.uniform(-3, 4, 50)
        for t in ts:
            naive = int(np.count_nonzero(model.pooled <= t))
            exact = Fraction(model.pooled.size - naive, model.pooled.size)
            p = self.pvalue(model, t)
            assert Fraction(p) <= exact < Fraction(np.nextafter(p, np.inf))

    def test_step_right_continuity(self, rng):
        model = fit_null(random_field(rng, 150))
        x = model.pooled[model.n0]
        assert self.pvalue(model, x) \
            < self.pvalue(model, np.nextafter(x, -np.inf))


class TestEmpiricalPvalues:
    def test_extremes(self, rng):
        field = random_field(rng, 200)
        model = fit_null(field)
        p = empirical_pvalues(model, np.array([model.pooled[-1] + 1.0,
                                               model.pooled[0] - 1.0]))
        assert p[0] == 0.0
        assert p[1] == 1.0

    def test_monotone_in_statistic(self, rng):
        field = random_field(rng, 300)
        model = fit_null(field)
        stats = np.sort(rng.uniform(-3, 4, 200))
        p = empirical_pvalues(model, stats)
        assert np.all(np.diff(p) <= 0)

    def test_range_and_count_consistency(self, rng):
        field = random_field(rng, 300)
        model = fit_null(field)
        p = empirical_pvalues(model, field)
        assert np.all((p >= 0) & (p <= 1))
        # within one float rounding of the plain count ratio
        counts = np.searchsorted(model.pooled, field.tmax, side="right")
        assert np.allclose(p, 1.0 - counts / (2 * model.n0), atol=1e-15)

    def test_separate_fit_and_test_fields(self, rng):
        fit_field = random_field(rng, 1000)
        test_field = random_field(rng, 100)
        model = fit_null(fit_field)
        p = empirical_pvalues(model, test_field)
        assert p.size == 100

    @settings(max_examples=80, deadline=None)
    @given(n0=st.integers(1, 100_000), levels=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1),
           picks=st.lists(st.tuples(st.sampled_from(["on", "between",
                                                     "below", "above"]),
                                    st.floats(0.0, 1.0)),
                          min_size=1, max_size=40))
    def test_largest_double_not_above_exact_ratio(self, n0, levels, seed,
                                                  picks):
        # quantised pooled values, so ties are the rule; statistics sit on
        # pooled values, between neighbouring levels and beyond both ends
        rng = np.random.default_rng(seed)
        pooled = np.sort(rng.integers(0, levels, 2 * n0).astype(float))
        model = NullModel(mu0_hat=float(pooled[n0 - 1]), pi0_hat=1.0,
                          n0=n0, n_fit=2 * n0, pooled=pooled)
        stats = []
        for kind, u in picks:
            v = pooled[min(int(u * pooled.size), pooled.size - 1)]
            stats.append({"on": v, "between": v + 0.5, "below": -1.0 - u,
                          "above": levels + u}[kind])
        p = empirical_pvalues(model, np.array(stats))
        for s, got in zip(stats, p):
            exact = Fraction(int(np.count_nonzero(pooled > s)), 2 * n0)
            assert Fraction(float(got)) <= exact
            assert Fraction(float(np.nextafter(got, np.inf))) > exact

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2 ** 20, 2 ** 26 - 1), data=st.data())
    def test_round_down_exact_at_large_denominators(self, d, data):
        # pooled arrays of size 2*n0 this large are too costly to build,
        # so the ratio is checked directly
        cs = data.draw(st.lists(st.integers(0, d), max_size=200))
        cs = np.array([0, 1, d - 1, d] + cs)
        for c, got in zip(cs, _ratio_round_down(cs, d)):
            exact = Fraction(int(c), d)
            assert Fraction(float(got)) <= exact
            assert Fraction(float(np.nextafter(got, np.inf))) > exact

    def test_round_down_rejects_denominator_at_limit(self):
        with pytest.raises(DataError, match=r"2\*\*26"):
            _ratio_round_down(np.array([0, 1]), 2 ** 26)


class TestConsistencyAtScale:
    def test_null_cdf_matches_monte_carlo_oracle(self, line_dictionary, rng):
        # pure-noise cube, n = 40000 pixels: the fitted step CDF should sit
        # within KS distance 0.02 of a 1e5-run Monte-Carlo oracle of the
        # max-statistic null law
        from shiftdetect.simulate import NoiseSpec, SimConfig, generate
        cfg = SimConfig(n_y=200, n_x=200,
                        noise=NoiseSpec("student", nu=5.0),
                        dictionary=line_dictionary, pi0=1.0, seed=12345)
        cube, _ = generate(cfg)
        field = compute_field(cube, line_dictionary,
                              SimilarityKind.SPECTRAL_ANGLE)
        model = fit_null(field)

        draws = rng.standard_t(5.0, size=(10 ** 5, 30))
        scores = (draws @ line_dictionary.atoms.T)
        scores /= np.linalg.norm(draws, axis=1)[:, None]
        t_null = np.sort(scores.max(axis=1))

        # sup_t |F0_hat(t) - F0_mc(t)| evaluated on the pooled support
        grid = model.pooled
        f_hat = np.searchsorted(model.pooled, grid, side="right") \
            / model.pooled.size
        f_mc = np.searchsorted(t_null, grid, side="right") / t_null.size
        ks = np.max(np.abs(f_hat - f_mc))
        assert ks < 0.02
        # and the location estimate lands on the true null median
        true_median = np.quantile(t_null, 0.5)
        assert abs(model.mu0_hat - true_median) < 0.01


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        model = fit_null(random_field(rng, 333))
        path = tmp_path / "model.csv"
        model.save_csv(path)
        back = NullModel.load_csv(path)
        assert back.mu0_hat == model.mu0_hat
        assert back.pi0_hat == model.pi0_hat
        assert back.n0 == model.n0
        assert back.n_fit == model.n_fit
        assert np.array_equal(back.pooled, model.pooled)

    def test_reloaded_model_reproduces_pvalues(self, rng, tmp_path):
        field = random_field(rng, 211)
        model = fit_null(field)
        path = tmp_path / "model.csv"
        model.save_csv(path)
        back = NullModel.load_csv(path)
        assert np.array_equal(empirical_pvalues(back, field),
                              empirical_pvalues(model, field))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(DataError):
            NullModel.load_csv(path)

    @pytest.mark.parametrize("text", ["mu0_hat,pi0_hat,n0,n_fit",
                                      "mu0_hat,pi0_hat,n0,n_fit\r\n"])
    def test_load_rejects_header_only(self, tmp_path, text):
        path = tmp_path / "model.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="malformed NullModel CSV"):
            NullModel.load_csv(path)

    @pytest.mark.parametrize("content", [
        None, b"mu0_hat,pi0_hat,n0,n_fit\r\n\xff\xfe\r\n"],
        ids=["missing", "undecodable"])
    def test_unreadable_file_names_it(self, tmp_path, content):
        path = tmp_path / "model.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(DataError, match="cannot read .*model.csv"):
            NullModel.load_csv(path)

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=30),
           mu0=st.floats(allow_nan=False, allow_infinity=False),
           pi0=st.floats(0.0, 1.0, exclude_min=True),
           n_fit=st.integers(30, 2 ** 40))
    def test_bytes_equal_csv_writer_and_round_trip(self, tmp_path_factory,
                                                   values, mu0, pi0, n_fit):
        pooled = np.sort(np.array(values * 2), kind="stable")
        model = NullModel(mu0_hat=mu0, pi0_hat=pi0, n0=len(values),
                          n_fit=n_fit, pooled=pooled)
        root = tmp_path_factory.mktemp("null")
        model.save_csv(root / "fast.csv")
        write_null_csv(model, root / "oracle.csv")
        assert (root / "fast.csv").read_bytes() == \
            (root / "oracle.csv").read_bytes()
        back = NullModel.load_csv(root / "fast.csv")
        assert np.float64(back.mu0_hat).tobytes() == \
            np.float64(mu0).tobytes()
        assert (back.pi0_hat, back.n0, back.n_fit) == (pi0, model.n0, n_fit)
        assert back.pooled.tobytes() == pooled.tobytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:5] + ["abc"] + rows[6:], "malformed"),
        (lambda rows: rows[:2] + ["1,2,3"] + rows[3:], "malformed"),
        (lambda rows: rows[:1] + ["0.5,x,4,9"] + rows[2:], "malformed"),
        (lambda rows: rows[:1] + ["0.5,1"] + rows[2:], "malformed"),
        (lambda rows: ["mu0_hat"] + rows[1:], "not a NullModel"),
        (lambda rows: rows[:2] + rows[:1:-1], "sorted"),
        (lambda rows: rows[:2] + ["nan"] + rows[3:], "finite"),
        (lambda rows: rows[:-1] + ["inf"], "finite"),
        (lambda rows: rows[:-1], "2\\*n0"),
        (lambda rows: rows[:1] + ["nan," + rows[1].split(",", 1)[1]]
         + rows[2:], "mu0_hat must be finite"),
        (lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0] + ",1"]
         + rows[2:], "n0 <= n_fit"),
        (lambda rows: rows[:1] + ["0.5,1,0,50"], "1 <= n0"),
    ], ids=["abc", "two-columns", "values-x", "short-values", "header",
            "reversed", "nan", "inf", "one-short", "mu0-nan",
            "n-fit-below-n0", "n0-0"])
    def test_load_fails_closed(self, rng, tmp_path, edit, message):
        path = tmp_path / "model.csv"
        fit_null(random_field(rng, 50)).save_csv(path)
        rows = path.read_text().splitlines()
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(DataError, match=message):
            NullModel.load_csv(path)

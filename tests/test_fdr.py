import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftdetect.errors import DataError
from shiftdetect.fdr import _decide, bh_reject, detect, qvalues, storey_pi0
from shiftdetect.nullmodel import empirical_pvalues, fit_null
from shiftdetect.similarity import SimilarityKind
from shiftdetect.teststat import compute_field
from tests.test_nullmodel import make_field, random_field


def bh_bruteforce(pvalues, q):
    """Independent scan over every cutoff k of the step-up definition."""
    ps = np.sort(np.asarray(pvalues))
    n = ps.size
    k_hat = 0
    for k in range(1, n + 1):
        if ps[k - 1] <= q * k / n:
            k_hat = k
    return k_hat


class TestBhReject:
    def test_hand_example(self):
        # thresholds q*k/n = (0.0167, 0.0333, 0.05); only 0.001 passes
        det = bh_reject(np.array([0.001, 0.2, 0.9])).detected_at(0.05)
        assert np.count_nonzero(det) == 1
        assert list(det) == [True, False, False]

    def test_all_ones_rejects_nothing(self):
        det = bh_reject(np.ones(7)).detected_at(0.1)
        assert np.count_nonzero(det) == 0
        assert not det.any()

    def test_all_zero_rejects_everything(self):
        det = bh_reject(np.zeros(7)).detected_at(0.1)
        assert np.count_nonzero(det) == 7
        assert det.all()

    def test_matches_bruteforce_on_random_vectors(self, rng):
        for trial in range(1000):
            n = int(rng.integers(1, 40))
            p = rng.random(n)
            if trial % 3 == 0:  # inject ties
                p = np.round(p, 1)
            q = float(rng.random())
            det = bh_reject(p).detected_at(q)
            assert np.count_nonzero(det) == bh_bruteforce(p, q), (p, q)

    def test_ties_rejected_together(self):
        p = np.array([0.01, 0.01, 0.01, 0.8])
        assert bh_reject(p).detected_at(0.05)[:3].all()

    def test_monotone_in_q(self, rng):
        p = rng.random(100) ** 2
        prev = np.zeros(100, dtype=bool)
        for q in (0.01, 0.05, 0.1, 0.2, 0.5):
            det = bh_reject(p).detected_at(q)
            assert np.all(det | ~prev)  # grows with q
            prev = det

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            bh_reject(np.array([]))
        with pytest.raises(DataError):
            bh_reject(np.array([0.5])).detected_at(1.5)
        with pytest.raises(DataError):  # detect's domain: q in [0, 1)
            bh_reject(np.array([0.5])).detected_at(1.0)


class TestQvalues:
    def test_single_pvalue(self):
        assert qvalues(np.array([0.37]))[0] == pytest.approx(0.37)

    def test_hand_example(self):
        # raw p*n/k = (0.04, 0.04, 0.04, 0.9); running min from the top
        # leaves it unchanged
        q = qvalues(np.array([0.01, 0.02, 0.03, 0.9]))
        assert np.allclose(q, [0.04, 0.04, 0.04, 0.9])

    def test_monotone_in_pvalue(self, rng):
        p = rng.random(200)
        q = _decide(p, 0.9).qvalues
        order = np.argsort(p)
        assert np.all(np.diff(q[order]) >= -1e-15)

    def test_threshold_consistency_with_bh(self, rng):
        # q-value <= q exactly reproduces the step-up rejection set at
        # level q / pi0
        for _ in range(50):
            p = rng.random(60)
            pi0 = float(rng.uniform(0.5, 1.0))
            q = float(rng.uniform(0.02, 0.5))
            det = bh_reject(p).detected_at(q / pi0)
            assert np.array_equal(_decide(p, pi0).qvalues <= q, det)

    def test_clipped_to_unit(self, rng):
        q = qvalues(rng.random(50) * 0.99 + 0.01)
        assert np.all(q <= 1.0)


class TestStoreyPi0:
    def test_uniform_pvalues_near_one(self, rng):
        p = rng.random(20000)
        assert storey_pi0(p, 0.5) == pytest.approx(1.0, abs=0.03)

    def test_all_above_zeta(self):
        p = np.full(10, 0.9)
        # (1 + 10) / ((1 - 0.5) * 10) = 2.2, clipped to 1
        assert storey_pi0(p, 0.5) == 1.0

    def test_formula_instantiation(self):
        p = np.array([0.6, 0.7, 0.8, 0.9])
        zeta = 0.25
        assert storey_pi0(p, zeta) == min((1 + 4) / ((1 - zeta) * 4), 1.0)

    def test_prop3_exact_equality_full_grid(self, rng):
        # at every admissible grid point zeta = k/(2 n0), Storey's estimate
        # equals the empirical-null estimate bit for bit
        for trial in range(20):
            field = random_field(rng, int(rng.integers(50, 400)))
            model = fit_null(field)
            p = empirical_pvalues(model, field)
            for k in range(model.n0, 2 * model.n0):
                got = storey_pi0(p, Fraction(k, 2 * model.n0))
                assert got == model.pi0_hat, (trial, k, model.n0)

    def test_zeta_validation(self):
        with pytest.raises(DataError):
            storey_pi0(np.array([0.5]), 1.0)
        with pytest.raises(DataError):
            storey_pi0(np.array([0.5]), -0.1)


class TestDetect:
    def test_zero_level_detects_nothing(self, rng):
        field = random_field(rng, 100)
        model = fit_null(field)
        assert np.count_nonzero(detect(model, field).detected_at(0.0)) == 0

    def test_monotone_in_level(self, rng):
        field = random_field(rng, 400, contamination=0.1, lift=4.0)
        model = fit_null(field)
        prev = np.zeros(field.n, dtype=bool)
        for q in (0.05, 0.1, 0.2, 0.4):
            det = detect(model, field).detected_at(q)
            assert np.all(det | ~prev)
            prev = det

    def test_uses_empirical_pi0_plugin(self, rng):
        field = random_field(rng, 300, contamination=0.3, lift=4.0)
        model = fit_null(field)
        res = detect(model, field)
        p = empirical_pvalues(model, field)
        manual = bh_reject(p).detected_at(min(0.2 / model.pi0_hat, 1.0))
        assert np.array_equal(res.detected_at(0.2), manual)
        assert res.pi0 == model.pi0_hat

    def test_qvalue_threshold_matches_decision(self, rng):
        field = random_field(rng, 300, contamination=0.3, lift=4.0)
        model = fit_null(field)
        res = detect(model, field)
        for q in (0.05, 0.1, 0.2):
            assert np.array_equal(res.qvalues <= q, res.detected_at(q))

    def test_pi0_modes(self, rng):
        field = random_field(rng, 200, contamination=0.3, lift=4.0)
        model = fit_null(field)
        r_emp = detect(model, field, "empirical").detected_at(0.2)
        r_one = detect(model, field, "one").detected_at(0.2)
        r_sto = detect(model, field, "storey:0.5").detected_at(0.2)
        # plug-in correction can only enlarge the rejection set
        assert np.all(r_emp | ~r_one)
        assert np.count_nonzero(r_sto) >= 0
        with pytest.raises(DataError):
            detect(model, field, "bogus")

    @pytest.mark.parametrize("spec", [
        "bogus", "", "Empirical", "empirical:", "empirical:0.5", "one:",
        "storey:", "storey:x", "storey:0.5:0.1", "storey0.5"])
    def test_unknown_pi0_spec_is_quoted(self, rng, spec):
        field = random_field(rng, 50)
        with pytest.raises(DataError, match=re.escape(repr(spec))):
            detect(fit_null(field), field, spec)

    def test_detect_on_separate_test_field(self, line_dictionary, rng):
        from shiftdetect.simulate import NoiseSpec, SimConfig, generate
        fit_cfg = SimConfig(n_y=80, n_x=80,
                            noise=NoiseSpec("gaussian"),
                            dictionary=line_dictionary, pi0=1.0, seed=5)
        test_cfg = SimConfig(n_y=20, n_x=20,
                             noise=NoiseSpec("gaussian"),
                             dictionary=line_dictionary, pi0=1.0, seed=6)
        fit_cube, _ = generate(fit_cfg)
        test_cube, _ = generate(test_cfg)
        kind = SimilarityKind.SPECTRAL_ANGLE
        model = fit_null(compute_field(fit_cube, line_dictionary, kind))
        res = detect(model, compute_field(test_cube, line_dictionary, kind))
        assert res.pvalues.size == 400


def step_up_set(p, level):
    """Decision set of the brute-force scan: every p <= p_(k_hat)."""
    k = bh_bruteforce(p, level)
    return p <= np.sort(p)[k - 1] if k else np.zeros(p.size, dtype=bool)


# integer statistics: pooled null values and test statistics tie often, so
# the p-values are quantised counts c/(2 n0) with many ties
int_stats = st.lists(st.integers(-4, 6), min_size=2, max_size=60)
levels = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4]),
                   st.floats(0.0, 1.0, exclude_max=True))


class TestDecisionsFromOneSort:
    @settings(max_examples=300, deadline=None)
    @given(fit_max=int_stats, test_max=int_stats,
           gaps=st.lists(st.integers(0, 3), min_size=60, max_size=60),
           spec=st.sampled_from(["empirical", "one", "storey",
                                 "storey:0.25", "storey:0.5", "storey:0.75"]),
           q=levels, extra=st.lists(levels, min_size=1, max_size=4))
    def test_detected_at_equals_fresh_decision_and_scan(
            self, fit_max, test_max, gaps, spec, q, extra):
        fit_max = np.array(fit_max, dtype=float)
        fit_field = make_field(fit_max, fit_max - gaps[:fit_max.size])
        try:
            model = fit_null(fit_field)
        except DataError:
            assume(False)
        test_max = np.array(test_max, dtype=float)
        field = make_field(test_max, test_max - gaps[:test_max.size])
        result = detect(model, field, spec)
        p = empirical_pvalues(model, field)
        assert np.array_equal(result.pvalues, p)
        mode, _, zeta = spec.partition(":")
        pi0 = (model.pi0_hat if mode == "empirical" else 1.0 if mode == "one"
               else storey_pi0(p, float(zeta or 0.5)))
        assert result.pi0 == pi0
        for level in [q] + extra:
            fresh = detect(model, field, spec)
            scan = (step_up_set(p, min(level / pi0, 1.0)) if level > 0
                    else np.zeros(p.size, dtype=bool))
            assert np.array_equal(result.detected_at(level),
                                  fresh.detected_at(level))
            assert np.array_equal(fresh.detected_at(level), scan)
            assert np.array_equal(fresh.qvalues, result.qvalues)


# quantised p-values c/d, as empirical p-values are: ties and exact zeros
quantised_p = st.integers(1, 12).flatmap(lambda d: st.lists(
    st.integers(0, d).map(lambda c: c / d), min_size=1, max_size=40))


class TestOneStepUpRule:
    @settings(max_examples=500, deadline=None)
    @given(p=quantised_p, q=levels, pi0=st.floats(0.05, 1.0))
    def test_bh_reject_detected_at_scan_and_qvalues_agree(self, p, q, pi0):
        p = np.array(p)
        res = bh_reject(p)
        scan = (step_up_set(p, q) if q > 0
                else np.zeros(p.size, dtype=bool))
        assert np.array_equal(res.detected_at(q), scan)
        if q == 0:
            return  # a zero q-value is not rejected at level 0
        qv = _decide(p, pi0).qvalues
        plug_in = step_up_set(p, min(q / pi0, 1.0))
        # two float evaluations of one rule: they can disagree only where
        # pi0 p_(k) n / k equals q in exact arithmetic
        differ = (qv <= q) != plug_in
        assert np.allclose(qv[differ], q, rtol=1e-12, atol=0), (qv, q)


import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr, ndtri, roots_legendre

from shiftdetect import pfabound
from shiftdetect.cli import main
from shiftdetect.dictionary import (Dictionary, ReferenceAtom,
                                    autocorrelation, build_lss,
                                    gaussian_line_reference)
from shiftdetect.errors import DataError, NumericError
from shiftdetect.pfabound import (_BoundRecursion, _bvnu, _tvn,
                                  normal_cdf_2d, normal_cdf_3d, pfa_bound,
                                  pfa_exact_orthogonal, threshold_for_pfa,
                                  threshold_for_pfa_orthogonal,
                                  threshold_table)
from tests.oracles import bvnu, tvn


def two_bump_reference():
    """Two bumps: the overlap curve rises again at the bump separation."""
    values = np.zeros(60)
    values[20] = 1.0
    values[40] = 1.0
    return ReferenceAtom(values, center_band=20)


def mc_orthant_2d(h, k, rho, n, rng):
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
    return np.count_nonzero((z1 <= h) & (z2 <= k)) / n


def mc_max_alpha(corr, eta, n, rng):
    """Monte-Carlo false-alarm rate of the max statistic for a given score
    correlation matrix."""
    L = np.linalg.cholesky(corr + 1e-12 * np.eye(corr.shape[0]))
    hits = 0
    chunk = 200_000
    done = 0
    while done < n:
        take = min(chunk, n - done)
        z = rng.standard_normal((take, corr.shape[0])) @ L.T
        hits += int(np.count_nonzero(z.max(axis=1) > eta))
        done += take
    return hits / n


class TestNormalCdf2d:
    def test_independence(self):
        assert normal_cdf_2d(0.7, -0.3, 0.0) == pytest.approx(
            float(ndtr(0.7) * ndtr(-0.3)), abs=1e-15)

    def test_comonotone(self):
        assert normal_cdf_2d(0.7, -0.3, 1.0) == pytest.approx(
            float(ndtr(-0.3)), abs=1e-15)

    def test_antithetic(self):
        want = max(0.0, float(ndtr(0.7) + ndtr(-0.3) - 1.0))
        assert normal_cdf_2d(0.7, -0.3, -1.0) == pytest.approx(want,
                                                               abs=1e-15)

    def test_orthant_closed_form(self):
        # P(X<=0, Y<=0) = 1/4 + asin(rho)/(2 pi)
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.8, 0.95, 0.999):
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert normal_cdf_2d(0.0, 0.0, rho) == pytest.approx(want,
                                                                 abs=1e-12)

    def test_symmetry_and_marginals(self, rng):
        for _ in range(50):
            h, k = rng.uniform(-3, 3, 2)
            rho = float(rng.uniform(-0.99, 0.99))
            assert normal_cdf_2d(h, k, rho) == pytest.approx(
                normal_cdf_2d(k, h, rho), abs=1e-14)
            assert normal_cdf_2d(h, 8.5, rho) == pytest.approx(
                float(ndtr(h)), abs=1e-10)

    def test_against_monte_carlo(self, rng):
        n = 10 ** 6
        for _ in range(10):
            h, k = rng.uniform(-2, 2, 2)
            rho = float(rng.uniform(-0.95, 0.95))
            est = mc_orthant_2d(h, k, rho, n, rng)
            se = math.sqrt(est * (1 - est) / n)
            assert abs(normal_cdf_2d(h, k, rho) - est) < 4 * se + 1e-9

    def test_invalid_rho(self):
        with pytest.raises(DataError):
            normal_cdf_2d(0.0, 0.0, 1.5)


@pytest.mark.parametrize("args", [
    (math.nan, 0.0, 0.5), (0.0, math.nan, -0.5),
    (math.nan, 0.0, 0.0, 0.5, 0.5, 0.5), (0.0, 0.0, math.nan, 0.0, 0.0, 0.0),
    (math.inf, math.nan, 0.0, 0.5, 0.5, 0.5),
])
def test_nan_limit_raises(args):
    # a NaN limit would otherwise come back as a NaN probability
    cdf = normal_cdf_2d if len(args) == 3 else normal_cdf_3d
    with pytest.raises(DataError, match="NaN"):
        cdf(*args)


@pytest.mark.parametrize("limits", [(0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)])
@pytest.mark.parametrize("rho", [(math.nan, 0.0, 0.0), (0.5, math.nan, 0.5),
                                 (0.0, 0.0, math.nan)])
def test_nan_correlation_raises(limits, rho):
    # the range test fails on NaN, before the PSD test or the kernels see it
    with pytest.raises(DataError, match="correlations"):
        normal_cdf_3d(*limits, *rho)


class TestNormalCdf3d:
    def test_independence(self):
        got = normal_cdf_3d(0.5, -0.2, 1.1, 0.0, 0.0, 0.0)
        want = float(ndtr(0.5) * ndtr(-0.2) * ndtr(1.1))
        assert got == pytest.approx(want, abs=1e-14)

    def test_orthant_closed_form(self):
        # P(all <= 0) = 1/8 + (asin r12 + asin r13 + asin r23)/(4 pi)
        cases = [(0.5, 0.3, 0.2), (0.9, 0.7, 0.6), (-0.4, 0.2, -0.3),
                 (0.96, 0.85, 0.96), (0.6, 0.6, 0.6)]
        for r12, r13, r23 in cases:
            want = 0.125 + (math.asin(r12) + math.asin(r13)
                            + math.asin(r23)) / (4 * math.pi)
            got = normal_cdf_3d(0, 0, 0, r12, r13, r23)
            assert got == pytest.approx(want, abs=1e-10)

    def test_degenerate_pair_reduces_to_bivariate(self):
        # rho12 = 1 collapses X1 and X2
        got = normal_cdf_3d(0.4, 1.0, -0.2, 1.0, 0.5, 0.5)
        want = normal_cdf_2d(0.4, -0.2, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_conditional_quadrature_oracle(self, rng):
        # independent reduction: integrate the conditional bivariate CDF
        # over the first coordinate with adaptive quadrature
        from scipy.integrate import quad
        from scipy.stats import norm

        def oracle(b1, b2, b3, r12, r13, r23):
            s12, s13 = math.sqrt(1 - r12 ** 2), math.sqrt(1 - r13 ** 2)
            rc = (r23 - r12 * r13) / (s12 * s13)
            val, _ = quad(lambda x: norm.pdf(x) * normal_cdf_2d(
                (b2 - r12 * x) / s12, (b3 - r13 * x) / s13, rc),
                -9.0, b1, epsabs=1e-12, epsrel=1e-12, limit=300)
            return val

        for _ in range(12):
            while True:
                r = rng.uniform(-0.9, 0.9, 3)
                corr = np.array([[1, r[0], r[1]],
                                 [r[0], 1, r[2]],
                                 [r[1], r[2], 1]])
                if np.linalg.eigvalsh(corr)[0] > 0.01:
                    break
            b = rng.uniform(-2.5, 2.5, 3)
            got = normal_cdf_3d(*b, *r)
            assert got == pytest.approx(oracle(*b, *r), abs=1e-9)

    def test_non_psd_rejected(self):
        with pytest.raises(DataError, match="non-PSD"):
            normal_cdf_3d(0, 0, 0, 0.9, 0.9, -0.9)


_LIMITS = st.one_of(st.floats(-8.0, 8.0),
                    st.sampled_from([math.inf, -math.inf, 40.0, -40.0,
                                     1e154, -1e154, 1e300, -1e300]))
_CORRS = st.one_of(st.floats(-1.0, 1.0),
                   st.sampled_from([0.0, 1.0, -1.0, 0.925, -0.925, 0.99999,
                                    -0.99999, 1.0 - 1e-15, -1.0 + 1e-15]))


@st.composite
def correlation_triples(draw):
    """(rho12, rho13, rho23) of a valid correlation matrix: the Gram matrix
    of three unit vectors, a singular matrix with one pair at +-1, or a
    single nonzero correlation."""
    kind = draw(st.sampled_from(["gram", "singular", "zeros"]))
    r = draw(_CORRS)
    pair = draw(st.integers(0, 2))
    if kind == "zeros":
        return tuple(r if p == pair else 0.0 for p in range(3))
    if kind == "singular":
        sign = draw(st.sampled_from([1.0, -1.0]))
        # X_i2 = sign X_i1, so the third coordinate meets X_i2 at sign * r
        return [(sign, r, sign * r), (r, sign, sign * r),
                (r, sign * r, sign)][pair]
    vectors = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9,
                                     max_size=9))).reshape(3, 3)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms < 1e-3):
        vectors, norms = np.eye(3), np.ones(3)
    unit = vectors / norms[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    return gram[0, 1], gram[0, 2], gram[1, 2]


class TestArrayKernels:
    """The array kernels against the scalar oracles, case by case:
    infinite limits, r = 0, |r| = 1, r within 1e-15 of +-1, zero and
    denormal limits, and singular trivariate pairs."""

    @settings(max_examples=300, deadline=None)
    @given(dh=_LIMITS, dk=_LIMITS, r=_CORRS)
    # near |r| = 1 the slope numerator must come from the exact difference
    # of close limits, not from (k - r h)/h or k/h - r, and the sign term
    # must not come from an underflowing product h k
    @example(dh=3.0, dk=3.0, r=1.0 - 1e-15)
    @example(dh=3.0, dk=3.0000000000000004, r=1.0 - 1e-15)
    @example(dh=-3.0, dk=3.0000000000000004, r=-1.0 + 1e-15)
    @example(dh=1.422988712199838e-192, dk=1.422988712199838e-192, r=0.5)
    # h k overflows for a huge limit unless the oracle takes it as infinite
    @example(dh=-0.449, dk=1e300, r=-1.0 + 1e-16)
    def test_bivariate_matches_oracle(self, dh, dk, r):
        assert abs(float(_bvnu(dh, dk, r)) - bvnu(dh, dk, r)) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(b=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
           rho=correlation_triples())
    @example(b=[0.0, 0.0, 2.2250738585e-313], rho=(0.0, 0.5, 0.0))
    def test_trivariate_matches_oracle(self, b, rho):
        got = float(_tvn(b, rho)[0])
        assert abs(got - tvn(*b, *rho)) <= 1e-14
        assert normal_cdf_3d(*b, *rho) == got

    @settings(max_examples=100, deadline=None)
    @given(b=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
           infinite=st.lists(st.sampled_from([None, math.inf, -math.inf]),
                             min_size=3, max_size=3).filter(any),
           rho=correlation_triples())
    def test_trivariate_infinite_limit_drops_coordinate(self, b, infinite,
                                                        rho):
        b = [v if v is not None else x for x, v in zip(b, infinite)]
        finite = [i for i in range(3) if math.isfinite(b[i])]
        if -math.inf in b:
            want = 0.0
        elif len(finite) == 2:
            i, j = finite
            want = bvnu(-b[i], -b[j], rho[i + j - 1])
        else:
            want = float(ndtr(b[finite[0]])) if finite else 1.0
        assert abs(normal_cdf_3d(*b, *rho) - want) <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(_LIMITS, _LIMITS, _CORRS), min_size=1,
                    max_size=40))
    @example([(0.0, 0.0, 0.0), (5e-324, 1.0, 0.5),
              (3.0, 3.0000000000000004, 1.0 - 1e-15),
              (-3.0, 3.0000000000000004, -1.0 + 1e-15)])
    def test_bivariate_bulk_equals_single_calls(self, rows):
        dh, dk, r = np.array(rows).T
        single = np.array([_bvnu(*row) for row in rows])
        assert _bvnu(dh, dk, r).tobytes() == single.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.floats(-6.0, 6.0), min_size=3,
                                       max_size=3),
                              correlation_triples()),
                    min_size=1, max_size=40))
    def test_trivariate_bulk_equals_single_calls(self, rows):
        b = np.array([row[0] for row in rows])
        rho = np.array([row[1] for row in rows])
        single = np.concatenate([_tvn(*row) for row in rows])
        assert _tvn(b, rho).tobytes() == single.tobytes()


class TestPfaExactOrthogonal:
    def test_single_atom(self):
        eta = float(ndtri(0.95))
        assert pfa_exact_orthogonal(1, eta) == pytest.approx(0.05, abs=1e-12)

    def test_two_atoms_at_zero(self):
        assert pfa_exact_orthogonal(2, 0.0) == pytest.approx(0.75, abs=1e-14)

    def test_m15_against_monte_carlo(self, rng):
        eta, m, n = 2.0, 15, 10 ** 6
        want = 1.0 - float(ndtr(eta)) ** m
        assert pfa_exact_orthogonal(m, eta) == pytest.approx(want, rel=1e-12)
        est = mc_max_alpha(np.eye(m), eta, n, rng)
        se = math.sqrt(est * (1 - est) / n)
        assert abs(pfa_exact_orthogonal(m, eta) - est) < 4 * se

    @pytest.mark.parametrize("m", [1, 2, 20])
    @pytest.mark.parametrize("alpha", [1e-6, 1e-12, 1e-15])
    def test_orthogonal_forms_keep_the_tail(self, m, alpha):
        # 1 - (1 - q)^m from the upper tail q = Phi(-eta), which loses no
        # digits for small q; forms through Phi(eta) = 1 - q lose them
        eta = threshold_for_pfa_orthogonal(m, alpha)
        tail = -math.expm1(m * math.log1p(-float(ndtr(-eta))))
        assert tail == pytest.approx(alpha, rel=1e-9, abs=0)
        assert pfa_exact_orthogonal(m, eta) == pytest.approx(tail, rel=1e-12,
                                                             abs=0)

    def test_orthogonal_threshold_tail_values(self):
        # 1 - Phi(eta)^2 = alpha solved in 40-digit arithmetic
        assert threshold_for_pfa_orthogonal(2, 1e-12) == pytest.approx(
            7.1305068, abs=1e-7)
        assert threshold_for_pfa_orthogonal(2, 1e-15) == pytest.approx(
            8.0268589, abs=1e-7)


class TestPfaBound:
    def test_orthogonal_reduction_exact(self):
        ref = gaussian_line_reference(200, 100, 2.0, 3.0)
        d = build_lss(ref, 11, 31.0)
        assert d.coherence == 0.0
        for eta in (0.5, 1.5, 2.5):
            assert pfa_bound(d, eta) == pytest.approx(
                pfa_exact_orthogonal(11, eta), abs=1e-7)

    @pytest.mark.parametrize("m, tau", [(1, 0.0), (2, 8.0), (5, 8.0)])
    def test_eta_nan_raises_and_infinite_eta_is_exact(self, m, tau):
        # the recursion takes finite thresholds only; pfa_bound settles
        # the infinite ones and has no bound at NaN
        d = build_lss(gaussian_line_reference(30, 15, 5.0), m, tau)
        assert pfa_bound(d, math.inf) == 0.0
        assert pfa_bound(d, -math.inf) == 1.0
        with pytest.raises(DataError, match="NaN"):
            pfa_bound(d, math.nan)

    def test_single_atom_delegates(self, gauss_reference):
        d = build_lss(gauss_reference, 1, 0.0)
        assert pfa_bound(d, 1.3) == pfa_exact_orthogonal(1, 1.3)

    def test_dominates_monte_carlo(self, gauss_reference, rng):
        for m, tau, eta in [(15, 7.0, 2.0), (10, 8.0, 2.4), (20, 8.0, 1.6)]:
            d = build_lss(gauss_reference, m, tau)
            est = mc_max_alpha(d.gram(), eta, 10 ** 6, rng)
            se = math.sqrt(est * (1 - est) / 10 ** 6)
            assert pfa_bound(d, eta) >= est - 3 * se

    def test_recursion_value_nonincreasing_in_m(self, gauss_reference):
        eta = 2.0
        vals = [1.0 - pfa_bound(build_lss(gauss_reference, m, 8.0), eta)
                for m in range(2, 21)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_slepian_ordering_monte_carlo(self, gauss_reference, rng):
        # denser grids have larger orthant probability at matched
        # thresholds: P(max of (m+1)-grid's upper block <= t) >=
        # P(max of m-grid <= t)
        t = 2.0
        n = 10 ** 6
        for m in (3, 4):
            d_small = build_lss(gauss_reference, m, 8.0)
            d_big = build_lss(gauss_reference, m + 1, 8.0)
            sub = d_big.gram()[1:, 1:]
            p_small = 1.0 - mc_max_alpha(d_small.gram(), t, n, rng)
            p_big = 1.0 - mc_max_alpha(sub, t, n, rng)
            se = math.sqrt(0.25 / n)
            assert p_big >= p_small - 4 * se

    def test_requires_reference(self, line_dictionary, tmp_path):
        from shiftdetect.dictionary import Dictionary
        path = tmp_path / "d.csv"
        line_dictionary.save_csv(path)
        loaded = Dictionary.load_csv(path)
        with pytest.raises(DataError, match="reference.*build_lss"):
            pfa_bound(loaded, 2.0)
        with pytest.raises(DataError, match="reference.*build_lss"):
            threshold_for_pfa(loaded, 0.05)

    def test_bounds_the_atoms_it_is_given(self):
        # the bound is computed from (reference, m, tau) alone, so atoms or
        # a tau that build_lss would not give are rejected, not bounded
        d = build_lss(gaussian_line_reference(30, 15, 5.0), 15, 7.0)
        other = build_lss(gaussian_line_reference(30, 15, 4.0), 15, 7.0)
        for wrong in (Dictionary(d.atoms, d.shifts, 3.0, d.reference),
                      Dictionary(other.atoms, d.shifts, 7.0, d.reference)):
            with pytest.raises(DataError, match="atoms and shifts"):
                pfa_bound(wrong, 2.5)
            with pytest.raises(DataError, match="atoms and shifts"):
                threshold_for_pfa(wrong, 0.05)
        same = Dictionary(d.atoms.copy(), d.shifts.copy(), 7.0, d.reference)
        assert pfa_bound(same, 2.5) == pfa_bound(d, 2.5)

    def test_bounds_a_relaxed_gram_tol_dictionary(self):
        # a reference estimated from data can dip below 0, and a dictionary
        # built from it with a gram_tol slack is bounded as it stands;
        # threshold_for_pfa keeps build_lss's strict default
        values = gaussian_line_reference(30, 15, 5.0).values.copy()
        values[0] = -1e-10
        ref = ReferenceAtom(values, center_band=15)
        with pytest.raises(DataError, match="non-negativity"):
            build_lss(ref, 15, 7.0)
        d = build_lss(ref, 15, 7.0, gram_tol=1e-6)
        assert pfa_bound(d, 2.5) == direct_pfa_bound(ref, 15, 7.0, 2.5)
        with pytest.raises(DataError, match="non-negativity"):
            threshold_for_pfa(d, 0.05)

    def test_rejects_nonmonotone_autocorrelation(self):
        d = build_lss(two_bump_reference(), 3, 10.0)
        with pytest.raises(NumericError):
            pfa_bound(d, 2.0)


class TestThresholdForPfa:
    def test_single_atom_closed_form(self, gauss_reference):
        d = build_lss(gauss_reference, 1, 0.0)
        assert threshold_for_pfa(d, 0.05) == pytest.approx(
            float(ndtri(0.95)), abs=1e-9)

    def test_orthogonal_closed_form(self):
        ref = gaussian_line_reference(200, 100, 2.0, 3.0)
        d = build_lss(ref, 7, 30.0)
        want = float(ndtri((1 - 0.05) ** (1 / 7)))
        assert threshold_for_pfa(d, 0.05) == pytest.approx(want, abs=1e-7)

    def test_round_trip_with_bound(self, gauss_reference):
        d = build_lss(gauss_reference, 8, 7.0)
        eta = threshold_for_pfa(d, 0.1)
        assert pfa_bound(d, eta) == pytest.approx(0.1, abs=1e-7)

    def test_lss_threshold_grows_slower_than_orthogonal(self,
                                                        gauss_reference):
        etas = {m: threshold_for_pfa(build_lss(gauss_reference, m, 8.0),
                                     0.05)
                for m in (10, 20)}
        orth = {m: float(ndtri(0.95 ** (1 / m))) for m in (10, 20)}
        assert etas[20] - etas[10] < orth[20] - orth[10]

    def test_alpha_validation(self, line_dictionary):
        with pytest.raises(DataError):
            threshold_for_pfa(line_dictionary, 0.0)


def direct_pfa_bound(reference, m, tau, t):
    """The bound recursion written out afresh for one (m, t), with no
    shared state: the oracle the shared recursion must match bit for bit."""
    def gamma(u):
        return max(0.0, autocorrelation(reference, u))

    big_m = normal_cdf_2d(t, t, gamma(2.0 * tau))
    for size in range(3, m + 1):
        delta = 2.0 * tau / (size - 1)
        r1 = gamma(delta)
        r2 = gamma(2.0 * delta)
        den = normal_cdf_2d(t, t, r2)
        num = normal_cdf_3d(t, t, t, r1, r1, r2)
        if den <= 0.0:
            return 1.0
        big_m *= num / den
    return float(min(1.0, max(0.0, 1.0 - big_m)))


def direct_threshold(reference, m, tau, alpha):
    """`threshold_for_pfa`'s monotonicity check, bracket and bisection for
    one m, written out on `direct_pfa_bound`."""
    def big_m(t):
        return 1.0 - direct_pfa_bound(reference, m, tau, t)

    vals = [big_m(t) for t in np.linspace(-6.0, 8.0, 29)]
    assert not np.any(np.diff(vals) < -1e-10)
    target = 1.0 - alpha
    lo, hi = -6.0, 8.0
    while big_m(lo) > target:
        lo -= 8.0
    while big_m(hi) < target:
        hi += 8.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if big_m(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_STANDARD_REF = gaussian_line_reference(30, 15, 5.0)
# one recursion, shared by every example below
_SHARED = _BoundRecursion(_STANDARD_REF, 8.0, 20)


class TestSharedRecursion:
    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-6.0, 8.0), m=st.integers(2, 20),
           first=st.integers(2, 20))
    @example(t=5e-324, m=3, first=2)
    def test_matches_per_call_bound(self, t, m, first):
        want = direct_pfa_bound(_STANDARD_REF, m, 8.0, t)
        d = build_lss(_STANDARD_REF, m, 8.0)
        assert pfa_bound(d, t) == want
        # a row's value does not depend on the other rows of the call
        assert _SHARED.pfa([t, t], [first, m])[1, -1] == want

    def test_vanished_denominator_gives_one(self):
        # far below the grid every orthant probability underflows to 0
        for m in (2, 3, 20):
            want = direct_pfa_bound(_STANDARD_REF, m, 8.0, -45.0)
            assert want == 1.0
            assert _SHARED.pfa([-45.0], [m])[0, -1] == want

    @settings(max_examples=20, deadline=None)
    @given(fwhm=st.floats(2.5, 6.0), tau=st.floats(3.0, 9.0),
           alpha=st.floats(0.01, 0.1),
           ms=st.lists(st.integers(1, 8), min_size=1, max_size=3))
    def test_table_equals_per_m_bisection(self, fwhm, tau, alpha, ms):
        ref = gaussian_line_reference(40, 20, fwhm, 6.0)
        table = threshold_table(ref, tau, ms, alpha)
        want = [threshold_for_pfa_orthogonal(1, alpha) if m == 1 else
                direct_threshold(ref, m, tau, alpha) for m in ms]
        assert table == want

    @pytest.mark.parametrize("ms", [[1, 2, 3, 5, 8, 13, 20], [9, 4]])
    def test_table_equals_per_m_threshold(self, ms):
        table = threshold_table(_STANDARD_REF, 8.0, ms, 0.05)
        for m, eta in zip(ms, table):
            d = build_lss(_STANDARD_REF, m, 8.0 if m > 1 else 0.0)
            assert eta == threshold_for_pfa(d, 0.05)

    @pytest.mark.parametrize("tau, alpha", [(0.5, 1.0 - 1e-12),
                                            (8.0, 1e-15)],
                             ids=["lo-widened", "hi-widened"])
    def test_table_widens_bracket_like_per_m(self, tau, alpha):
        # the thresholds lie outside the monotonicity grid [-6, 8], so the
        # bracket is widened below (to -14) or above (to 16)
        table = threshold_table(_STANDARD_REF, tau, [2, 5], alpha)
        assert not any(-6.0 <= eta <= 8.0 for eta in table)
        assert table == [direct_threshold(_STANDARD_REF, m, tau, alpha)
                         for m in (2, 5)]

    def test_table_bisects_unequal_brackets_like_per_m(self):
        # m = 2's threshold lies on the grid [-6, 8] and m = 5's above it:
        # m = 5's bracket is widened to 16, so it bisects one round longer
        table = threshold_table(_STANDARD_REF, 8.0, [2, 5], 3e-15)
        assert table[0] < 8.0 < table[1]
        assert table == [direct_threshold(_STANDARD_REF, m, 8.0, 3e-15)
                         for m in (2, 5)]

    def test_table_validates_like_per_m(self):
        with pytest.raises(DataError, match="alpha"):
            threshold_table(_STANDARD_REF, 8.0, [2], 1.0)
        # size 1 needs no recursion, so the reference is not consulted
        assert threshold_table(None, 8.0, [1], 0.05) == [
            threshold_for_pfa_orthogonal(1, 0.05)]
        # but tau is checked whatever the sizes
        for tau in (math.nan, -3.0, math.inf):
            with pytest.raises(DataError, match="tau must be"):
                threshold_table(None, tau, [1], 0.05)
        # every size's dictionary must build: at tau 100 the outer atoms
        # of a 30-band reference leave the support
        with pytest.raises(DataError, match="atom vanished"):
            threshold_table(_STANDARD_REF, 100.0, [2, 3, 4], 0.05)
        # sizes are checked in the given order and the first failure is
        # raised, whichever check it fails
        two_bump = two_bump_reference()
        with pytest.raises(NumericError, match="autocorrelation"):
            threshold_table(two_bump, 10.0, [1, 3], 0.05)
        with pytest.raises(NumericError, match="autocorrelation"):
            threshold_table(two_bump, 10.0, [3, 0], 0.05)
        with pytest.raises(DataError, match="m must be"):
            threshold_table(two_bump, 10.0, [0, 3], 0.05)
        with pytest.raises(DataError, match="m must be"):
            threshold_table(_STANDARD_REF, 8.0, [2, 5, 0], 0.05)

    def test_grid_size_failure_raised_at_first_m_that_uses_it(
            self, monkeypatch):
        # make the correlations of grid size 6 (and only those) fail
        bad = max(0.0, autocorrelation(_STANDARD_REF, 2.0 * 8.0 / 5))
        check = pfabound._check_correlations

        def failing_check(rho12, rho13, rho23):
            if rho12 == bad:
                raise DataError("non-PSD correlation")
            check(rho12, rho13, rho23)

        good = threshold_table(_STANDARD_REF, 8.0, [5, 3], 0.05)
        monkeypatch.setattr(pfabound, "_check_correlations", failing_check)
        assert threshold_table(_STANDARD_REF, 8.0, [5, 3], 0.05) == good
        for ms in ([5, 6], [6, 0], [3, 7, 0]):
            with pytest.raises(DataError, match="non-PSD"):
                threshold_table(_STANDARD_REF, 8.0, ms, 0.05)
        with pytest.raises(DataError, match="m must be"):
            threshold_table(_STANDARD_REF, 8.0, [5, 0, 6], 0.05)
        d5 = build_lss(_STANDARD_REF, 5, 8.0)
        assert pfa_bound(d5, 2.0) == direct_pfa_bound(_STANDARD_REF, 5, 8.0,
                                                      2.0)
        with pytest.raises(DataError, match="non-PSD"):
            pfa_bound(build_lss(_STANDARD_REF, 6, 8.0), 2.0)

    def test_orthogonal_threshold_inverts_exact_rate(self):
        for m in (1, 7, 20):
            eta = threshold_for_pfa_orthogonal(m, 0.05)
            assert pfa_exact_orthogonal(m, eta) == pytest.approx(0.05,
                                                                 abs=1e-12)


# `pfa-bound` on the standard reference, tau 8, m 2..20, alpha 0.05, as
# printed before the recursion was shared across sizes.
GOLDEN_TABLE = """\
m,eta_bound,eta_orthogonal,expected_gain
2,1.9545083,1.9545083,1.2678971
3,2.1204088,2.1212014,2.0837499
4,2.2276023,2.2340025,2.3885477
5,2.3015129,2.3186792,2.5155507
6,2.3530664,2.3861698,2.5796817
7,2.3899483,2.4421108,2.6149869
8,2.4168039,2.4897777,2.6366508
9,2.437277,2.5312374,2.6511552
10,2.4527201,2.5678754,2.6613597
11,2.4644126,2.6006644,2.6686982
12,2.4733516,2.6303126,2.6741436
13,2.4805581,2.6573515,2.6782911
14,2.4864732,2.6821893,2.6815205
15,2.4913905,2.7051466,2.6840828
16,2.4955097,2.7264794,2.686149
17,2.4989701,2.7463953,2.687839
18,2.5019605,2.7650652,2.6892386
19,2.5045695,2.7826308,2.6904104
20,2.5068633,2.7992115,2.6914013
"""


# The same command at alpha 0.01 and 0.5, as printed by the Drezner-Genz
# bivariate kernel: where the bisection is not limited by the rounding of
# 1 - alpha, a change of kernel leaves the printed thresholds as they are.
GOLDEN_TABLE_ALPHA_01 = """\
m,eta_bound,eta_orthogonal,expected_gain
2,2.5749615,2.5749615,1.2678971
3,2.7117482,2.7119428,2.0837499
4,2.8038136,2.8058208,2.3885477
5,2.8702154,2.8768946,2.5155507
6,2.9187192,2.9339012,2.5796817
7,2.9547079,2.9813865,2.6149869
8,2.9817071,3.0220119,2.6366508
9,3.0027001,3.0574671,2.6511552
10,3.0188139,3.0888901,2.6613597
11,3.0312668,3.1170833,2.6686982
12,3.0409888,3.1426333,2.6741436
13,3.0488593,3.1659812,2.6782911
14,3.0553377,3.1874673,2.6815205
15,3.0607401,3.2073592,2.6840828
16,3.0652873,3.2258715,2.686149
17,3.0691365,3.2431781,2.687839
18,3.0724501,3.2594226,2.6892386
19,3.0753287,3.2747246,2.6904104
20,3.0778483,3.2891846,2.6914013
"""
GOLDEN_TABLE_ALPHA_50 = """\
m,eta_bound,eta_orthogonal,expected_gain
2,0.54495214,0.54495214,1.2678971
3,0.81297879,0.81932862,2.0837499
4,0.95950577,0.99814888,2.3885477
5,1.0467948,1.1289975,2.5155507
6,1.100207,1.2313217,2.5796817
7,1.1348778,1.3148728,2.6149869
8,1.1582861,1.3851981,2.6366508
9,1.175279,1.4457385,2.6511552
10,1.1876817,1.4987673,2.6613597
11,1.1965461,1.5458608,2.6686982
12,1.202878,1.5881546,2.6741436
13,1.2080025,1.6264923,2.6782911
14,1.2122248,1.6615168,2.6815205
15,1.2157294,1.693729,2.6840828
16,1.2186327,1.723526,2.686149
17,1.2210111,1.7512281,2.687839
18,1.2231142,1.7770967,2.6892386
19,1.2249914,1.8013483,2.6904104
20,1.226677,1.8241636,2.6914013
"""


def test_quadrature_rules_are_scipys():
    """The rule built on first use has the bits of the Gauss-Legendre
    rule the trivariate kernel was validated with."""
    x96, w96 = roots_legendre(96)
    want = (0.5 * (x96 + 1.0), 0.5 * w96)
    rules = pfabound._rules()
    assert [r.tobytes() for r in rules] == [w.tobytes() for w in want]
    assert pfabound._rules() is rules


def test_pfa_bound_command_golden_table(tmp_path, capsys):
    path = tmp_path / "ref.csv"
    np.savetxt(path, _STANDARD_REF.values[None, :], fmt="%.17g",
               delimiter=",")
    assert main(["pfa-bound", "--reference", str(path), "--center-band",
                 "15", "--tau", "8", "--m-range", "2..20",
                 "--alpha", "0.05"]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLE.replace("\n", "\r\n")


@pytest.mark.parametrize("alpha, table, layout", [
    ("0.01", GOLDEN_TABLE_ALPHA_01, "row"),
    ("0.5", GOLDEN_TABLE_ALPHA_50, "column"),
])
def test_pfa_bound_command_golden_tables(tmp_path, capsys, alpha, table,
                                         layout):
    # a reference file is one row or one column of numbers
    values = _STANDARD_REF.values
    path = tmp_path / "ref.csv"
    np.savetxt(path, values[None, :] if layout == "row" else values[:, None],
               fmt="%.17g", delimiter=",")
    assert main(["pfa-bound", "--reference", str(path), "--center-band",
                 "15", "--tau", "8", "--m-range", "2..20",
                 "--alpha", alpha]) == 0
    assert capsys.readouterr().out == table.replace("\n", "\r\n")

"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (a failed assert marks the criterion FAIL).

Criterion 5's threshold-flattening clause is implemented faithfully and is
expected to fail: no variant of the recursion that actually upper-bounds
the Monte-Carlo false-alarm rate flattens below 0.05 for the stated
reference (see the decisions ledger for the analysis).
"""

import math
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from shiftdetect.dictionary import (build_lss, gaussian_line_reference)
from shiftdetect.fdr import bh_reject, detect, storey_pi0
from shiftdetect.nullmodel import empirical_pvalues, fit_null
from shiftdetect.pfabound import (normal_cdf_2d, normal_cdf_3d, pfa_bound,
                                  pfa_exact_orthogonal, threshold_for_pfa)
from shiftdetect.pipeline import Cube, load_cube, save_cube
from shiftdetect.similarity import SimilarityKind
from shiftdetect.simulate import (GroundTruth, NoiseSpec, SimConfig,
                                  disk_mask, fdr_snr_sweep, generate,
                                  glr_contrast, score, _derived_seed)
from shiftdetect.teststat import compute_field
from tests.test_fdr import bh_bruteforce
from tests.test_nullmodel import make_field, random_field
from tests.test_pfabound import mc_max_alpha

SAD = SimilarityKind.SPECTRAL_ANGLE

FIG2 = dict(noise=NoiseSpec("student", nu=5.0), pi0=0.81,
            amplitude_range=(0.1, 3.0), signal_atom=7)


@pytest.fixture(scope="module")
def reference():
    return gaussian_line_reference(30, 15, 5.0, 6.0)


@pytest.fixture(scope="module")
def dictionary(reference):
    return build_lss(reference, 15, 7.0)


def test_ac1_null_estimator_fidelity(dictionary):
    """Mean pi0_hat in [0.81, 0.95] over 100 replicates and per-replicate
    QQ agreement with a 1e5-run Monte-Carlo null within 0.05 over the
    central 99% of quantiles."""
    rng = np.random.default_rng(1001)
    draws = rng.standard_t(5.0, size=(10 ** 5, 30))
    scores = draws @ dictionary.atoms.T
    scores /= np.linalg.norm(draws, axis=1)[:, None]
    t_null = scores.max(axis=1)
    probs = np.linspace(0.005, 0.995, 199)
    oracle_q = np.quantile(t_null, probs)

    pi0s, devs = [], []
    for rep in range(100):
        cfg = SimConfig(n_y=50, n_x=50, seed=_derived_seed(1002, rep),
                        dictionary=dictionary, **FIG2)
        cube, _ = generate(cfg)
        model = fit_null(compute_field(cube, dictionary, SAD))
        pi0s.append(model.pi0_hat)
        devs.append(np.max(np.abs(np.quantile(model.pooled, probs)
                                  - oracle_q)))
    mean_pi0 = float(np.mean(pi0s))
    worst = float(np.max(devs))
    assert 0.81 <= mean_pi0 <= 0.95, mean_pi0
    assert mean_pi0 > 0.81  # biased upward, never at truth
    assert worst < 0.05, worst
    print(f"\n[AC1] PASS: mean pi0_hat={mean_pi0:.3f} (target [0.81, 0.95]), "
          f"worst QQ deviation={worst:.4f} (< 0.05) over 100 replicates")


@pytest.mark.slow
def test_ac2_fdr_control_across_snr(dictionary):
    """Empirical FDR <= q + 0.02 for q in {0.02, 0.05, 0.1, 0.2} at four
    signal strengths over 500 runs, strictly below q at the weakest."""
    q_list = (0.02, 0.05, 0.1, 0.2)
    snr_list = (-20.0, -16.0, -12.0, -8.0)
    # threads=2 gives the serial records bit for bit (TestFdrSnrSweep)
    _, agg = fdr_snr_sweep(dictionary, snr_list, q_list, runs=500, seed=77,
                           threads=2)
    lines = []
    for snr_db in snr_list:
        for q in q_list:
            fdr = agg[(snr_db, q)]["fdr"]
            assert fdr <= q + 0.02, (snr_db, q, fdr)
            if snr_db == snr_list[0]:
                assert fdr < q, (snr_db, q, fdr)
        lines.append("q=" + ",".join(
            f"{agg[(snr_db, q)]['fdr']:.3f}" for q in q_list))
    print(f"\n[AC2] PASS: FDR controlled at snr {snr_list}: "
          + " | ".join(lines)
          + f" ; power at top snr, q=0.2: "
            f"{agg[(snr_list[-1], 0.2)]['power']:.2f}")


def threshold_comparison(dictionary, regions, seed):
    """Per-pixel PFA thresholds at 5% and 0.1% (flag p < eta, no
    multiplicity correction) versus the adaptive FDR procedure at 0.2, on
    Student-t(5) fields with and without a compact source.

    Each region draws a 200x200 noise cube for the null fit, a 50x50
    noise-only test cube, and the same test cube plus a 185-pixel disk of
    amplitude 4.5 on the central atom.  Returns the mean false and true
    detections, FDP and power per (condition, detector) over the regions.
    """
    shape = (50, 50)
    src_mask = disk_mask(shape, (25, 25), 185)
    source = np.where(src_mask[:, :, None],
                      4.5 * dictionary.atoms[dictionary.m // 2], 0.0)
    truths = {}
    for cond, mask in (("noise", np.zeros(shape, dtype=bool)),
                       ("source", src_mask)):
        truths[cond] = GroundTruth(h1_mask=mask,
                                   amplitudes=np.where(mask, 4.5, 0.0),
                                   true_shifts=np.where(mask, 0.0, np.nan))
    metrics = defaultdict(list)
    for region in range(regions):
        fit_cfg = SimConfig(n_y=200, n_x=200,
                            noise=NoiseSpec("student", nu=5.0),
                            dictionary=dictionary, pi0=1.0,
                            seed=_derived_seed(seed, region, 0))
        test_cfg = replace(fit_cfg, n_y=shape[0], n_x=shape[1],
                           seed=_derived_seed(seed, region, 1))
        fit_cube, _ = generate(fit_cfg)
        noise_cube, _ = generate(test_cfg)
        model = fit_null(compute_field(fit_cube, dictionary, SAD))
        for cond, cube in (("noise", noise_cube),
                           ("source", Cube(data=noise_cube.data + source))):
            fld = compute_field(cube, dictionary, SAD)
            res = detect(model, fld)
            for det, hits in (("pfa@0.05", res.pvalues < 0.05),
                              ("pfa@0.001", res.pvalues < 0.001),
                              ("fdr@0.2", res.detected_at(0.2))):
                metrics[cond, det].append(score(fld.to_map(hits),
                                                truths[cond]))
    return {key: {name: float(np.mean([getattr(m, name) for m in ms]))
                  for name in ("false_detections", "true_detections",
                               "fdp", "power")}
            for key, ms in metrics.items()}


def test_ac3_threshold_table(dictionary):
    """Per-pixel 5% thresholding on noise-only fields produces false
    detections in the binomial 99% band around 125; the adaptive procedure
    at level 0.2 keeps the false discovery proportion in [0.05, 0.25] with
    power above 0.6 while the 5% baseline exceeds 0.8 power."""
    summary = threshold_comparison(dictionary, regions=5, seed=55)
    fd_noise = summary[("noise", "pfa@0.05")]["false_detections"]
    lo = stats.binom.ppf(0.005, 5 * 2500, 0.05) / 5
    hi = stats.binom.ppf(0.995, 5 * 2500, 0.05) / 5
    assert lo <= fd_noise <= hi, (fd_noise, lo, hi)
    fd_strict = summary[("noise", "pfa@0.001")]["false_detections"]
    assert fd_strict <= stats.binom.ppf(0.995, 5 * 2500, 0.001) / 5
    fdr_noise = summary[("noise", "fdr@0.2")]["false_detections"]

    pfa_power = summary[("source", "pfa@0.05")]["power"]
    fdr_row = summary[("source", "fdr@0.2")]
    assert pfa_power > 0.8, pfa_power
    assert 0.05 <= fdr_row["fdp"] <= 0.25, fdr_row["fdp"]
    assert fdr_row["power"] > 0.6, fdr_row["power"]
    print(f"\n[AC3] PASS: noise-only false detections pfa@5%={fd_noise:.1f} "
          f"(99% band [{lo:.0f}, {hi:.0f}]), pfa@0.1%={fd_strict:.1f}, "
          f"fdr@0.2={fdr_noise:.1f}; source: pfa@5% power={pfa_power:.2f}, "
          f"fdr@0.2 power={fdr_row['power']:.2f} fdp={fdr_row['fdp']:.3f}")


def test_ac4_storey_equivalence(dictionary):
    """Exact equality of the Storey estimate with the empirical-null
    estimate at every grid point zeta = k/(2 n0) on 100 random fields, and
    closeness of the two at zeta = 1/2 for n = 1e4."""
    rng = np.random.default_rng(4004)
    checked = 0
    for trial in range(100):
        field = random_field(rng, int(rng.integers(60, 400)),
                             contamination=float(rng.uniform(0.0, 0.4)))
        model = fit_null(field)
        p = empirical_pvalues(model, field)
        for k in range(model.n0, 2 * model.n0):
            got = storey_pi0(p, Fraction(k, 2 * model.n0))
            assert got == model.pi0_hat, (trial, k)
            checked += 1

    cfg = SimConfig(n_y=100, n_x=100, seed=_derived_seed(4005),
                    dictionary=dictionary, **FIG2)
    cube, _ = generate(cfg)
    field = compute_field(cube, dictionary, SAD)
    model = fit_null(field)
    p = empirical_pvalues(model, field)
    gap = abs(storey_pi0(p, 0.5) - model.pi0_hat)
    assert gap < 0.02, gap
    print(f"\n[AC4] PASS: bit-exact at {checked} grid points over 100 "
          f"fields; |storey(0.5) - pi0_hat| = {gap:.2e} at n=1e4")


def test_ac5_bound_validity(reference):
    """The recursion upper-bounds 1e6-draw Monte-Carlo false-alarm rates on
    20 random shifted-line dictionaries and collapses to the closed form
    for orthogonal atoms within 1e-7."""
    rng = np.random.default_rng(5005)
    margins = []
    for trial in range(20):
        fwhm = float(rng.uniform(2.5, 6.0))
        l = int(rng.integers(40, 80))
        ref = gaussian_line_reference(l, l // 2, fwhm, 6.0)
        m = int(rng.integers(3, 16))
        tau = float(rng.uniform(3.0, 9.0))
        d = build_lss(ref, m, tau)
        eta = float(rng.uniform(1.6, 2.8))
        est = mc_max_alpha(d.gram(), eta, 10 ** 6, rng)
        se = math.sqrt(est * (1 - est) / 10 ** 6)
        bound = pfa_bound(d, eta)
        assert bound >= est - 3 * se, (trial, m, tau, eta, bound, est)
        margins.append(bound - est)

    orth_ref = gaussian_line_reference(200, 100, 2.0, 3.0)
    d_orth = build_lss(orth_ref, 11, 31.0)
    for eta in (1.0, 2.0, 3.0):
        gap = abs(pfa_bound(d_orth, eta) - pfa_exact_orthogonal(11, eta))
        assert gap < 1e-7, gap
    print(f"\n[AC5a] PASS: bound dominated Monte-Carlo on 20 random "
          f"dictionaries (min margin {min(margins):+.4f}); orthogonal "
          f"reduction exact to 1e-7")


def test_ac5_threshold_flattening(reference):
    """eta_m(alpha=0.05) for the stated reference: the bound curve must
    flatten (eta_20 - eta_10 < 0.05) while the orthogonal curve grows by
    more than 0.15.

    The orthogonal clause holds; the flattening clause does not for any
    recursion variant that also satisfies the domination clause (tightest
    true bound gives 0.055; see the decisions ledger), so this criterion
    is expected to fail by that margin.
    """
    eta10 = threshold_for_pfa(build_lss(reference, 10, 8.0),
                              0.05)
    eta20 = threshold_for_pfa(build_lss(reference, 20, 8.0),
                              0.05)
    orth10 = float(ndtri(0.95 ** (1 / 10)))
    orth20 = float(ndtri(0.95 ** (1 / 20)))
    growth = orth20 - orth10
    flat = eta20 - eta10
    assert growth > 0.15, growth
    assert flat < growth
    print(f"\n[AC5b] bound thresholds eta10={eta10:.4f} eta20={eta20:.4f} "
          f"(delta {flat:.4f}); orthogonal delta {growth:.4f}")
    assert flat < 0.05, (
        f"eta_20 - eta_10 = {flat:.4f}: the tightest recursion that still "
        f"upper-bounds the Monte-Carlo rate does not flatten below 0.05 "
        f"for this reference (decisions ledger, criterion 5)")


@pytest.mark.slow
def test_ac6_quadrature_oracle():
    """Closed forms at rho in {0, +-1} within 1e-8 and agreement with a
    1e7-draw Monte-Carlo within 4 standard errors on 50 random parameter
    sets (25 bivariate, 25 trivariate)."""
    rng = np.random.default_rng(6006)
    # closed forms
    for h, k in [(-1.2, 0.4), (0.0, 0.0), (2.0, -0.5)]:
        assert abs(normal_cdf_2d(h, k, 0.0)
                   - float(ndtr(h) * ndtr(k))) < 1e-8
        assert abs(normal_cdf_2d(h, k, 1.0) - float(ndtr(min(h, k)))) < 1e-8
        assert abs(normal_cdf_2d(h, k, -1.0)
                   - max(0.0, float(ndtr(h) + ndtr(k) - 1.0))) < 1e-8
        assert abs(normal_cdf_3d(h, k, 0.3, 0.0, 0.0, 0.0)
                   - float(ndtr(h) * ndtr(k) * ndtr(0.3))) < 1e-8
        assert abs(normal_cdf_3d(h, k, 0.3, 1.0, 0.5, 0.5)
                   - normal_cdf_2d(min(h, k), 0.3, 0.5)) < 1e-8

    n = 10 ** 7
    chunk = 10 ** 6
    worst = 0.0

    def mc_lower(b, corr):
        L = np.linalg.cholesky(corr + 1e-12 * np.eye(corr.shape[0]))
        hits, done = 0, 0
        while done < n:
            take = min(chunk, n - done)
            z = rng.standard_normal((take, corr.shape[0])) @ L.T
            hits += int(np.count_nonzero(np.all(z <= b, axis=1)))
            done += take
        return hits / n

    for trial in range(25):
        b = rng.uniform(-2.5, 2.5, 2)
        rho = float(rng.uniform(-0.95, 0.95))
        est = mc_lower(b, np.array([[1.0, rho], [rho, 1.0]]))
        p = normal_cdf_2d(b[0], b[1], rho)
        # binomial SE from the (1e-8-accurate) probability itself: a raw
        # zero-hit count would undersize it in extreme cells
        se = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        gap = abs(p - est)
        assert gap < 4 * se, (trial, gap, 4 * se)
        worst = max(worst, gap / se)
    for trial in range(25):
        while True:
            r = rng.uniform(-0.9, 0.9, 3)
            corr = np.array([[1.0, r[0], r[1]],
                             [r[0], 1.0, r[2]],
                             [r[1], r[2], 1.0]])
            if np.linalg.eigvalsh(corr)[0] > 0.01:
                break
        b = rng.uniform(-2.5, 2.5, 3)
        est = mc_lower(b, corr)
        p = normal_cdf_3d(b[0], b[1], b[2], r[0], r[1], r[2])
        se = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        gap = abs(p - est)
        assert gap < 4 * se, (trial, gap, 4 * se)
        worst = max(worst, gap / se)
    print(f"\n[AC6] PASS: closed forms exact; 50 random sets within 4 SE of "
          f"1e7-draw Monte-Carlo (worst {worst:.2f} SE)")


@pytest.mark.slow
def test_ac7_glr_robustness_contrast(dictionary):
    """Gaussian noise: both methods within +-0.05 of nominal on
    q in [0.05, 0.4].  Student(4) noise: the Gaussian-calibrated baseline
    exceeds nominal by more than 0.05 somewhere in (0, 0.2] while the
    empirical-null method stays within q + 0.02.  200 runs each."""
    q_gauss = (0.05, 0.1, 0.2, 0.3, 0.4)
    _, agg_g = glr_contrast(dictionary, NoiseSpec("gaussian"), q_gauss,
                            runs=200, seed=71)
    for q in q_gauss:
        for method in ("maxtest", "glr"):
            fdr = agg_g[(method, q)]["fdr"]
            assert abs(fdr - q) <= 0.05, (method, q, fdr)

    q_student = (0.05, 0.1, 0.15, 0.2)
    _, agg_s = glr_contrast(dictionary, NoiseSpec("student", nu=4.0),
                            q_student, runs=200, seed=72)
    excess = [agg_s[("glr", q)]["fdr"] - q for q in q_student]
    assert max(excess) > 0.05, excess
    for q in q_student:
        fdr = agg_s[("maxtest", q)]["fdr"]
        assert fdr <= q + 0.02, (q, fdr)
    gauss_dev = max(abs(agg_g[(m, q)]["fdr"] - q)
                    for m in ("maxtest", "glr") for q in q_gauss)
    ctrl = ", ".join("%.3f" % agg_s[("maxtest", q)]["fdr"]
                     for q in q_student)
    print(f"\n[AC7] PASS: gaussian max dev {gauss_dev:.3f} (<= 0.05); "
          f"student GLR max excess {max(excess):+.3f} (> 0.05) while "
          f"maxtest stayed controlled ({ctrl})")


def test_ac8_property_suites_standalone(dictionary, tmp_path):
    """The core property checks run green on synthetic inputs alone:
    sign-flip duality, the pooled-median crossing equation, step-up
    equivalence with a brute-force scan, and lossless cube round-trips."""
    rng = np.random.default_rng(8008)

    cube = rng.standard_normal((12, 12, 30))
    plus = compute_field(Cube(data=cube), dictionary, SAD)
    minus = compute_field(Cube(data=-cube), dictionary, SAD)
    assert np.array_equal(minus.tmax, -plus.tmin)
    assert np.array_equal(minus.tmin, -plus.tmax)

    for trial in range(20):
        field = random_field(rng, 200 + trial)
        model = fit_null(field)
        assert np.count_nonzero(field.tmax <= model.mu0_hat) \
            == np.count_nonzero(-field.tmin > model.mu0_hat) == model.n0

    for trial in range(300):
        p = rng.random(int(rng.integers(1, 50)))
        q = float(rng.random())
        assert np.count_nonzero(bh_reject(p).detected_at(q)) \
            == bh_bruteforce(p, q)

    data = rng.standard_normal((4, 5, 6))
    var = rng.uniform(0.5, 2.0, (4, 5, 6))
    path = tmp_path / "cube.fdc"
    save_cube(Cube(data=data, variance=var, band_origin=3), path)
    back = load_cube(path)
    assert np.array_equal(back.data, data)
    assert np.array_equal(back.variance, var)
    assert back.band_origin == 3
    print("\n[AC8] PASS: duality, crossing equation, step-up equivalence "
          "and i/o round-trip all green on synthetic data")

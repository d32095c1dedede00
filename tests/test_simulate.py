import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from shiftdetect import simulate
from shiftdetect.errors import DataError
from shiftdetect.fdr import detect
from shiftdetect.nullmodel import fit_null
from shiftdetect.similarity import SimilarityKind
from shiftdetect.simulate import (GroundTruth, Metrics, NoiseSpec, SimConfig,
                                  calibrate_glr_null, disk_mask,
                                  fdr_snr_sweep, generate, glr_contrast,
                                  glr_field,
                                  glr_pvalues, score,
                                  signal_energy_for_snr, uniform_kernel,
                                  variance_preserving_kernel)
from shiftdetect.teststat import compute_field

from oracles import glr_statistic

SAD = SimilarityKind.SPECTRAL_ANGLE
MF = SimilarityKind.MATCHED_FILTER


def base_config(dictionary, **kw):
    defaults = dict(n_y=40, n_x=40, noise=NoiseSpec("student", nu=5.0),
                    dictionary=dictionary, pi0=0.81,
                    amplitude_range=(0.1, 3.0), seed=11, signal_atom=7)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestNoiseSpec:
    def test_marginal_variance(self):
        assert NoiseSpec("gaussian", sigma=2.0).marginal_variance == 4.0
        assert NoiseSpec("student", nu=5.0).marginal_variance == pytest.approx(
            5.0 / 3.0)

    def test_validation(self):
        with pytest.raises(DataError):
            NoiseSpec("student", nu=2.0)
        with pytest.raises(DataError):
            NoiseSpec("poisson")

    @pytest.mark.parametrize("family, field, value", [
        ("gaussian", "sigma", math.nan),
        ("gaussian", "sigma", math.inf),
        ("student", "nu", math.nan),
        ("student", "nu", math.inf),
    ])
    def test_non_finite_parameter_rejected(self, family, field, value):
        # NaN passes a bare `<=` bound check; the message names the field
        with pytest.raises(DataError, match=field):
            NoiseSpec(family, **{field: value})

    def test_symmetry_sanity(self, rng):
        # generated noise is symmetric: sign balance and mirrored quantiles
        # (moment-based skewness is unstable for heavy tails)
        draws = NoiseSpec("student", nu=5.0).draw(rng, (200, 200, 4))
        for b in range(4):
            band = draws[:, :, b].ravel()
            pos = np.mean(band > 0)
            assert abs(pos - 0.5) < 4 * math.sqrt(0.25 / band.size)
            assert abs(np.quantile(band, 0.9)
                       + np.quantile(band, 0.1)) < 0.05


class TestKernels:
    def test_variance_preserving_normalization(self):
        k = variance_preserving_kernel(np.ones((3, 3)))
        assert np.sum(k * k) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(k, 1.0 / 3.0)

    def test_uniform_kernel(self):
        assert uniform_kernel(3).shape == (3, 3)
        with pytest.raises(DataError):
            variance_preserving_kernel(np.zeros((3, 3)))


class TestGenerate:
    def test_deterministic(self, line_dictionary):
        cfg = base_config(line_dictionary)
        c1, t1 = generate(cfg)
        c2, t2 = generate(cfg)
        assert np.array_equal(c1.data, c2.data)
        assert np.array_equal(t1.h1_mask, t2.h1_mask)
        assert np.array_equal(t1.amplitudes, t2.amplitudes)

    def test_injected_count_exact(self, line_dictionary):
        cfg = base_config(line_dictionary)
        _, truth = generate(cfg)
        expected = round((1 - 0.81) * 1600)
        assert np.count_nonzero(truth.amplitudes) == expected
        assert truth.n_h1 == expected  # no kernel: support = injections

    def test_pure_noise_band_means(self, line_dictionary):
        cfg = base_config(line_dictionary, pi0=1.0, n_y=60, n_x=60)
        cube, truth = generate(cfg)
        assert truth.n_h1 == 0
        sigma = math.sqrt(cfg.noise.marginal_variance)
        for b in range(0, 30, 7):
            band = cube.data[:, :, b]
            assert abs(band.mean()) < 4 * sigma / math.sqrt(band.size)

    def test_kernel_dilates_support(self, line_dictionary):
        cfg = base_config(line_dictionary, spatial_kernel=uniform_kernel(3),
                          pi0=0.99)
        _, truth = generate(cfg)
        injected = np.count_nonzero(truth.amplitudes)
        assert truth.n_h1 > injected

    def test_uniform_shift_mode(self, line_dictionary):
        cfg = base_config(line_dictionary, signal_atom=None)
        _, truth = generate(cfg)
        used = truth.true_shifts[np.isfinite(truth.true_shifts)]
        assert used.size == np.count_nonzero(truth.amplitudes)
        assert np.all(np.abs(used) <= line_dictionary.tau)

    def test_target_snr_hits_energy(self, line_dictionary):
        cfg = base_config(line_dictionary, target_snr=-15.0)
        _, truth = generate(cfg)
        energy = float(np.sum(truth.amplitudes ** 2))
        assert energy == pytest.approx(signal_energy_for_snr(cfg, -15.0),
                                       rel=1e-9)

    def test_heavier_right_tail_of_max(self, line_dictionary):
        # contaminated fields: the max statistics carry extra upper-tail
        # mass relative to the sign-flipped min statistics
        tmax_all, negmin_all = [], []
        for rep in range(5):
            cfg = base_config(line_dictionary, n_y=50, n_x=50, seed=100 + rep)
            cube, _ = generate(cfg)
            field = compute_field(cube, line_dictionary, SAD)
            tmax_all.append(field.tmax)
            negmin_all.append(-field.tmin)
        tmax_all = np.concatenate(tmax_all)
        negmin_all = np.concatenate(negmin_all)
        # alternative="less": CDF of the max statistics sits below, i.e.
        # they are stochastically larger
        res = stats.ks_2samp(tmax_all, negmin_all, alternative="less")
        assert res.pvalue < 0.01
        assert np.quantile(tmax_all, 0.99) > np.quantile(negmin_all, 0.99)


def snr(config, signal_energy):
    """The sweep axis 10 log10(A / (n l sigma^2)) for total signal energy A."""
    denom = config.n * config.l * config.noise.marginal_variance
    if signal_energy <= 0:
        return -math.inf
    return 10.0 * math.log10(signal_energy / denom)


class TestSnr:
    def test_reference_energy_gives_zero(self, line_dictionary):
        cfg = base_config(line_dictionary)
        a = cfg.n * cfg.l * cfg.noise.marginal_variance
        assert snr(cfg, a) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_adds_3db(self, line_dictionary):
        cfg = base_config(line_dictionary)
        assert snr(cfg, 2.0) - snr(cfg, 1.0) == pytest.approx(
            10 * math.log10(2), abs=1e-12)

    def test_monotone_axis(self, line_dictionary):
        cfg = base_config(line_dictionary)
        energies = [10.0, 100.0, 1000.0]
        vals = [snr(cfg, a) for a in energies]
        assert np.all(np.diff(vals) > 0)
        assert signal_energy_for_snr(cfg, vals[1]) == pytest.approx(100.0)


class TestGlr:
    def test_identity_covariance_matches_matched_filter_max(
            self, line_dictionary, rng):
        cube = rng.standard_normal((6, 6, 30)) + 1.0  # mostly positive scores
        field = compute_field(cube, line_dictionary, MF)
        stats_flat = glr_field(cube, line_dictionary, np.ones(30))
        assert np.allclose(stats_flat, field.tmax, atol=1e-12)

    def test_field_matches_scalar_oracle(self, line_dictionary, rng):
        cube = rng.standard_normal((5, 4, 30))
        sigma_diag = rng.uniform(0.5, 2.0, 30)
        stats_flat = glr_field(cube, line_dictionary, sigma_diag)
        for y, got in zip(cube.reshape(-1, 30), stats_flat):
            assert got == pytest.approx(
                glr_statistic(y, line_dictionary, sigma_diag), abs=1e-12)

    def test_planted_atom_amplitude(self, line_dictionary):
        y = 3.0 * line_dictionary.atoms[4]
        got = glr_statistic(y, line_dictionary, np.ones(30))
        assert got == pytest.approx(3.0, abs=1e-10)

    def test_all_negative_scores_fall_back_to_least_negative(
            self, line_dictionary):
        y = -3.0 * line_dictionary.atoms[4]
        got = glr_statistic(y, line_dictionary, np.ones(30))
        scores = line_dictionary.atoms @ y
        assert got == pytest.approx(scores.max(), abs=1e-10)
        assert got < 0

    def test_sigma_validation(self, line_dictionary):
        with pytest.raises(DataError):
            glr_statistic(np.ones(30), line_dictionary, np.zeros(30))

    def test_calibration_pvalues_uniformish(self, line_dictionary, rng):
        null = calibrate_glr_null(line_dictionary, 4000, seed=3)
        fresh = calibrate_glr_null(line_dictionary, 2000, seed=4)
        p = glr_pvalues(fresh, null)
        # roughly uniform: mean near 1/2
        assert abs(p.mean() - 0.5) < 0.05


class TestPfaThresholdDetect:
    def test_noise_only_count_near_expectation(self, line_dictionary):
        # fit on a large pure-noise cube, test 2500 fresh pixels at 5%
        fit_cfg = base_config(line_dictionary, pi0=1.0, n_y=140, n_x=140,
                              seed=21)
        test_cfg = base_config(line_dictionary, pi0=1.0, n_y=50, n_x=50,
                               seed=22)
        fit_cube, _ = generate(fit_cfg)
        test_cube, _ = generate(test_cfg)
        model = fit_null(compute_field(fit_cube, line_dictionary, SAD))
        field = compute_field(test_cube, line_dictionary, SAD)
        result = detect(model, field)
        count = int(np.count_nonzero(result.pvalues < 0.05))
        lo = stats.binom.ppf(0.005, 2500, 0.05)
        hi = stats.binom.ppf(0.995, 2500, 0.05)
        assert lo <= count <= hi


class TestScore:
    def test_perfect_detection(self):
        truth = GroundTruth(h1_mask=np.array([[True, False]]),
                            amplitudes=np.array([[1.0, 0.0]]),
                            true_shifts=np.array([[0.0, np.nan]]))
        m = score(np.array([[True, False]]), truth)
        assert m == Metrics(false_detections=0, true_detections=1,
                            fdp=0.0, power=1.0)

    def test_empty_detection_guard(self):
        truth = GroundTruth(h1_mask=np.array([[True, False]]),
                            amplitudes=np.array([[1.0, 0.0]]),
                            true_shifts=np.array([[0.0, np.nan]]))
        m = score(np.array([[False, False]]), truth)
        assert m.fdp == 0.0 and m.power == 0.0

    def test_flat_vector_path(self, line_dictionary):
        cfg = base_config(line_dictionary, n_y=20, n_x=20)
        cube, truth = generate(cfg)
        field = compute_field(cube, line_dictionary, SAD)
        detected = detect(fit_null(field), field).detected_at(0.2)
        m_flat = score(detected, truth)
        m_map = score(field.to_map(detected), truth)
        assert m_flat == m_map

    def test_disk_mask_count_and_determinism(self):
        mask = disk_mask((50, 50), (25, 25), 185)
        assert mask.sum() == 185
        assert np.array_equal(mask, disk_mask((50, 50), (25, 25), 185))


class TestSimConfigValidation:
    def test_pi0_range(self, line_dictionary):
        with pytest.raises(DataError):
            base_config(line_dictionary, pi0=0.0)

    def test_band_mismatch(self, line_dictionary):
        # the band count is the dictionary's; no other can be given
        assert base_config(line_dictionary).l == line_dictionary.length
        with pytest.raises(TypeError):
            base_config(line_dictionary, l=29)

    @pytest.mark.parametrize("shape", [(0, 40), (40, 0), (-1, 40)])
    def test_cube_shape_positive(self, line_dictionary, shape):
        with pytest.raises(DataError, match="empty cube shape"):
            base_config(line_dictionary, n_y=shape[0], n_x=shape[1])

    def test_signal_atom_range(self, line_dictionary):
        with pytest.raises(DataError):
            base_config(line_dictionary, signal_atom=15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_target_snr_finite(self, line_dictionary, value):
        with pytest.raises(DataError, match="target_snr"):
            base_config(line_dictionary, target_snr=value)


class TestFdrSnrSweep:
    def test_pool_matches_serial_bit_for_bit(self, line_dictionary):
        kw = dict(snr_list=[-14.0], q_list=[0.1, 0.2], runs=2, seed=7,
                  test_shape=(20, 20), fit_shape=(60, 60))
        serial = fdr_snr_sweep(line_dictionary, threads=1, **kw)
        pooled = fdr_snr_sweep(line_dictionary, threads=2, **kw)
        assert repr(pooled) == repr(serial)

    @pytest.mark.parametrize("kw", [
        dict(snr_list=[]), dict(q_list=[]), dict(threads=0),
        dict(threads=-1)], ids=["snr-empty", "q-empty", "threads-0",
                                "threads-negative"])
    def test_rejects_before_drawing(self, line_dictionary, monkeypatch, kw):
        monkeypatch.setattr(simulate, "generate", no_draw)
        args = {**dict(snr_list=[-14.0], q_list=[0.1], runs=1), **kw}
        with pytest.raises(DataError):
            fdr_snr_sweep(line_dictionary, **args)


# Run in a fresh interpreter: whether scipy.ndimage is loaded when
# `fdr_snr_sweep` builds its worker pool, and before the sweep started.
POOL_PROBE = """
import concurrent.futures, json, sys
from shiftdetect.dictionary import build_lss, gaussian_line_reference
from shiftdetect.simulate import fdr_snr_sweep

class Probe:
    def __init__(self, max_workers):
        report["pool"] = "scipy.ndimage" in sys.modules
        raise SystemExit(json.dumps(report))

report = {"before": "scipy.ndimage" in sys.modules}
concurrent.futures.ProcessPoolExecutor = Probe
fdr_snr_sweep(build_lss(gaussian_line_reference(8, 4, 3.0), 3, 1.0), [-10.0],
              [0.1], runs=1, threads=2)
"""


def test_pool_workers_inherit_ndimage():
    # every replicate draws its cube through scipy.ndimage; a forked worker
    # that had to import it would pay about 0.3 s for the import alone
    proc = subprocess.run(
        [sys.executable, "-c", POOL_PROBE],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve()
                                            .parent.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stderr) == {"before": False, "pool": True}


def no_draw(config):
    raise AssertionError("a cube was drawn")


def test_glr_contrast_rejects_empty_q_list(line_dictionary, monkeypatch):
    monkeypatch.setattr(simulate, "generate", no_draw)
    with pytest.raises(DataError, match="q_list"):
        glr_contrast(line_dictionary, NoiseSpec("gaussian"), [], runs=1)

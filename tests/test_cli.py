import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shiftdetect.cli import main
from shiftdetect.dictionary import (Dictionary, build_lss,
                                    gaussian_line_reference)
from shiftdetect.errors import DataError
from shiftdetect.pipeline import (Cube, FsfKernel, RegionSpec,
                                  estimate_reference, load_cube, preprocess,
                                  run_detection, save_cube)
from shiftdetect import simulate
from shiftdetect.simulate import NoiseSpec, SimConfig, generate
from tests.test_api import _load_tracing

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A cube with a bright source and a variance plane, saved to disk."""
    root = tmp_path_factory.mktemp("cli")
    ref = gaussian_line_reference(34, 17, 5.0)
    d = build_lss(ref, 15, 7.0)
    cfg = SimConfig(n_y=240, n_x=240, noise=NoiseSpec("gaussian"),
                    dictionary=d, pi0=0.999, seed=3, signal_atom=7,
                    amplitude_range=(4.0, 7.0))
    cube, _ = generate(cfg)
    data = 2.0 * cube.data
    variance = np.full(data.shape, 4.0)
    save_cube(Cube(data=data, variance=variance), root / "raw.fdc")
    np.savetxt(root / "ref.csv", ref.values[None, :], fmt="%.17g",
               delimiter=",")
    d.save_csv(root / "dict34.csv")
    return root


def run(*argv):
    return main([str(a) for a in argv])


class TestIngest:
    def test_round_trip_through_csvdir(self, workdir):
        assert run("ingest", "--input", workdir / "raw.fdc",
                   "--output", workdir / "csvdir",
                   "--output-format", "csvdir") == 0
        assert run("ingest", "--input", workdir / "csvdir",
                   "--output", workdir / "back.fdc") == 0
        a = load_cube(workdir / "raw.fdc")
        b = load_cube(workdir / "back.fdc")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.variance, b.variance)

    def test_missing_input_exits_2(self, workdir):
        assert run("ingest", "--input", workdir / "nope.fdc",
                   "--output", workdir / "x.fdc") == 2

    def test_header_larger_than_file_exits_2(self, tmp_path, capsys):
        # the header claims about 2 PiB of data; the check must come before
        # any block is allocated
        path = tmp_path / "huge.fdc"
        path.write_bytes(b"FDC1" + struct.pack("<IIIIi", 65536, 65536,
                                               65535, 0, 0) + bytes(64))
        assert path.stat().st_size == 88
        assert run("ingest", "--input", path,
                   "--output", tmp_path / "x.fdc") == 2
        assert "truncated data block" in capsys.readouterr().err


class TestPreprocessDetectFlow:
    @pytest.fixture(scope="class")
    def prep(self, workdir):
        """The preprocessed cube, written once for the tests that read it."""
        path = workdir / "prep.fdc"
        assert run("preprocess", "--cube", workdir / "raw.fdc",
                   "--out", path, "--fsf", "delta") == 0
        return path

    def test_full_workflow(self, workdir, prep):
        assert run("null-fit", "--cube", prep,
                   "--center", "120,120,17",
                   "--out-model", workdir / "model.csv",
                   "--out-dict", workdir / "dict.csv") == 0
        assert run("detect", "--cube", prep,
                   "--center", "120,120,17", "--q", "0.2",
                   "--model", workdir / "model.csv",
                   "--dict-in", workdir / "dict.csv",
                   "--out", workdir / "maps") == 0
        detected = np.loadtxt(workdir / "maps" / "map_detected.csv",
                              delimiter=",")
        assert detected.shape == (50, 50)
        assert (workdir / "maps" / "map_qvalue.pgm").exists()

    def test_uniform_fsf_equals_api(self, workdir, tmp_path):
        path = tmp_path / "prep.fdc"
        assert run("preprocess", "--cube", workdir / "raw.fdc",
                   "--out", path, "--fsf", "uniform:3") == 0
        want = preprocess(load_cube(workdir / "raw.fdc"),
                          FsfKernel(np.ones((3, 3))))
        assert load_cube(path).data.tobytes() == want.data.tobytes()

    def test_model_without_its_dictionary_exits_2(self, workdir):
        # a saved null is only valid under the dictionary it was fitted on
        window = ("--cube", workdir / "raw.fdc", "--center", "120,120,17")
        assert run("null-fit", *window,
                   "--out-model", workdir / "lone_model.csv") == 0
        assert run("detect", *window, "--model", workdir / "lone_model.csv",
                   "--out", workdir / "maps_nodict") == 2

    def test_detect_estimates_when_no_model_given(self, workdir, prep):
        assert run("detect", "--cube", prep,
                   "--center", "120,120,17", "--q", "0.2",
                   "--out", workdir / "maps2") == 0

    def test_pi0_flag_variants(self, workdir, prep):
        for spec in ("one", "storey:0.5"):
            assert run("detect", "--cube", prep,
                       "--center", "120,120,17", "--q", "0.2",
                       "--pi0", spec, "--out", workdir / f"maps_{spec[:3]}") \
                == 0
        assert run("detect", "--cube", prep,
                   "--center", "120,120,17", "--pi0", "bogus",
                   "--out", workdir / "mapsX") == 2

    @pytest.fixture(scope="class")
    def fit(self, workdir, prep):
        """A saved null model and dictionary, fitted once."""
        paths = workdir / "fit_model.csv", workdir / "fit_dict.csv"
        assert run("null-fit", "--cube", prep, "--center", "120,120,17",
                   "--out-model", paths[0], "--out-dict", paths[1]) == 0
        return paths

    @pytest.mark.parametrize("artifact, edit, message", [
        (0, lambda rows: rows[:7] + ["abc"] + rows[8:], "malformed"),
        (0, lambda rows: rows[:2] + rows[:1:-1], "sorted"),
        (1, lambda rows: rows[:3] + ["abc" + rows[3]] + rows[4:],
         "malformed number"),
    ], ids=["model-abc", "model-pooled-reversed", "dict-abc"])
    def test_tampered_fit_artifact_exits_2(self, prep, fit, tmp_path, capsys,
                                           artifact, edit, message):
        # a saved fit either loads as written or stops the run: a reordered
        # null would otherwise give a quiet wrong answer
        paths = list(fit)
        rows = paths[artifact].read_text().splitlines()
        paths[artifact] = tmp_path / "tampered.csv"
        paths[artifact].write_text("\n".join(edit(rows)) + "\n")
        assert run("detect", "--cube", prep, "--center", "120,120,17",
                   "--model", paths[0], "--dict-in", paths[1],
                   "--out", tmp_path / "maps") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("voxel, oneshot, saved", [
        ((120, 120, 3), 2, 2),      # inside the test window
        ((130, 30, 3), 2, 0),       # inside the fit window only
        ((5, 5, 17), 0, 0),         # outside both windows
        ((120, 120, 0), 0, 0),      # outside the band window
    ])
    def test_nan_policy_covers_the_loaded_box(self, prep, fit, tmp_path,
                                              capsys, voxel, oneshot, saved):
        # one partially NaN pixel: detect reads the fit window, or only the
        # test window when a saved fit is given, and checks what it reads
        cube = load_cube(prep)
        data = cube.data.copy()
        data[voxel] = np.nan
        path = tmp_path / "nan.fdc"
        save_cube(Cube(data=data, band_origin=cube.band_origin), path)
        window = ("--cube", path, "--center", "120,120,17")
        assert run("detect", *window, "--out", tmp_path / "a") == oneshot
        assert run("detect", *window, "--model", fit[0], "--dict-in", fit[1],
                   "--out", tmp_path / "b") == saved
        err = capsys.readouterr().err
        assert ("NaNs allowed only in fully masked pixels" in err) \
            == (2 in (oneshot, saved))

    def test_region_outside_cube_exits_2(self, workdir, prep, capsys):
        assert run("detect", "--cube", prep,
                   "--center", "10,10,17", "--out", workdir / "maps3") == 2
        assert "window outside cube" in capsys.readouterr().err


class TestPi0Modes:
    @pytest.fixture(scope="class")
    def cube_path(self, tmp_path_factory):
        """A cube on which --pi0 one decides differently from the
        empirical plug-in at q = 0.2."""
        ref = gaussian_line_reference(34, 17, 5.0)
        d = build_lss(ref, 15, 7.0)
        cfg = SimConfig(n_y=240, n_x=240, noise=NoiseSpec("gaussian"),
                        dictionary=d, pi0=0.85, seed=2, signal_atom=7,
                        amplitude_range=(0.5, 3.0))
        cube, _ = generate(cfg)
        path = tmp_path_factory.mktemp("pi0") / "cube.fdc"
        save_cube(cube, path)
        return path

    @pytest.mark.parametrize("spec", ["empirical", "one", "storey:0.5"])
    def test_every_map_uses_the_requested_pi0(self, cube_path, spec,
                                              tmp_path):
        assert run("detect", "--cube", cube_path, "--center", "120,120,17",
                   "--q", "0.2", "--pi0", spec, "--out", tmp_path) == 0

        def load(name):
            return np.loadtxt(tmp_path / f"map_{name}.csv", delimiter=",")

        detected = load("detected")
        assert detected.sum() > 0
        assert np.array_equal(detected, load("detected_q0.2"))
        assert np.array_equal(detected == 1, load("qvalue") <= 0.2)


def small_csvdir(**override):
    """Files of a 2x2x3 CSV-per-band cube with variance bands, `override`
    replacing whole files."""
    files = {"meta.txt": "n_y=2\nn_x=2\nl=3\nhas_variance=1\n"}
    for b in range(3):
        files[f"band{b:04d}.csv"] = "1,2\n3,4\n"
        files[f"variance{b:04d}.csv"] = "1,1\n1,1\n"
    files.update(override)
    return files


def dict34_with(row, col, value):
    """The rows of `workdir`'s dict34.csv, shifts first, with one entry
    replaced."""
    d = build_lss(gaussian_line_reference(34, 17, 5.0), 15, 7.0)
    rows = [list(d.shifts), *map(list, d.atoms)]
    rows[row][col] = value
    return "".join(",".join("%.17g" % v for v in r) + "\n" for r in rows)


def model_csv(values, pooled=(0.1, 0.2)):
    """A NullModel CSV with the row `values` of mu0_hat,pi0_hat,n0,n_fit."""
    return "mu0_hat,pi0_hat,n0,n_fit\r\n%s\r\n" % values \
        + "".join("%r\r\n" % v for v in pooled)


class TestMalformedNumbers:
    @pytest.mark.parametrize("argv, config", [
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "nan",
                      "--m-range", "1..1"], None, id="pfa-bound-tau-nan-m1"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau=-3",
                      "--m-range", "1..1"], None,
                     id="pfa-bound-tau-negative-m1"),
        # a saved fit: the dictionary and a valid model in one directory
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{csvdir}/d.csv",
                      "--model", "{csvdir}/m.csv", "--out", "{out}"],
                     {"d.csv": dict34_with(3, 17, np.nan),
                      "m.csv": model_csv("0.5,1,1,2")},
                     id="detect-dict-atom-nan"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{csvdir}/d.csv",
                      "--model", "{csvdir}/m.csv", "--out", "{out}"],
                     {"d.csv": dict34_with(0, 4, np.nan),
                      "m.csv": model_csv("0.5,1,1,2")},
                     id="detect-dict-shift-nan"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{dict}",
                      "--model", "{conf}", "--out", "{out}"],
                     model_csv("0.5,1,0,10", pooled=()),
                     id="detect-model-n0-0"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{dict}",
                      "--model", "{conf}", "--out", "{out}"],
                     model_csv("nan,1,1,2"), id="detect-model-mu0-nan"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{dict}",
                      "--model", "{conf}", "--out", "{out}"],
                     model_csv("0.5,1,1,-5"),
                     id="detect-model-n-fit-below-n0"),
        # fit_null's pi0_hat for n0 = 1 of n_fit = 2 is 1
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{dict}",
                      "--model", "{conf}", "--out", "{out}"],
                     model_csv("0.5,0.001,1,2"),
                     id="detect-model-pi0-tampered"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "nan",
                      "--m-range", "2..3"], None, id="pfa-bound-tau-nan"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "inf",
                      "--m-range", "2..3"], None, id="pfa-bound-tau-inf"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--tau", "nan", "--out", "{out}"], None,
                     id="detect-tau-nan"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--pi0", "storey:x", "--out", "{out}"], None,
                     id="detect-pi0-storey-x"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--pi0", "empirical:", "--out", "{out}"], None,
                     id="detect-pi0-empirical-colon"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,x",
                      "--out", "{out}"], None, id="detect-center-x"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "gaussian:x"], None, id="preprocess-fsf-x"),
        pytest.param(["glr-compare", "--q-grid", "0.1,x", "--runs", "1"],
                     None, id="glr-compare-q-grid-x"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     "l=abc\n", id="simulate-l-abc"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     "snr_list=-20,x\n", id="simulate-snr-list-x"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "uniform:-1"], None,
                     id="preprocess-fsf-uniform-negative"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "uniform:2"], None,
                     id="preprocess-fsf-uniform-even"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     "kernel=uniform-1\n", id="simulate-kernel-uniform-1"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "0"], "", id="simulate-runs-0"),
        pytest.param(["glr-compare", "--runs", "0", "--out", "{out}"], None,
                     id="glr-compare-runs-0"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"band0001.csv": "abc\n"}),
                     id="ingest-csvdir-band-abc"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"variance0002.csv": "1,2\n"}),
                     id="ingest-csvdir-variance-shape"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"meta.txt": "n_y=-1\nn_x=2\nl=3\n"}),
                     id="ingest-csvdir-negative-n-y"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"band0001.csv": ""}),
                     id="ingest-csvdir-band-empty"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"variance0002.csv": "# no values\n\n"}),
                     id="ingest-csvdir-variance-empty"),
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "abc,1,2\n",
                     id="pfa-bound-reference-abc"),
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "", id="pfa-bound-reference-empty"),
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "# a comment only\n\n",
                     id="pfa-bound-reference-no-numbers"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     "ny=-1\n", id="simulate-ny-negative"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     "nx=0\n", id="simulate-nx-zero"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "gaussian:0"], None,
                     id="preprocess-fsf-gaussian-0"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "gaussian:-1"], None,
                     id="preprocess-fsf-gaussian-negative"),
        # undecodable input: the error line names the file
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"band0001.csv": b"\xff\xfe"}),
                     id="ingest-csvdir-band-undecodable"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"meta.txt": b"\xff\xfe"}),
                     id="ingest-csvdir-meta-undecodable"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}"],
                     b"\xff\xfe", id="simulate-config-undecodable"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "120,120,17",
                      "--half-bands", "17", "--dict-in", "{dict}",
                      "--model", "{conf}", "--out", "{out}"],
                     b"mu0_hat,pi0_hat,n0,n_fit\r\n\xff\xfe\r\n",
                     id="detect-model-body-undecodable"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "2",
                      "--m-range", "1..3", "--amplitude", "nan"], None,
                     id="pfa-bound-amplitude-nan"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "2",
                      "--m-range", "1..3", "--amplitude", "inf"], None,
                     id="pfa-bound-amplitude-inf"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "2",
                      "--m-range", "1..3", "--amplitude=-2"], None,
                     id="pfa-bound-amplitude-negative"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "snr_list=nan\n", id="simulate-snr-nan"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "snr_list=inf\n", id="simulate-snr-inf"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "snr_list=\n",
                     id="simulate-snr-list-empty"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "q_list=\n", id="simulate-q-list-empty"),
        pytest.param(["glr-compare", "--q-grid", "", "--runs", "1",
                      "--out", "{out}"], None, id="glr-compare-q-grid-empty"),
        pytest.param(["--threads", "0", "simulate", "--config", "{conf}",
                      "--out", "{out}", "--runs", "1"], "",
                     id="simulate-threads-0"),
        pytest.param(["--threads", "-1", "simulate", "--config", "{conf}",
                      "--out", "{out}", "--runs", "1"], "",
                     id="simulate-threads-negative"),
        # a misspelt key would leave its default in force
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"],
                     "ny=8\nnx=8\nfit_ny=30\nfit_nx=30\nsnr_list=-10\n"
                     "q_list=0.1\nkernal=none\n", id="simulate-unknown-key"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "delta:5"], None, id="preprocess-fsf-delta-5"),
        pytest.param(["detect", "--cube", "{cube}", "--center", "1,2",
                      "--out", "{out}"], None, id="detect-center-two-parts"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--fsf", "foo"], None, id="preprocess-fsf-foo"),
        pytest.param(["preprocess", "--cube", "{cube}", "--out", "{out}",
                      "--baseline-window", "4"], None,
                     id="preprocess-baseline-window-even"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "2",
                      "--m-range", "2-3"], None, id="pfa-bound-m-range-dash"),
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "1,nan,2\n",
                     id="pfa-bound-reference-nan"),
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "0,0,0\n",
                     id="pfa-bound-reference-zero"),
        # two rows would otherwise run as one reference of twice the bands
        pytest.param(["pfa-bound", "--reference", "{conf}", "--tau", "2",
                      "--m-range", "2..3"], "0,1,3,1,0\n0,1,3,1,0\n",
                     id="pfa-bound-reference-two-rows"),
        # a scale key the noise family does not use would be ignored
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "noise=student\nsigma=3\n",
                     id="simulate-student-sigma"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "noise=gaussian\nnu=3\n",
                     id="simulate-gaussian-nu"),
        pytest.param(["glr-compare", "--nu", "3", "--runs", "1",
                      "--out", "{out}"], None, id="glr-compare-gaussian-nu"),
        pytest.param(["pfa-bound", "--reference", "{ref}", "--tau", "2",
                      "--m-range", "2..3", "--center-band", "99"], None,
                     id="pfa-bound-center-band-outside"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "kernel=gauss\n",
                     id="simulate-kernel-gauss"),
        pytest.param(["ingest", "--input", "{csvdir}", "--output", "{out}"],
                     small_csvdir(**{"meta.txt": "n_y=abc\nn_x=2\nl=3\n"}),
                     id="ingest-csvdir-n-y-abc"),
        # an infinite FWHM would build a flat box of the truncation width
        pytest.param(["glr-compare", "--ref-fwhm", "inf", "--runs", "1",
                      "--out", "{out}"], None,
                     id="glr-compare-ref-fwhm-inf"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"],
                     "ny=8\nnx=8\nfit_ny=30\nfit_nx=30\nsnr_list=-10\n"
                     "q_list=0.1\nref_fwhm=inf\n",
                     id="simulate-ref-fwhm-inf"),
        pytest.param(["glr-compare", "--q-grid", "0.1,1", "--runs", "1",
                      "--out", "{out}"], None, id="glr-compare-q-grid-one"),
        pytest.param(["simulate", "--config", "{conf}", "--out", "{out}",
                      "--runs", "1"], "q_list=0.1,nan\n",
                     id="simulate-q-list-nan"),
    ])
    def test_exits_2(self, workdir, tmp_path, capsys, argv, config):
        """`config` is the text or bytes of a config (or reference or
        model) file, or the files of a CSV cube.  The error line is all
        that stderr gets, and it names each file given as bytes."""
        conf, csvdir = tmp_path / "bad.conf", tmp_path / "cube"
        files = {conf: config}
        if isinstance(config, dict):
            csvdir.mkdir()
            files = {csvdir / name: data for name, data in config.items()}
        for path, content in files.items():
            if isinstance(content, bytes):
                path.write_bytes(content)
            elif content is not None:
                path.write_text(content)
        paths = dict(ref=workdir / "ref.csv", cube=workdir / "raw.fdc",
                     dict=workdir / "dict34.csv", out=tmp_path / "out",
                     conf=conf, csvdir=csvdir)
        capsys.readouterr()
        assert run(*[a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for path, content in files.items():
            if isinstance(content, bytes):
                assert str(path) in err, err


@pytest.mark.parametrize("argv", [
    ["null-fit", "--out-model", "m.csv"],
    ["detect", "--out", "maps"],
])
def test_retired_mode_option_is_unknown(argv, capsys):
    # on detect `--mode` would otherwise abbreviate `--model`
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--cube", "c.fdc", "--center", "1,1,1",
            "--mode", "integer")
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode integer" in capsys.readouterr().err


class TestNullFitNoiseFloor:
    def test_null_fit_builds_the_dictionary_detect_builds(self, tmp_path):
        # pure noise: the reference averaged from the brightest pixels is
        # all noise floor, and some of its far-shifted copies overlap
        # negatively
        cube = Cube(data=np.random.default_rng(5).standard_normal(
            (60, 60, 34)))
        save_cube(cube, tmp_path / "noise.fdc")
        region = RegionSpec(center_y=30, center_x=30, center_band=17,
                            half_width=10, fit_half_width=25)
        with pytest.raises(DataError, match="non-negativity"):
            build_lss(estimate_reference(cube, region)[0], 15, 7.0)
        window = ["--cube", tmp_path / "noise.fdc", "--center", "30,30,17",
                  "--half-width", "10", "--fit-half-width", "25"]
        assert run("null-fit", *window, "--out-model", tmp_path / "m.csv",
                   "--out-dict", tmp_path / "d.csv") == 0
        assert run("detect", *window, "--out", tmp_path / "maps") == 0
        saved = Dictionary.load_csv(tmp_path / "d.csv")
        built = run_detection(cube, region).dictionary
        assert np.array_equal(saved.atoms, built.atoms)
        assert np.array_equal(saved.shifts, built.shifts)


class TestPfaBoundCommand:
    def test_table_written(self, workdir, capsys):
        assert run("pfa-bound", "--reference", workdir / "ref.csv",
                   "--center-band", "17", "--tau", "8", "--m-range", "1..6",
                   "--alpha", "0.05", "--out", workdir / "bound.csv") == 0
        rows = (workdir / "bound.csv").read_text().strip().splitlines()
        assert rows[0] == "m,eta_bound,eta_orthogonal,expected_gain"
        assert len(rows) == 7
        table = np.loadtxt(workdir / "bound.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(table[:, 1]) > 0)          # thresholds grow
        assert np.all(table[1:, 1] <= table[1:, 2] + 1e-9)  # slower than orth

    def test_zero_tau_with_overlap_rounding_above_one(self, tmp_path,
                                                      capsys):
        # Gamma(0) of this reference is 1.0000000000000002; at tau = 0 every
        # atom is the same, so every m has the one-atom threshold
        ref = gaussian_line_reference(60, 30, 8.0)
        path, out = tmp_path / "ref60.csv", tmp_path / "bound.csv"
        np.savetxt(path, ref.values[None, :], fmt="%.17g", delimiter=",")
        assert run("pfa-bound", "--reference", path, "--center-band", "30",
                   "--tau", "0", "--m-range", "1..4", "--out", out) == 0, \
            capsys.readouterr().err
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table[:, 1].tolist() == [1.6448536] * 4

    def test_bad_range_exits_2(self, workdir):
        assert run("pfa-bound", "--reference", workdir / "ref.csv",
                   "--tau", "8", "--m-range", "6..2") == 2

    def test_vanished_atom_exits_2(self, workdir, capsys):
        # m = 1 builds; m = 2 shifts the line 100 bands off the reference
        assert run("pfa-bound", "--reference", workdir / "ref.csv",
                   "--center-band", "15", "--tau", "100",
                   "--m-range", "1..3") == 2
        assert "atom vanished" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, workdir, tmp_path):
        # bimodal reference: the overlap curve rises again at the bump
        # separation, so the bound's comparison step is invalid
        values = np.zeros(60)
        values[20] = 1.0
        values[40] = 1.0
        path = tmp_path / "twobump.csv"
        np.savetxt(path, values[None, :], fmt="%.17g", delimiter=",")
        assert run("pfa-bound", "--reference", path, "--center-band", "20",
                   "--tau", "10", "--m-range", "3..3") == 3


class TestSimulateCommand:
    def test_sweep_outputs(self, workdir):
        conf = workdir / "sim.conf"
        conf.write_text(
            "ny=20\nnx=20\nl=30\nfit_ny=60\nfit_nx=60\n"
            "noise=student\nnu=5\npi0=0.81\n"
            "m=15\ntau=7\nsnr_list=-14\nq_list=0.1,0.2\nkernel=uniform3\n")
        assert run("--seed", "7", "simulate", "--config", conf,
                   "--runs", "3", "--out", workdir / "sweep") == 0
        agg = (workdir / "sweep" / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "snr,q,fdr,power"
        assert len(agg) == 3
        runs = (workdir / "sweep" / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 3 * 2

    @pytest.mark.parametrize("line, expected", [
        ("kernel=none\n", None), ("kernel=uniform3\n", 3), ("", 3)],
        ids=["none", "uniform3", "default"])
    def test_kernel_reaches_generate(self, tmp_path, monkeypatch, line,
                                     expected):
        kernels = []

        def spy(config):
            kernels.append(config.kernel_size)
            return generate(config)

        monkeypatch.setattr(simulate, "generate", spy)
        conf = tmp_path / "sim.conf"
        conf.write_text("ny=8\nnx=8\nfit_ny=30\nfit_nx=30\nsnr_list=-10\n"
                        "q_list=0.1\n" + line)
        assert run("simulate", "--config", conf, "--runs", "1",
                   "--out", tmp_path / "sweep") == 0
        assert kernels == [expected, expected]  # fit cube and test cube

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_kernel_size_below_one_exits_2(self, tmp_path, capsys, size,
                                           threads):
        conf = tmp_path / "sim.conf"
        conf.write_text("ny=8\nnx=8\nfit_ny=30\nfit_nx=30\nsnr_list=-10\n"
                        f"q_list=0.1\nkernel=uniform{size}\n")
        assert run("--threads", threads, "simulate", "--config", conf,
                   "--runs", "1", "--out", tmp_path / "sweep") == 2
        assert (f"uniform kernel size must be >= 1, got {size}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_late_bad_snr_draws_no_cube(self, tmp_path, monkeypatch, capsys,
                                        threads):
        import concurrent.futures
        started = []

        def count(config):
            started.append("cube")
            return generate(config)

        def no_pool(*args, **kwargs):
            started.append("pool")
            raise AssertionError("a pool was started")

        monkeypatch.setattr(simulate, "generate", count)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        conf = tmp_path / "sim.conf"
        conf.write_text("ny=8\nnx=8\nfit_ny=30\nfit_nx=30\n"
                        "snr_list=-10,-5,nan\nq_list=0.1\n")
        assert run("--threads", threads, "simulate", "--config", conf,
                   "--runs", "1", "--out", tmp_path / "sweep") == 2
        assert "target_snr must be finite" in capsys.readouterr().err
        assert started == []

    def test_bad_config_exits_2(self, workdir):
        conf = workdir / "bad.conf"
        conf.write_text("nonsense line without equals\n")
        assert run("simulate", "--config", conf, "--runs", "1",
                   "--out", workdir / "x") == 2


class TestGlrCompareCommand:
    def test_small_run(self, workdir):
        assert run("glr-compare", "--noise", "gaussian", "--runs", "2",
                   "--q-grid", "0.1,0.2", "--l", "30",
                   "--out", workdir / "glr.csv") == 0
        rows = (workdir / "glr.csv").read_text().strip().splitlines()
        assert rows[0] == "method,q,fdr,power"
        assert len(rows) == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# Run in a fresh interpreter: the scipy modules loaded after the import and
# the parser (and a `hasattr` probe of the kind `from .pfabound import ...`
# makes), the shiftdetect modules loaded, the exit code of each `main` call
# in argv[1], and the scipy modules loaded after them.
STARTUP_PROBE = """
import json, sys
import shiftdetect.cli

def loaded(top):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)

hasattr(shiftdetect.pfabound, "__path__")
shiftdetect.cli.build_parser()
report = {"parser": loaded("scipy"), "package": loaded("shiftdetect")}
report["codes"] = [shiftdetect.cli.main(a) for a in json.loads(sys.argv[1])]
report["main"] = loaded("scipy")
print(json.dumps(report))
"""


def test_startup_and_io_commands_load_no_scipy(workdir, tmp_path):
    """scipy takes most of a CLI process's start-up; the commands that read,
    fit and detect never call it, so it must not be imported for them."""
    window = ["--cube", str(workdir / "raw.fdc"), "--center", "120,120,17"]
    model, dictionary = str(tmp_path / "model.csv"), str(tmp_path / "d.csv")
    calls = [
        ["detect", *window, "--out", str(tmp_path / "one_shot")],
        ["null-fit", *window, "--out-model", model, "--out-dict", dictionary],
        ["detect", *window, "--model", model, "--dict-in", dictionary,
         "--out", str(tmp_path / "saved_fit")],
        ["ingest", "--input", str(workdir / "raw.fdc"),
         "--output", str(tmp_path / "csvdir"), "--output-format", "csvdir"],
        ["ingest", "--input", str(tmp_path / "csvdir"),
         "--output", str(tmp_path / "back.fdc")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(calls)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["parser"] == []
    # the benchmark's tracer wraps functions in every layer's module
    layers = {f"shiftdetect.{layer}" for layer in _load_tracing().LAYERS}
    assert layers <= set(report["package"])
    assert report["codes"] == [0] * len(calls)
    assert report["main"] == []


# Run in a fresh interpreter, importing nothing beyond numpy first: the
# modules that importing the CLI and building its parser add.
IMPORT_PROBE = """
import sys
import numpy
before = set(sys.modules)
import shiftdetect.cli
shiftdetect.cli.build_parser()
print(" ".join(sorted(set(sys.modules) - before)))
"""

# Every CLI process pays for these; a new module-level import (`logging`,
# `json`, ...) would add its import time to every command.
STARTUP_MODULES = {"__future__", "_csv", "_decimal", "_locale", "argparse",
                   "copy", "csv", "dataclasses", "decimal", "fractions",
                   "gettext", "locale"}


def test_startup_adds_no_module_beyond_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = {m for m in proc.stdout.split()
             if m.split(".")[0] != "shiftdetect"}
    assert added <= STARTUP_MODULES, added - STARTUP_MODULES

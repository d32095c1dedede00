"""Command-line interface.

Subcommands: ingest, preprocess, null-fit, detect, simulate, pfa-bound,
glr-compare.  Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .dictionary import (Dictionary, ReferenceAtom, build_lss,
                         expected_max_gain, gaussian_line_reference)
from .errors import DataError, NumericError
from .nullmodel import NullModel
from .pfabound import threshold_for_pfa_orthogonal, threshold_table
from .pipeline import (DictionaryParams, FsfKernel, RegionSpec, fit_region,
                       gaussian_fsf, load_cube, load_cube_csvdir, preprocess,
                       read_key_values, run_detection, save_cube,
                       save_cube_csvdir, write_maps)
from .similarity import SimilarityKind
from .simulate import NoiseSpec, fdr_snr_sweep, glr_contrast, uniform_kernel


def _load_any_cube(path, window=None):
    if os.path.isdir(path):
        return load_cube_csvdir(path, window)
    return load_cube(path, window)


def _number(text, kind, what):
    """int(text) or float(text), with malformed text as a DataError."""
    try:
        return kind(text)
    except ValueError:
        raise DataError(f"{what}: expected {kind.__name__}, "
                        f"got {text!r}") from None


def _parse_center(text) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise DataError("--center expects 'row,col,band'")
    return tuple(_number(p, int, "--center") for p in parts)


def _parse_floats(text, what) -> list:
    return [_number(p, float, what) for p in text.split(",") if p]


def _write_csv(path, header, rows) -> None:
    """CSV table to a file, or to stdout when path is None."""
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _fdr_power_rows(aggregate) -> list:
    return [[key, q, "%.6g" % row["fdr"], "%.6g" % row["power"]]
            for (key, q), row in sorted(aggregate.items())]


def _load_reference(path, center_band) -> ReferenceAtom:
    try:
        with open(path) as fh:
            lines = fh.readlines()
        values = np.empty(0)    # no numbers: loadtxt would warn
        if any(line.partition("#")[0].strip() for line in lines):
            values = np.loadtxt(lines, delimiter=",").ravel()
    except OSError as exc:
        raise DataError(f"cannot read reference {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed number ({exc})") from None
    if center_band is None and values.size:
        center_band = int(np.argmax(values))
    return ReferenceAtom(values, center_band=center_band)


def _build_fsf(spec) -> FsfKernel:
    kind, _, arg = spec.partition(":")
    if kind == "gaussian":
        return gaussian_fsf(size=5, sigma=_number(arg or 1.0, float, "--fsf"))
    if kind == "uniform":
        size = _number(arg or 3, int, "--fsf")
        if size < 1:
            raise DataError(f"--fsf uniform:<k> needs k >= 1, got {size}")
        return FsfKernel(np.ones((size, size)))
    if kind == "delta":
        return FsfKernel(np.array([[1.0]]))
    raise DataError(f"unknown FSF spec {spec!r} "
                    "(use gaussian:<sigma>, uniform:<k>, delta)")


def _fit_inputs(args) -> tuple:
    """(cube, region, dictionary params, similarity, saved dictionary or
    None) of `_add_fit_args`: the cube holds only the fit window (the test
    window for a saved fit), and the region is re-centred on that box."""
    cy, cx, cb = _parse_center(args.center)
    region = RegionSpec(center_y=cy, center_x=cx, center_band=cb,
                        half_width=args.half_width, half_bands=args.half_bands,
                        fit_half_width=args.fit_half_width)
    params = DictionaryParams(m=args.m, tau=args.tau,
                              n_center_pixels=args.center_pixels)
    half = region.half_width if getattr(args, "model", None) \
        and args.dict_in else region.fit_half_width
    return (_load_any_cube(args.cube, region.box(half)),
            dataclasses.replace(region, center_y=half, center_x=half,
                                center_band=region.half_bands),
            params, SimilarityKind.parse(args.similarity),
            Dictionary.load_csv(args.dict_in) if args.dict_in else None)


def _add_fit_args(sub):
    """The inputs of one region fit (see `fit_region`): cube, region,
    dictionary knobs and an optional saved dictionary."""
    sub.add_argument("--cube", required=True)
    sub.add_argument("--center", required=True,
                     help="test-window center as 'row,col,band'")
    sub.add_argument("--half-width", type=int, default=RegionSpec.half_width)
    sub.add_argument("--half-bands", type=int, default=RegionSpec.half_bands)
    sub.add_argument("--fit-half-width", type=int,
                     default=RegionSpec.fit_half_width)
    sub.add_argument("--m", type=int, default=DictionaryParams.m)
    sub.add_argument("--tau", type=float, default=DictionaryParams.tau)
    sub.add_argument("--center-pixels", type=int,
                     default=DictionaryParams.n_center_pixels)
    sub.add_argument("--dict-in", default=None,
                     help="reuse a saved dictionary instead of estimating one")


def cmd_ingest(args) -> int:
    cube = _load_any_cube(args.input)
    save = save_cube_csvdir if args.output_format == "csvdir" else save_cube
    save(cube, args.output)
    print(f"ingested cube {cube.shape} -> {args.output}")
    return 0


def cmd_preprocess(args) -> int:
    cube = _load_any_cube(args.cube)
    fsf = _build_fsf(args.fsf) if args.fsf else None
    out = preprocess(cube, fsf=fsf, baseline_window=args.baseline_window,
                     use_variance=not args.no_variance)
    save_cube(out, args.out)
    print(f"preprocessed cube {out.shape} -> {args.out}")
    return 0


def cmd_null_fit(args) -> int:
    dictionary, model, _ = fit_region(*_fit_inputs(args))
    model.save_csv(args.out_model)
    if args.out_dict:
        dictionary.save_csv(args.out_dict)
    print(f"fitted null on {model.n_fit} pixels: mu0={model.mu0_hat:.6g} "
          f"pi0={model.pi0_hat:.6g} n0={model.n0} -> {args.out_model}")
    return 0


def cmd_detect(args) -> int:
    cube, region, params, kind, dictionary = _fit_inputs(args)
    pi0_mode, _, z = args.pi0.partition(":")
    if pi0_mode not in ("empirical", "one", "storey") \
            or (z and pi0_mode != "storey"):
        raise DataError(f"unknown --pi0 {args.pi0!r}")
    zeta = _number(z or 0.5, float, "--pi0 storey:<zeta>")
    model = NullModel.load_csv(args.model) if args.model else None
    output = run_detection(cube, region, params, q=args.q,
                           kind=kind, dictionary=dictionary, model=model,
                           pi0_mode=pi0_mode, zeta=zeta)
    write_maps(output, args.out)
    print(f"detections at q={args.q:g}: {output.result.k_hat} of "
          f"{output.field.n} tested pixels -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    conf = read_key_values(args.config)

    def get(key, default, kind):
        return _number(conf.get(key, default), kind, f"{args.config}: {key}")

    l = get("l", 30, int)
    ref = gaussian_line_reference(l, get("ref_center", l // 2, int),
                                  get("ref_fwhm", 5.0, float),
                                  get("ref_trunc", 6.0, float))
    dictionary = build_lss(ref, get("m", 15, int), get("tau", 7.0, float))
    family = conf.get("noise", "student")
    noise = NoiseSpec(family=family, sigma=get("sigma", 1.0, float),
                      nu=get("nu", 5.0, float))
    kernel_spec = conf.get("kernel", "uniform3")
    if kernel_spec == "none":
        kernel = None
    elif kernel_spec.startswith("uniform"):
        kernel = uniform_kernel(_number(kernel_spec[len("uniform"):] or 3,
                                        int, f"{args.config}: kernel"))
    else:
        raise DataError(f"unknown kernel spec {kernel_spec!r}")
    kind = SimilarityKind.parse(conf.get("similarity", args.similarity))
    snr_list = _parse_floats(conf.get("snr_list", "-24,-21,-18,-15"),
                             f"{args.config}: snr_list")
    q_list = _parse_floats(conf.get("q_list", "0.02,0.05,0.1,0.2"),
                           f"{args.config}: q_list")

    records, aggregate = fdr_snr_sweep(
        dictionary, snr_list, q_list, runs=args.runs, seed=args.seed,
        test_shape=(get("ny", 51, int), get("nx", 51, int)),
        fit_shape=(get("fit_ny", 200, int), get("fit_nx", 200, int)),
        noise=noise, pi0=get("pi0", 0.81, float), kernel=kernel,
        kind=kind, threads=args.threads)

    os.makedirs(args.out, exist_ok=True)
    runs_path = os.path.join(args.out, "runs.csv")
    fields = ["snr", "q", "rep", "fdp", "power", "detections", "pi0_hat"]
    _write_csv(runs_path, fields, [[r[f] for f in fields] for r in records])
    agg_path = os.path.join(args.out, "aggregate.csv")
    _write_csv(agg_path, ["snr", "q", "fdr", "power"],
               _fdr_power_rows(aggregate))
    print(f"wrote {runs_path} and {agg_path}")
    return 0


def cmd_pfa_bound(args) -> int:
    reference = _load_reference(args.reference, args.center_band)
    try:
        m_lo, m_hi = (int(v) for v in args.m_range.split(".."))
    except ValueError:
        raise DataError("--m-range expects 'lo..hi'") from None
    if m_lo < 1 or m_hi < m_lo:
        raise DataError("bad --m-range")
    # build each dictionary for its input checks; rows are defined in m
    # order, so a bound failure at a smaller m is reported first
    ms, build_error = [], None
    for m in range(m_lo, m_hi + 1):
        try:
            build_lss(reference, m, args.tau if m > 1 else 0.0)
        except DataError as exc:
            build_error = exc
            break
        ms.append(m)
    etas = threshold_table(reference, args.tau, ms, args.alpha)
    if build_error is not None:
        raise build_error
    rows = [(m, eta, threshold_for_pfa_orthogonal(m, args.alpha),
             expected_max_gain(reference, m, args.tau, args.amplitude)
             if m >= 2 else args.amplitude)
            for m, eta in zip(ms, etas)]
    _write_csv(args.out, ["m", "eta_bound", "eta_orthogonal",
                          "expected_gain"],
               [[row[0]] + ["%.8g" % v for v in row[1:]] for row in rows])
    return 0


def cmd_glr_compare(args) -> int:
    l = args.l
    ref = gaussian_line_reference(l, l // 2, args.ref_fwhm)
    dictionary = build_lss(ref, args.m, args.tau)
    noise = NoiseSpec(family=args.noise, nu=args.nu)
    q_list = _parse_floats(args.q_grid, "--q-grid")
    _, aggregate = glr_contrast(dictionary, noise, q_list, runs=args.runs,
                                seed=args.seed)
    _write_csv(args.out, ["method", "q", "fdr", "power"],
               _fdr_power_rows(aggregate))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftdetect",
        description="max-test detection of shifting line signatures with "
                    "empirical-null FDR control")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for the simulate sweep "
                             "(no other command reads it)")
    parser.add_argument("--similarity", default="sad", choices=["mf", "sad"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert between cube formats")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--output-format", default="binary",
                   choices=["binary", "csvdir"])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="standardize a cube")
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fsf", default=None,
                   help="gaussian:<sigma>, uniform:<k>, or delta")
    p.add_argument("--baseline-window", type=int, default=None)
    p.add_argument("--no-variance", action="store_true",
                   help="skip the variance-cube reduction step")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("null-fit", help="fit the null model on a region")
    _add_fit_args(p)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-dict", default=None)
    p.set_defaults(func=cmd_null_fit)

    p = sub.add_parser("detect", help="detection maps for a region")
    _add_fit_args(p)
    p.add_argument("--q", type=float, default=0.2)
    p.add_argument("--pi0", default="empirical",
                   help="empirical | storey:<zeta> | one")
    p.add_argument("--model", default=None, help="saved null model CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="FDR-versus-signal-strength sweep")
    p.add_argument("--config", required=True, help="flat key=value file")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pfa-bound", help="dictionary-size threshold table")
    p.add_argument("--reference", required=True, help="reference CSV vector")
    p.add_argument("--center-band", type=int, default=None)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--m-range", required=True, help="e.g. 2..20")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--amplitude", type=float, default=2.7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pfa_bound)

    p = sub.add_parser("glr-compare",
                       help="error control: empirical null vs calibrated GLR")
    p.add_argument("--noise", default="gaussian",
                   choices=["gaussian", "student"])
    p.add_argument("--nu", type=float, default=4.0)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--q-grid", default="0.05,0.1,0.2,0.3,0.4")
    p.add_argument("--l", type=int, default=30)
    p.add_argument("--m", type=int, default=15)
    p.add_argument("--tau", type=float, default=7.0)
    p.add_argument("--ref-fwhm", type=float, default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_glr_compare)

    # a retired option must not pass for a prefix of a live one
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

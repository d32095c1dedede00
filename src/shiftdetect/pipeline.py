"""End-to-end workflow on real or simulated cubes: ingestion, variance
reduction and robust standardization, spatial smoothing, reference-spectrum
estimation, and the fit-null / test / decide orchestration.

Masked pixels carry all-NaN spectra; they are excluded from every count and
reported as untested in output maps.
"""

from __future__ import annotations

import mmap
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dictionary import Dictionary, ReferenceAtom, build_lss
from .errors import DataError, read_text
from .fdr import DetectionResult, detect
from .nullmodel import NullModel, fit_null
from .similarity import SimilarityKind
from .teststat import TestField, compute_field, masked_spectra

_MAGIC = b"FDC1"
_FLAG_VARIANCE = 0x1

CONTOUR_LEVELS = (0.05, 0.1, 0.2, 0.4)
# pixels per block when `preprocess` transposes a cube, so that a block
# stays in cache
_BLOCK_PIXELS = 1024
# Dictionaries built here allow slightly negative inner products between
# far-shifted atoms: a reference estimated from noisy pixels always carries
# a noise floor at shifts where the true line profiles no longer overlap.
GRAM_TOL = 0.2


@dataclass(frozen=True)
class Cube:
    """Observation container: (n_y, n_x, l) flux values plus an optional
    variance cube of the same shape.  band_origin records the absolute
    index of band 0 so subcubes keep their wavelength bookkeeping."""

    data: np.ndarray
    variance: Optional[np.ndarray] = None
    band_origin: int = 0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3:
            raise DataError("cube data must be (n_y, n_x, l)")
        object.__setattr__(self, "data", data)
        if self.variance is not None:
            var = np.asarray(self.variance, dtype=float)
            if var.shape != data.shape:
                raise DataError("variance cube shape mismatch")
            if np.any(var <= 0):
                raise DataError("variance must be strictly positive")
            object.__setattr__(self, "variance", var)

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True)
class FsfKernel:
    """Spatial impulse-response kernel: 180-degree symmetric, unit sum."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise DataError("kernel must be a finite 2-d matrix")
        if not np.allclose(w, w[::-1, ::-1], atol=1e-12):
            raise DataError("kernel must be symmetric under 180-deg rotation")
        total = w.sum()
        if total <= 0:
            raise DataError("kernel must have positive sum")
        object.__setattr__(self, "weights", w / total)


def gaussian_fsf(size: int, sigma: float) -> FsfKernel:
    if size % 2 == 0:
        raise DataError("kernel size must be odd")
    if not 0 < sigma < np.inf:     # written so that NaN fails too
        raise DataError(f"kernel sigma must be positive and finite: {sigma}")
    r = np.arange(size) - size // 2
    g = np.exp(-0.5 * (r / sigma) ** 2)
    return FsfKernel(np.outer(g, g))


@dataclass(frozen=True)
class RegionSpec:
    """Spatial-spectral neighborhood: a test window inside a larger
    null-fit window, both centered on the same (pixel, band) position;
    `box(half_width)` and `box(fit_half_width)` are their slices."""

    center_y: int
    center_x: int
    center_band: int
    half_width: int = 25
    half_bands: int = 15
    fit_half_width: int = 100

    def __post_init__(self):
        if self.half_width < 1 or self.half_bands < 1:
            raise DataError("window half sizes must be >= 1")
        if self.fit_half_width < self.half_width:
            raise DataError("test region must fit inside the fit region")

    def box(self, half: int) -> tuple:
        """(rows, cols, bands) slices: the `half` square, the band window."""
        y, x, b = self.center_y, self.center_x, self.center_band
        return (slice(y - half, y + half), slice(x - half, x + half),
                slice(b - self.half_bands, b + self.half_bands))


def _check_window(shape, slices) -> None:
    if any(s.start < 0 or s.stop > n for s, n in zip(slices, shape)):
        raise DataError("window outside cube")


def extract(cube: Cube, slices) -> Cube:
    """Subcube view; raises when the window leaves the cube."""
    _check_window(cube.shape, slices)
    return Cube(data=cube.data[slices],
                variance=None if cube.variance is None
                else cube.variance[slices],
                band_origin=cube.band_origin + slices[2].start)


# ---------------------------------------------------------------------------
# i/o


def save_cube(cube: Cube, path) -> None:
    """Documented binary format: magic "FDC1", three little-endian uint32
    dims, uint32 flags (bit 0: variance block present), int32 band origin,
    then float64 values row-major band-fastest; variance block follows when
    flagged.  Lossless round-trip."""
    n_y, n_x, l = cube.shape
    flags = _FLAG_VARIANCE if cube.variance is not None else 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIi", n_y, n_x, l, flags, cube.band_origin))
        for block in (cube.data, cube.variance)[:2 if flags else 1]:
            # the buffer itself: copied only when not C-order "<f8"
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def load_cube(path, window=None) -> Cube:
    """Read a `save_cube` file, or just the box `window` (slices as
    `RegionSpec.box` gives them), copied from a read-only map; that equals
    `extract(load_cube(path), window)`.  The NaN policy is checked on what
    is returned: values outside the window are neither copied nor checked."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        header = fh.read(20)
        if len(header) != 20:
            raise DataError(f"{path}: truncated header")
        n_y, n_x, l, flags, band_origin = struct.unpack("<IIIIi", header)
        names = ("data", "variance") if flags & _FLAG_VARIANCE else ("data",)
        # sized from the file before any block is mapped: a header may
        # claim far more data than the file holds
        start, block_bytes = fh.tell(), 8 * n_y * n_x * l
        size = os.fstat(fh.fileno()).st_size
        for k, name in enumerate(names, start=1):
            if size < start + k * block_bytes:
                raise DataError(f"{path}: truncated {name} block")
        if size > start + len(names) * block_bytes:
            raise DataError(f"{path}: trailing bytes")
        window = window or (slice(0, n_y), slice(0, n_x), slice(0, l))
        _check_window((n_y, n_x, l), window)
        # only copies leave the map: a view of a rewritten file can fault
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            blocks = {name: np.ndarray((n_y, n_x, l), "<f8", mapped,
                                       start + k * block_bytes)[window].copy()
                      for k, name in enumerate(names)}
    cube = Cube(band_origin=band_origin + window[2].start, **blocks)
    _check_nan_policy(cube)
    return cube


def read_key_values(path) -> dict:
    """Flat key=value file; blank lines and #-comments ignored."""
    conf = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value")
        conf[key.strip()] = value.strip()
    return conf


def read_numbers(path) -> np.ndarray:
    """The comma-separated numbers of a text file as a 2-d array."""
    lines = read_text(path).split("\n")
    if not any(line.partition("#")[0].strip() for line in lines):
        raise DataError(f"{path}: no numbers")     # loadtxt would warn
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_cube_csvdir(cube: Cube, dirpath) -> None:
    """One CSV per band (17 significant digits) plus a small metadata file;
    variance bands saved alongside when present."""
    os.makedirs(dirpath, exist_ok=True)
    n_y, n_x, l = cube.shape
    with open(os.path.join(dirpath, "meta.txt"), "w") as fh:
        fh.write(f"n_y={n_y}\nn_x={n_x}\nl={l}\n"
                 f"band_origin={cube.band_origin}\n"
                 f"has_variance={int(cube.variance is not None)}\n")
    for b in range(l):
        for stem, block in (("band", cube.data), ("variance", cube.variance)):
            if block is not None:
                _write_grid(os.path.join(dirpath, f"{stem}{b:04d}.csv"),
                            block[:, :, b])


def load_cube_csvdir(dirpath, window=None) -> Cube:
    """Read a `save_cube_csvdir` directory; `window` as in `load_cube`."""
    meta = read_key_values(os.path.join(dirpath, "meta.txt"))
    try:
        n_y, n_x, l = (int(meta[key]) for key in ("n_y", "n_x", "l"))
        origin, has_variance = (int(meta.get(key, 0))
                                for key in ("band_origin", "has_variance"))
    except (KeyError, ValueError) as exc:
        raise DataError(f"{dirpath}: bad metadata ({exc})") from None
    if min(n_y, n_x, l) < 0:
        raise DataError(f"{dirpath}: negative dimension in metadata")
    blocks = {"band": np.empty((n_y, n_x, l))}
    if has_variance:
        blocks["variance"] = np.empty((n_y, n_x, l))
    for b in range(l):
        for stem, block in blocks.items():
            path = os.path.join(dirpath, f"{stem}{b:04d}.csv")
            values = read_numbers(path)
            if values.shape != (n_y, n_x):
                raise DataError(f"{path}: shape {values.shape}, expected "
                                f"{(n_y, n_x)}")
            block[:, :, b] = values
    cube = Cube(data=blocks["band"], variance=blocks.get("variance"),
                band_origin=origin)
    cube = cube if window is None else extract(cube, window)
    _check_nan_policy(cube)
    return cube


def _check_nan_policy(cube: Cube) -> None:
    """NaNs may only appear as whole masked spectra (`masked_spectra`), the
    same in data and variance.  NaN-free blocks cost one screen each."""
    masked, var = masked_spectra(cube.data), cube.variance
    if var is not None and (masked is not None or np.isnan(var).any()) \
            and np.any(np.isnan(var) != np.isnan(cube.data)):
        raise DataError("variance mask must match data mask")


# ---------------------------------------------------------------------------
# preprocessing


def preprocess(cube: Cube, fsf: Optional[FsfKernel] = None,
               baseline_window: Optional[int] = None,
               use_variance: bool = True) -> Cube:
    """Standardize a cube for testing; the input cube is left unchanged.

    Steps, in order: optional running-median baseline subtraction (off by
    default, for inputs whose continuum was not already removed); per-voxel
    division by sqrt(variance) when a variance cube is present; per-band
    robust centering on the median and scaling by 1.4826 MAD (Gaussian-
    consistent), the medians equal to `np.nanmedian`'s (a zero one may
    differ in sign); optional spatial convolution with the kernel,
    reflective boundaries.  Every step is odd in the data, so symmetric
    noise stays symmetric.  Masked pixels pass through untouched.

    The standardization works band-major (`_standardize`): each voxel
    meets the same operations on the same operands as in band-by-band
    order, so the bits do not depend on the layout.  NaNs are zero-filled
    for the convolution in place, and only when there are any.
    """
    from scipy import ndimage
    masked = masked_spectra(cube.data)
    data = cube.data
    if baseline_window is not None:
        if baseline_window < 3 or baseline_window % 2 == 0:
            raise DataError("baseline window must be odd and >= 3")
        # reflect padding: edge-extended padding would make the median equal
        # the data itself over the first and last half-windows
        data = data - ndimage.median_filter(
            data, size=(1, 1, baseline_window), mode="reflect")
    if use_variance and cube.variance is None:
        raise DataError("variance reduction requested but the cube has no "
                        "variance")
    data = _standardize(data, cube.variance if use_variance else None)
    if fsf is not None:
        nan = np.isnan(data)
        if nan.any():
            data[nan] = 0.0
        data = ndimage.convolve(data, fsf.weights[:, :, None],
                                mode="reflect")
        if masked is not None:
            data[masked] = np.nan
    return Cube(data=data, variance=None, band_origin=cube.band_origin)


def _standardize(data: np.ndarray,
                 variance: Optional[np.ndarray]) -> np.ndarray:
    """data / sqrt(variance) (data alone when variance is None), each band
    centred on its median and scaled by 1.4826 MAD, as a new C-order cube.
    The work runs on one band-major copy, each band a contiguous row
    centred and scaled in place; both transpositions go block by block."""
    n_y, n_x, l = data.shape
    step = max(1, _BLOCK_PIXELS // max(n_x, 1))
    blocks = [slice(r, r + step) for r in range(0, n_y, step)]
    bands = np.empty((l, n_y, n_x))
    for rows in blocks:
        block = data[rows] if variance is None \
            else data[rows] / np.sqrt(variance[rows])
        bands[:, rows] = block.transpose(2, 0, 1)
    for b, band in enumerate(bands.reshape(l, n_y * n_x)):
        band -= _nanmedian(band)
        scale = 1.4826 * _nanmedian(np.abs(band))
        if not np.isfinite(scale) or scale <= 0:
            raise DataError(f"degenerate band {b}: zero spread")
        band /= scale
    out = np.empty((n_y, n_x, l))
    for rows in blocks:
        out[rows] = bands[:, rows].transpose(1, 2, 0)
    return out


def _nanmedian(values: np.ndarray) -> float:
    """`np.nanmedian` of a 1-d array (NaN, unwarned, if all NaN) by one SIMD
    single-kth partition; equal in value, though a zero may differ in sign."""
    n = values.size - np.count_nonzero(np.isnan(values))
    if n == 0:
        return np.nan
    part = np.partition(values, n // 2)
    if n % 2:
        return part[n // 2]
    return (part[:n // 2].max() + part[n // 2]) / 2


# ---------------------------------------------------------------------------
# reference estimation and detection


def estimate_reference(cube: Cube, region: RegionSpec,
                       n_center_pixels: int = 5) -> tuple:
    """Average the spectra of the brightest pixels of the test window.

    Brightness is summed flux over the spectral window, masked pixels last;
    ties break by row-major pixel order.  Returns the average, l2-normalized
    and centered on the window's middle band, and the boolean map (test-
    window grid) of the pixels averaged into it.  Those pixels stay in the
    tested set but trivially match the dictionary they defined, so output
    maps flag them.
    """
    if n_center_pixels < 1:
        raise DataError("n_center_pixels must be >= 1")
    sub = extract(cube, region.box(region.half_width))
    flat = sub.data.reshape(-1, sub.shape[2])
    if n_center_pixels > flat.shape[0]:
        raise DataError("more center pixels than the test window holds")
    flux = np.where(np.isnan(flat).any(axis=1), -np.inf, flat.sum(axis=1))
    order = np.argsort(-flux, kind="stable")[:n_center_pixels]
    spectra = flat[order]
    if np.isnan(spectra).any():
        raise DataError("not enough unmasked pixels for the reference")
    mask = np.zeros(flat.shape[0], dtype=bool)
    mask[order] = True
    return (ReferenceAtom(spectra.mean(axis=0), center_band=region.half_bands),
            mask.reshape(sub.shape[:2]))


@dataclass(frozen=True)
class DictionaryParams:
    """Dictionary construction knobs for the detection workflow; every
    dictionary built from them is checked against GRAM_TOL."""

    m: int = 15
    tau: float = 7.0
    n_center_pixels: int = 5


@dataclass(frozen=True)
class DetectionOutput:
    result: DetectionResult
    model: NullModel
    dictionary: Dictionary
    field: TestField
    maps: dict = field(repr=False, default_factory=dict)


def fit_region(cube: Cube, region: RegionSpec,
               dict_params: DictionaryParams = DictionaryParams(),
               kind: SimilarityKind = SimilarityKind.SPECTRAL_ANGLE,
               dictionary: Optional[Dictionary] = None,
               model: Optional[NullModel] = None) -> tuple:
    """The (dictionary, null model, reference-pixel map) of one
    neighborhood, the first two built here unless supplied.

    The dictionary comes from the reference spectrum estimated on the test
    window, and the map flags the pixels averaged into it (None for a
    supplied dictionary); the null is fitted on the statistics of the
    extended fit window.  A supplied null needs the dictionary it was
    fitted under.
    """
    if model is not None and dictionary is None:
        raise DataError("a saved null model needs its dictionary: pass the "
                        "one saved by null-fit --out-dict")
    ref_mask = None
    if dictionary is None:
        reference, ref_mask = estimate_reference(
            cube, region, dict_params.n_center_pixels)
        dictionary = build_lss(reference, dict_params.m, dict_params.tau,
                               gram_tol=GRAM_TOL)
    if model is None:
        model = fit_null(compute_field(
            extract(cube, region.box(region.fit_half_width)), dictionary,
            kind))
    return dictionary, model, ref_mask


def run_detection(cube: Cube, region: RegionSpec,
                  dict_params: DictionaryParams = DictionaryParams(),
                  q: float = 0.2,
                  kind: SimilarityKind = SimilarityKind.SPECTRAL_ANGLE,
                  dictionary: Optional[Dictionary] = None,
                  model: Optional[NullModel] = None,
                  pi0: str = "empirical") -> DetectionOutput:
    """Full decision workflow on one spatial-spectral neighborhood.

    Builds the shift dictionary and fits the null model (see `fit_region`),
    computes p/q-values on the test window with the null-proportion
    plug-in named by pi0 (see `detect`), and reads the step-up decision at
    q and at the standard overlay levels from that one result.  Output
    maps hold the p-values, q-values, those decisions, and (when the
    reference was estimated here) a flag map of the pixels that defined it.
    """
    dictionary, model, ref_mask = fit_region(cube, region, dict_params,
                                             kind, dictionary, model)
    test_field = compute_field(extract(cube, region.box(region.half_width)),
                               dictionary, kind)
    result = detect(model, test_field, pi0)
    maps = {
        "pvalue": test_field.to_map(result.pvalues),
        "qvalue": test_field.to_map(result.qvalues),
        "detected": test_field.to_map(result.detected_at(q)),
        "argmax_atom": test_field.to_map(test_field.argmax_atom),
        "best_shift": test_field.to_map(
            dictionary.shifts[test_field.argmax_atom]),
    }
    for level in CONTOUR_LEVELS:
        maps[f"detected_q{level:g}"] = test_field.to_map(
            result.detected_at(level))
    if ref_mask is not None:
        maps["reference_pixels"] = ref_mask
    return DetectionOutput(result=result, model=model, dictionary=dictionary,
                           field=test_field, maps=maps)


# ---------------------------------------------------------------------------
# map output


def write_pgm(path, values: np.ndarray, invert: bool = False) -> None:
    """8-bit binary PGM preview of a 2-d map; NaN renders black."""
    v = np.asarray(values, dtype=float)
    finite = np.isfinite(v)
    lo = float(v[finite].min()) if finite.any() else 0.0
    hi = float(v[finite].max()) if finite.any() else 1.0
    span = hi - lo if hi > lo else 1.0
    if span == np.inf:
        # the range exceeds the largest double; halving keeps v - lo finite
        v, lo, hi = v / 2, lo / 2, hi / 2
        span = hi - lo
    scaled = np.where(finite, (v - lo) / span, 0.0)
    if invert:
        scaled = np.where(finite, 1.0 - scaled, 0.0)
    img = np.clip(np.round(scaled * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


def _write_grid(path, values: np.ndarray) -> None:
    """A 2-d array as CSV rows of %.17g numbers, the one grid format.  A
    boolean grid goes out as one byte array of its 0/1 digits: the text
    %.17g gives 0.0 and 1.0, without formatting each value."""
    n_y, n_x = values.shape
    with open(path, "w") as fh:
        if values.dtype == bool:
            text = np.full((n_y, 2 * n_x), ord(","), dtype=np.uint8)
            text[:, ::2] = values + ord("0")
            text[:, -1:] = ord("\n")
            fh.write(text.tobytes().decode("ascii"))
            return
        row = ",".join(["%.17g"] * n_x) + "\n"
        fh.write(row * n_y % tuple(values.ravel().tolist()))


def write_maps(output: DetectionOutput, outdir, prefix: str = "map") -> None:
    """CSV grid (`_write_grid`, digits for a boolean map) plus PGM preview
    per map."""
    os.makedirs(outdir, exist_ok=True)
    for name, values in output.maps.items():
        _write_grid(os.path.join(outdir, f"{prefix}_{name}.csv"), values)
        write_pgm(os.path.join(outdir, f"{prefix}_{name}.pgm"), values,
                  invert=name in ("pvalue", "qvalue"))

import re
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftdetect.dictionary import build_lss
from shiftdetect.errors import DataError
from shiftdetect.nullmodel import NullModel
from shiftdetect.pipeline import (Cube, DictionaryParams, FsfKernel,
                                  RegionSpec, _check_nan_policy, _nanmedian,
                                  _write_grid, estimate_reference, extract,
                                  fit_region, gaussian_fsf,
                                  load_cube, load_cube_csvdir, preprocess,
                                  run_detection, save_cube, save_cube_csvdir,
                                  write_maps, write_pgm)
from shiftdetect.similarity import SimilarityKind
from shiftdetect.simulate import NoiseSpec, SimConfig, generate
from shiftdetect.teststat import masked_spectra

from oracles import (check_nan_policy_per_pixel, equal_up_to_zero_sign,
                     preprocess_where_fill, save_cube_tobytes,
                     standardize_nanmedian)

SAD = SimilarityKind.SPECTRAL_ANGLE


def random_cube(rng, shape=(6, 5, 4), variance=False, mask_pixel=None):
    data = rng.standard_normal(shape)
    var = None
    if variance:
        var = rng.uniform(0.5, 2.0, shape)
    if mask_pixel is not None:
        data[mask_pixel] = np.nan
        if var is not None:
            var[mask_pixel] = np.nan
    return Cube(data=data, variance=var, band_origin=7)


@st.composite
def windowed_cubes(draw):
    """A small cube, with or without a variance block and masked pixels,
    and a window inside it that often starts or ends at a cube edge."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    window = []
    for n in shape:
        start = 0 if draw(st.booleans()) else draw(st.integers(0, n - 1))
        stop = n if draw(st.booleans()) else draw(st.integers(start + 1, n))
        window.append(slice(start, stop))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.standard_normal(shape)
    var = rng.uniform(0.5, 2.0, shape) if draw(st.booleans()) else None
    for y, x in draw(st.lists(st.tuples(st.integers(0, shape[0] - 1),
                                        st.integers(0, shape[1] - 1)),
                              max_size=4)):
        data[y, x] = np.nan
        if var is not None:
            var[y, x] = np.nan
    cube = Cube(data=data, variance=var,
                band_origin=draw(st.integers(-50, 50)))
    return cube, tuple(window)


class TestCubeContainer:
    def test_variance_shape_checked(self, rng):
        with pytest.raises(DataError):
            Cube(data=rng.standard_normal((3, 3, 2)),
                 variance=rng.uniform(1, 2, (3, 3, 3)))

    def test_variance_positive(self, rng):
        var = rng.uniform(1, 2, (3, 3, 2))
        var[0, 0, 0] = 0.0
        with pytest.raises(DataError):
            Cube(data=rng.standard_normal((3, 3, 2)), variance=var)


@st.composite
def masked_cubes(draw):
    """A small cube, continuous or quantised (ties, zeros of both signs),
    with a variance block and masked pixels now and then."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)),
             draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        data = rng.integers(0, 4, shape) * rng.choice([-0.5, 0.5], shape)
    else:
        data = rng.standard_normal(shape)
    var = rng.uniform(0.5, 2.0, shape) if draw(st.booleans()) else None
    masked = rng.random(shape[:2]) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    data[masked] = np.nan
    if var is not None:
        var[masked] = np.nan
    return data, var


@st.composite
def messy_cubes(draw):
    """`masked_cubes` plus, now and then, a stray NaN or a whole masked
    pixel in the data alone or in the variance alone."""
    data, var = draw(masked_cubes())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for block in (data, var):
        if block is None:
            continue
        for axes in (3, 2):     # one voxel, one whole spectrum
            if draw(st.integers(0, 2)) == 0:
                block[tuple(rng.integers(n) for n in block.shape[:axes])] \
                    = np.nan
    return Cube(data=data, variance=var)


class TestNanPolicy:
    @settings(max_examples=300, deadline=None)
    @given(cube=messy_cubes())
    def test_equals_per_pixel_rule(self, cube):
        try:
            check_nan_policy_per_pixel(cube)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                _check_nan_policy(cube)
        else:
            _check_nan_policy(cube)


class TestBinaryIO:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        cube = random_cube(rng, variance=True, mask_pixel=(2, 3))
        path = tmp_path / "cube.fdc"
        save_cube(cube, path)
        back = load_cube(path)
        assert np.array_equal(back.data, cube.data, equal_nan=True)
        assert np.array_equal(back.variance, cube.variance, equal_nan=True)
        assert back.band_origin == 7

    @pytest.mark.parametrize("layout", ["float32", "big-endian", "strided",
                                        "fortran"])
    def test_bytes_equal_tobytes_writer(self, rng, tmp_path, layout):
        # a Cube holds native float64; the writer converts anything else
        data = rng.standard_normal((5, 6, 7))
        var = rng.uniform(0.5, 2.0, data.shape)
        data[1, 2] = var[1, 2] = np.nan
        if layout in ("float32", "big-endian"):
            dtype = {"float32": np.float32, "big-endian": ">f8"}[layout]
            cube = SimpleNamespace(data=data.astype(dtype),
                                   variance=var.astype(dtype),
                                   shape=data.shape, band_origin=-3)
        elif layout == "strided":
            wide = np.zeros((5, 12, 9))
            wide[:, ::2, 1:8] = data
            cube = Cube(data=wide[:, ::2, 1:8], variance=var, band_origin=-3)
        else:
            cube = Cube(data=np.asfortranarray(data), band_origin=-3)
        save_cube(cube, tmp_path / "fast.fdc")
        save_cube_tobytes(cube, tmp_path / "oracle.fdc")
        assert (tmp_path / "fast.fdc").read_bytes() == \
            (tmp_path / "oracle.fdc").read_bytes()

    def test_hand_written_fixture(self, tmp_path):
        # independent byte-level construction of a 2x2x3 cube
        path = tmp_path / "hand.fdc"
        values = [float(i) for i in range(12)]
        with open(path, "wb") as fh:
            fh.write(b"FDC1")
            fh.write(struct.pack("<IIIIi", 2, 2, 3, 0, -4))
            for v in values:
                fh.write(struct.pack("<d", v))
        cube = load_cube(path)
        assert cube.shape == (2, 2, 3)
        assert cube.band_origin == -4
        assert cube.data[0, 0, 2] == 2.0
        assert cube.data[1, 0, 0] == 6.0   # row-major, band fastest
        assert cube.data[1, 1, 1] == 10.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fdc"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            load_cube(path)

    @pytest.mark.parametrize("block", ["header", "data", "variance"])
    def test_truncated_file_fails_closed(self, rng, tmp_path, block):
        cube = random_cube(rng, variance=True)
        path = tmp_path / "cube.fdc"
        save_cube(cube, path)
        raw = path.read_bytes()
        # cut 9 bytes before the end of the named block
        end = {"header": 24, "data": 24 + 8 * cube.data.size,
               "variance": len(raw)}[block]
        path.write_bytes(raw[:end - 9])
        with pytest.raises(DataError, match=f"truncated {block}"):
            load_cube(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        cube = random_cube(rng)
        path = tmp_path / "cube.fdc"
        save_cube(cube, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(DataError, match="trailing"):
            load_cube(path)

    @settings(max_examples=200, deadline=None)
    @given(case=windowed_cubes())
    def test_window_load_equals_whole_load_then_extract(
            self, tmp_path_factory, case):
        cube, window = case
        path = tmp_path_factory.mktemp("window") / "cube.fdc"
        save_cube(cube, path)
        expected = extract(load_cube(path), window)
        got = load_cube(path, window)
        assert got.band_origin == expected.band_origin
        assert got.shape == expected.shape
        assert got.data.tobytes() == expected.data.tobytes()
        if cube.variance is None:
            assert got.variance is None
        else:
            assert got.variance.tobytes() == expected.variance.tobytes()
        # only copies leave the file map, so the file can be rewritten
        for block in (got.data, got.variance):
            assert block is None or block.base is None

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("edge", ["start", "stop"])
    def test_window_outside_cube(self, rng, tmp_path, axis, edge):
        cube = random_cube(rng, variance=True)
        path = tmp_path / "cube.fdc"
        save_cube(cube, path)
        window = [slice(0, n) for n in cube.shape]
        n = cube.shape[axis]
        window[axis] = slice(-1, n) if edge == "start" else slice(0, n + 1)
        with pytest.raises(DataError, match="window outside cube"):
            load_cube(path, tuple(window))

    def test_window_checks_only_the_window(self, rng, tmp_path):
        cube = random_cube(rng, shape=(6, 5, 4), variance=True)
        data, var = cube.data.copy(), cube.variance.copy()
        data[0, 0, 1] = np.nan         # a partially NaN pixel
        var[5, 4, 3] = 0.0             # an invalid variance
        path = tmp_path / "cube.fdc"
        path.write_bytes(b"FDC1" + struct.pack("<IIIIi", 6, 5, 4, 1, 0)
                         + data.tobytes() + var.tobytes())
        for window, message in [(None, "strictly positive"),
                                ((slice(0, 2), slice(0, 2), slice(0, 4)),
                                 "masked"),
                                ((slice(5, 6), slice(4, 5), slice(3, 4)),
                                 "strictly positive")]:
            with pytest.raises(DataError, match=message):
                load_cube(path, window)
        # outside the window nothing is read or checked: the other pixels,
        # or the same pixels over bands that hold no bad value
        for window in [(slice(1, 6), slice(0, 4), slice(0, 4)),
                       (slice(0, 6), slice(0, 5), slice(2, 3))]:
            got = load_cube(path, window)
            assert np.array_equal(got.data, data[window])
            assert np.array_equal(got.variance, var[window])

    def test_partial_nan_policy(self, rng, tmp_path):
        cube = random_cube(rng)
        data = cube.data.copy()
        data[0, 0, 1] = np.nan
        path = tmp_path / "cube.fdc"
        save_cube(Cube(data=data), path)
        with pytest.raises(DataError, match="masked"):
            load_cube(path)


class TestCsvDirIO:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        cube = random_cube(rng, variance=True)
        d = tmp_path / "cubedir"
        save_cube_csvdir(cube, d)
        back = load_cube_csvdir(d)
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.variance, cube.variance)
        assert back.band_origin == 7

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DataError):
            load_cube_csvdir(tmp_path)

    def test_missing_band_names_the_file(self, rng, tmp_path):
        save_cube_csvdir(random_cube(rng), tmp_path)
        (tmp_path / "band0002.csv").unlink()
        with pytest.raises(DataError, match="cannot read .*band0002.csv"):
            load_cube_csvdir(tmp_path)


class TestPreprocess:
    def test_standardizes_bands(self, rng):
        data = 3.0 + 2.5 * rng.standard_normal((80, 80, 5))
        out = preprocess(Cube(data=data), use_variance=False)
        for b in range(5):
            band = out.data[:, :, b]
            assert abs(np.median(band)) < 1e-12
            assert 1.4826 * np.median(np.abs(band)) == pytest.approx(1.0,
                                                                     rel=0.05)

    def test_variance_reduction(self, rng):
        var = np.full((40, 40, 3), 4.0)
        data = 2.0 * rng.standard_normal((40, 40, 3))
        out = preprocess(Cube(data=data, variance=var))
        assert np.std(out.data) == pytest.approx(1.0 / 1.4826 / 0.6745,
                                                 rel=0.2)

    def test_variance_required(self, rng):
        with pytest.raises(DataError, match="variance"):
            preprocess(Cube(data=rng.standard_normal((4, 4, 3))))

    def test_delta_kernel_is_identity(self, rng):
        data = rng.standard_normal((30, 30, 4))
        base = preprocess(Cube(data=data), use_variance=False)
        delta = preprocess(Cube(data=data), use_variance=False,
                           fsf=FsfKernel(np.array([[1.0]])))
        assert np.allclose(base.data, delta.data, atol=1e-12)

    def test_uniform_fsf_reduces_variance(self, rng):
        data = rng.standard_normal((120, 120, 3))
        fsf = FsfKernel(np.ones((3, 3)))
        plain = preprocess(Cube(data=data), use_variance=False)
        # convolve the standardized cube directly to watch the variance drop
        from scipy import ndimage
        sm = ndimage.convolve(plain.data, fsf.weights[:, :, None],
                              mode="reflect")
        assert np.var(sm) == pytest.approx(np.var(plain.data) / 9.0, rel=0.1)

    def test_degenerate_band(self):
        data = np.zeros((5, 5, 2))
        data[:, :, 0] = 1.0
        with pytest.raises(DataError, match="degenerate band"):
            preprocess(Cube(data=data), use_variance=False)

    def test_baseline_subtraction_removes_continuum(self, rng):
        bands = np.arange(60, dtype=float)
        continuum = 5.0 + 0.05 * bands
        data = continuum[None, None, :] + 0.5 * rng.standard_normal(
            (20, 20, 60))
        out = preprocess(Cube(data=data), use_variance=False,
                         baseline_window=21)
        # a slowly varying continuum is killed by the running median;
        # without the subtraction the centered interior bands would still
        # carry the offset spread across bands
        assert abs(np.mean(out.data[:, :, 25:35])) < 0.15

    def test_masked_pixels_preserved(self, rng):
        cube = random_cube(rng, shape=(10, 10, 4), mask_pixel=(3, 3))
        out = preprocess(cube, use_variance=False,
                         fsf=FsfKernel(np.ones((3, 3))))
        assert np.isnan(out.data[3, 3]).all()
        assert masked_spectra(out.data)[3, 3]
        assert masked_spectra(out.data).sum() == 1

    @pytest.mark.parametrize("kwargs, bound", [
        ({"fsf": gaussian_fsf(1.0)}, 2.5),
        ({}, 2.5),
        ({"use_variance": False}, 2.5),
        ({"fsf": gaussian_fsf(1.0), "baseline_window": 5}, 3.5),
    ], ids=["variance-kernel", "variance", "plain", "baseline-kernel"])
    def test_peak_memory_in_cube_sizes(self, rng, kwargs, bound):
        # measured peaks: 2.13, 2.08, 2.00 and 3.09 cube sizes (the band-
        # major copy, its C-order copy and the convolution's output, with
        # the baseline's cube before them).  The first, the CLI's
        # `preprocess --fsf`, was 3.05 before the band-major copy.
        from scipy import ndimage  # noqa: F401  (its import is not counted)
        cube = random_cube(rng, shape=(120, 100, 20), variance=True,
                           mask_pixel=(5, 5))
        tracemalloc.start()
        try:
            preprocess(cube, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * cube.data.nbytes, peak / cube.data.nbytes

    def test_symmetry_preserved(self, rng):
        # preprocessing keeps symmetric noise symmetric: sign balance and
        # mirrored quantiles around the (zero) median
        data = rng.standard_t(5.0, size=(100, 100, 3))
        out = preprocess(Cube(data=data), use_variance=False,
                         fsf=FsfKernel(np.ones((3, 3))))
        for b in range(3):
            band = out.data[:, :, b].ravel()
            assert abs(np.mean(band > 0) - 0.5) < 4 * np.sqrt(0.25 / 10000)
            assert abs(np.quantile(band, 0.95)
                       + np.quantile(band, 0.05)) < 0.08


class TestExactMedians:
    """`preprocess`'s medians are exact order statistics equal in value to
    `np.nanmedian`'s; only the sign of a zero median may differ, and then
    only the sign of zeros in the output."""

    @settings(max_examples=1000, deadline=None)
    @given(values=st.lists(st.one_of(
        st.sampled_from([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, np.nan]),
        st.floats(allow_nan=True)), max_size=40))
    def test_nanmedian_equals_numpy(self, values):
        self.check_nanmedian(np.array(values, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 5000), seed=st.integers(0, 2 ** 32 - 1))
    def test_nanmedian_equals_numpy_on_long_quantised(self, size, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-3, 4, size) * rng.choice([-0.5, 0.5], size)
        values[rng.random(size) < rng.random()] = np.nan
        self.check_nanmedian(values)

    @staticmethod
    def check_nanmedian(values):
        # both warn alike on inf - inf or an overflowing middle pair
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.nanmedian(values)
            got = _nanmedian(values)
        # the sign rule: equal bits, except that a zero may differ in sign
        assert equal_up_to_zero_sign(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(case=masked_cubes(), use_variance=st.booleans(),
           layout=st.sampled_from(["C", "F", "strided"]),
           baseline=st.sampled_from([None, 3, 5]),
           fsf=st.sampled_from([None, "uniform", "gaussian"]),
           infinite=st.integers(0, 4))
    def test_preprocess_equals_nanmedian_form(self, case, use_variance,
                                              layout, baseline, fsf,
                                              infinite):
        # the band-major standardization against the band-by-band form,
        # whatever the input layout, with the baseline and kernel steps as
        # the earlier code ran them around it; now and then one voxel is
        # infinite in data and variance alike, so inf/inf makes a NaN in
        # an unmasked pixel that the kernel step must zero-fill
        data, var = case
        use_variance = use_variance and var is not None
        if infinite == 0 and var is not None \
                and not np.isnan(data[0, 0]).any():
            data[0, 0, 0] = var[0, 0, 0] = np.inf
        blocks = [data, var]
        for k, block in enumerate(blocks):
            if block is not None and layout == "F":
                blocks[k] = np.asfortranarray(block)
            elif block is not None and layout == "strided":
                wide = np.zeros((block.shape[0], 2 * block.shape[1],
                                 block.shape[2] + 1))
                wide[:, ::2, 1:] = block
                blocks[k] = wide[:, ::2, 1:]
        cube = Cube(data=blocks[0], variance=blocks[1])
        before = [b.tobytes() for b in blocks if b is not None]
        kernel = {None: None, "uniform": FsfKernel(np.ones((3, 3))),
                  "gaussian": gaussian_fsf(1.0)}[fsf]
        with np.errstate(invalid="ignore"):     # inf/inf, inf - inf
            try:
                expected = preprocess_where_fill(cube, use_variance, baseline,
                                                kernel)
            except DataError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    preprocess(cube, kernel, baseline, use_variance)
                return
            got = preprocess(cube, kernel, baseline, use_variance).data
        assert equal_up_to_zero_sign(got, expected)
        assert got.flags.c_contiguous
        assert [b.tobytes() for b in blocks if b is not None] == before

    def test_all_masked_band_raises_without_warning(self):
        # pytest turns warnings into errors: numpy's "All-NaN slice"
        # RuntimeWarning would fail this before the DataError
        data = np.full((3, 4, 2), np.nan)
        with pytest.raises(DataError, match="degenerate band 0"):
            preprocess(Cube(data=data), use_variance=False)


class TestFsfKernel:
    def test_normalized_to_unit_sum(self):
        k = FsfKernel(np.ones((3, 3)))
        assert k.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rotation_symmetry_required(self):
        w = np.zeros((3, 3))
        w[0, 0] = 1.0
        with pytest.raises(DataError, match="symmetric"):
            FsfKernel(w)

    def test_gaussian_fsf(self):
        k = gaussian_fsf(1.2)
        assert k.weights.shape == (5, 5)
        assert k.weights[2, 2] == k.weights.max()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_gaussian_sigma_must_be_positive_finite(self, sigma):
        with pytest.raises(DataError, match="sigma"):
            gaussian_fsf(sigma)


class TestRegions:
    def test_window_outside_cube(self, rng):
        cube = random_cube(rng, shape=(30, 30, 40))
        region = RegionSpec(center_y=5, center_x=15, center_band=20,
                            half_width=10, half_bands=10, fit_half_width=12)
        with pytest.raises(DataError, match="outside"):
            extract(cube, region.box(region.half_width))

    def test_nesting_validated(self):
        with pytest.raises(DataError):
            RegionSpec(center_y=0, center_x=0, center_band=0, half_width=10,
                       half_bands=5, fit_half_width=5)

    def test_extract_band_origin(self, rng):
        cube = random_cube(rng, shape=(30, 30, 40))
        region = RegionSpec(center_y=15, center_x=15, center_band=20,
                            half_width=5, half_bands=10, fit_half_width=15)
        sub = extract(cube, region.box(region.half_width))
        assert sub.shape == (10, 10, 20)
        assert sub.band_origin == 7 + 10


class TestEstimateReference:
    def test_noiseless_single_pixel_exact(self, line_dictionary):
        line = line_dictionary.atoms[7]
        data = np.zeros((60, 60, 30))
        data[30, 30, :] = 4.0 * line
        region = RegionSpec(center_y=30, center_x=30, center_band=15,
                            half_width=10, half_bands=15, fit_half_width=25)
        ref, _ = estimate_reference(Cube(data=data), region,
                                    n_center_pixels=1)
        assert np.allclose(ref.values, line, atol=1e-12)

    def test_injection_recovers_line_shape(self, gauss_reference, rng):
        line = gauss_reference.values
        noise = rng.standard_normal((60, 60, 30)) * 0.05
        data = noise.copy()
        for dy, dx in ((0, 0), (0, 1), (1, 0), (0, -1), (-1, 0)):
            data[30 + dy, 30 + dx, :] += 2.0 * line
        region = RegionSpec(center_y=30, center_x=30, center_band=15,
                            half_width=10, half_bands=15, fit_half_width=25)
        ref, _ = estimate_reference(Cube(data=data), region,
                                    n_center_pixels=5)
        cos = float(ref.values @ line)
        assert cos > 0.99

    def test_tie_break_row_major(self):
        data = np.ones((10, 10, 30))
        region = RegionSpec(center_y=5, center_x=5, center_band=15,
                            half_width=4, half_bands=15, fit_half_width=5)
        # all pixels equal: the reference is still deterministic
        r1, m1 = estimate_reference(Cube(data=data), region,
                                    n_center_pixels=5)
        r2, m2 = estimate_reference(Cube(data=data), region,
                                    n_center_pixels=5)
        assert np.array_equal(r1.values, r2.values)
        # the first five pixels in row-major order
        assert np.array_equal(np.flatnonzero(m1), np.arange(5))
        assert np.array_equal(m1, m2)

    def test_more_center_pixels_than_the_window_holds(self):
        # the 8x8 test window holds 64 pixels: all may be averaged, not 65
        data = np.ones((10, 10, 30))
        region = RegionSpec(center_y=5, center_x=5, center_band=15,
                            half_width=4, half_bands=15, fit_half_width=5)
        _, mask = estimate_reference(Cube(data=data), region,
                                     n_center_pixels=64)
        assert mask.all()
        with pytest.raises(DataError, match="test window holds"):
            estimate_reference(Cube(data=data), region, n_center_pixels=65)


def synthetic_halo_cube(line_dictionary, seed, amplitude=1.2):
    """Noise cube with a bright core and a weaker extended halo injected on
    the central dictionary atom."""
    cfg = SimConfig(n_y=240, n_x=240, noise=NoiseSpec("gaussian"),
                    dictionary=line_dictionary, pi0=1.0, seed=seed)
    cube, _ = generate(cfg)
    data = cube.data.copy()
    line = line_dictionary.atoms[7]
    from shiftdetect.simulate import disk_mask
    halo = disk_mask((240, 240), (120, 120), 150)
    core = disk_mask((240, 240), (120, 120), 9)
    data[halo] += amplitude * line
    data[core] += 6.0 * line
    return Cube(data=data), halo | core


class TestRunDetection:
    def test_nested_levels_and_maps(self, line_dictionary):
        cube, support = synthetic_halo_cube(line_dictionary, seed=17,
                                            amplitude=1.5)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=25, half_bands=15, fit_half_width=100)
        out = run_detection(cube, region, q=0.2)
        maps = out.maps
        prev = maps["detected_q0.05"]
        for level in (0.1, 0.2, 0.4):
            cur = maps[f"detected_q{level:g}"]
            assert np.all(cur | ~prev)
            prev = cur
        assert maps["pvalue"].shape == (50, 50)
        # detection at 0.2 matches the level map
        assert np.array_equal(maps["detected"], maps["detected_q0.2"])

    def test_recovers_injected_halo(self, line_dictionary):
        fdps, powers = [], []
        for seed in range(4):
            cube, support = synthetic_halo_cube(line_dictionary, seed=40 + seed,
                                                amplitude=3.5)
            region = RegionSpec(center_y=120, center_x=120, center_band=15,
                                half_width=25, half_bands=15,
                                fit_half_width=100)
            out = run_detection(cube, region, q=0.2)
            det = out.maps["detected"]
            sup = support[95:145, 95:145]
            hits = det & sup
            false = det & ~sup
            r = det.sum()
            fdps.append(false.sum() / max(r, 1))
            powers.append(hits.sum() / sup.sum())
        assert np.mean(fdps) <= 0.25
        assert np.mean(powers) > 0.5

    def test_noise_only_region_near_empty(self, line_dictionary):
        cfg = SimConfig(n_y=240, n_x=240, noise=NoiseSpec("gaussian"),
                        dictionary=line_dictionary, pi0=1.0, seed=91)
        cube, _ = generate(cfg)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=25, half_bands=15, fit_half_width=100)
        out = run_detection(cube, region, q=0.2)
        assert np.count_nonzero(out.maps["detected"]) <= 3

    def test_decisions_depend_on_fit_only_through_model(self,
                                                        line_dictionary,
                                                        tmp_path):
        cube, _ = synthetic_halo_cube(line_dictionary, seed=55)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=25, half_bands=15, fit_half_width=100)
        out = run_detection(cube, region, q=0.2)
        path = tmp_path / "model.csv"
        out.model.save_csv(path)
        again = run_detection(cube, region, q=0.2,
                              dictionary=out.dictionary,
                              model=NullModel.load_csv(path))
        assert np.array_equal(again.maps["detected"], out.maps["detected"])
        assert np.array_equal(again.result.pvalues, out.result.pvalues)

    def test_custom_dict_params(self, line_dictionary):
        cube, _ = synthetic_halo_cube(line_dictionary, seed=60)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=20, half_bands=15, fit_half_width=80)
        out = run_detection(cube, region,
                            DictionaryParams(m=5, tau=4.0), q=0.1)
        assert out.dictionary.m == 5

    def test_reference_pixels_flagged(self, line_dictionary):
        cube, _ = synthetic_halo_cube(line_dictionary, seed=62)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=25, half_bands=15, fit_half_width=100)
        out = run_detection(cube, region, q=0.2)
        flags = out.maps["reference_pixels"]
        assert flags.sum() == DictionaryParams().n_center_pixels
        # the flagged pixels are the ones averaged into the reference
        ref, averaged = estimate_reference(cube, region)
        assert np.array_equal(flags, averaged)
        assert np.array_equal(out.dictionary.reference.values, ref.values)
        spectra = extract(cube, region.box(region.half_width)).data[flags]
        mean = spectra.mean(axis=0)
        assert np.allclose(ref.values, mean / np.linalg.norm(mean),
                           atol=1e-12)
        # the reference pixels sit on the bright core at the window center
        rows, cols = np.nonzero(flags)
        assert np.all(np.abs(rows - 25) <= 3)
        assert np.all(np.abs(cols - 25) <= 3)
        # supplied-dictionary runs have no estimation step to flag
        again = run_detection(cube, region, q=0.2,
                              dictionary=out.dictionary, model=out.model)
        assert "reference_pixels" not in again.maps


class TestMaskedTestPixels:
    REGION = RegionSpec(center_y=20, center_x=20, center_band=15,
                        half_width=8, half_bands=15, fit_half_width=20)

    @settings(max_examples=25, deadline=None)
    @given(masked=hnp.arrays(np.bool_, (16, 16)),
           level=st.floats(0.0, 1.0, exclude_max=True))
    def test_masked_pixels_are_left_out(self, line_dictionary, masked,
                                        level):
        # a supplied dictionary and model: masking in the test window
        # changes nothing but which pixels are tested
        cube, _ = generate(SimConfig(
            n_y=40, n_x=40, noise=NoiseSpec("gaussian"),
            dictionary=line_dictionary, pi0=0.8, amplitude_range=(2.0, 5.0),
            seed=3, signal_atom=7))
        _, model, _ = fit_region(cube, self.REGION,
                                 dictionary=line_dictionary)
        plain = run_detection(cube, self.REGION, dictionary=line_dictionary,
                              model=model)
        data = cube.data.copy()
        data[12:28, 12:28][masked] = np.nan
        out = run_detection(Cube(data=data), self.REGION,
                            dictionary=line_dictionary, model=model)

        decisions = [v for v in out.maps.values() if v.dtype == bool]
        assert len(decisions) == 1 + 4     # `detected` and the overlays
        for name, values in out.maps.items():
            if values.dtype == bool:
                assert not values[masked].any(), name
            else:
                assert np.isnan(values[masked]).all(), name
                assert not np.isnan(values[~masked]).any(), name
        assert out.field.n == np.count_nonzero(~masked)
        assert not out.field.to_map(out.result.detected_at(level))[
            masked].any()
        # close, not equal: the scoring product of the masked run has
        # fewer rows, and BLAS may sum its entries in another order
        for stat in ("tmax", "tmin"):
            got = out.field.to_map(getattr(out.field, stat))[~masked]
            want = plain.field.to_map(getattr(plain.field, stat))[~masked]
            assert np.allclose(got, want, rtol=0, atol=1e-12), stat


class TestMapOutput:
    def test_write_maps_and_pgm(self, line_dictionary, tmp_path):
        cube, _ = synthetic_halo_cube(line_dictionary, seed=77)
        region = RegionSpec(center_y=120, center_x=120, center_band=15,
                            half_width=15, half_bands=15, fit_half_width=60)
        out = run_detection(cube, region, q=0.2)
        write_maps(out, tmp_path, prefix="halo")
        pgm = tmp_path / "halo_pvalue.pgm"
        csv = tmp_path / "halo_qvalue.csv"
        assert pgm.exists() and csv.exists()
        header = pgm.read_bytes()[:15]
        assert header.startswith(b"P5\n30 30\n255\n")
        grid = np.loadtxt(csv, delimiter=",")
        assert grid.shape == (30, 30)

    @settings(max_examples=100, deadline=None)
    @given(grid=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2,
                                                        max_dims=2,
                                                        max_side=6),
                           elements=st.floats(width=64)))
    def test_csv_bytes_equal_savetxt(self, tmp_path_factory, grid):
        # NaN cells (untested pixels), infinities, signed zeros, subnormals
        # and boolean maps all print as np.savetxt prints them, in the maps
        # and in the bands of a CSV-per-band cube
        root = tmp_path_factory.mktemp("maps")
        maps = {"pvalue": grid, "detected": ~np.isnan(grid) & (grid > 0)}
        write_maps(SimpleNamespace(maps=maps), root)
        for name, values in maps.items():
            np.savetxt(root / f"{name}.csv", values.astype(float),
                       fmt="%.17g", delimiter=",")
            assert (root / f"map_{name}.csv").read_bytes() == \
                (root / f"{name}.csv").read_bytes()
        # the cube's bands are the grid and its negation
        bands = np.stack([grid, -grid], axis=2)
        save_cube_csvdir(Cube(data=bands), root / "cube")
        for b in range(2):
            np.savetxt(root / f"band{b}.csv", bands[:, :, b], fmt="%.17g",
                       delimiter=",")
            assert (root / "cube" / f"band{b:04d}.csv").read_bytes() == \
                (root / f"band{b}.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(grid=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  max_side=40)),
           transpose=st.booleans())
    def test_bool_grid_bytes_equal_formatted_grid(self, tmp_path_factory,
                                                  grid, transpose):
        # the 0/1 digits of a boolean map are the %.17g text of 0.0 and 1.0
        grid = grid.T if transpose else grid
        root = tmp_path_factory.mktemp("grid")
        _write_grid(root / "bool.csv", grid)
        _write_grid(root / "float.csv", grid.astype(float))
        assert (root / "bool.csv").read_bytes() == \
            (root / "float.csv").read_bytes()

    def test_pgm_handles_nan(self, tmp_path):
        arr = np.array([[0.0, np.nan], [0.5, 1.0]])
        path = tmp_path / "m.pgm"
        write_pgm(path, arr)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert len(raw) == len(b"P5\n2 2\n255\n") + 4

    def test_pgm_spans_full_double_range(self, tmp_path):
        # hi - lo overflows a double; the preview still runs black to white
        big = np.finfo(float).max
        path = tmp_path / "m.pgm"
        write_pgm(path, np.array([[-big, 0.0, big, np.inf]]))
        assert path.read_bytes()[-4:] == bytes([0, 128, 255, 0])

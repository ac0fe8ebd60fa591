"""Baseline tests: ISS kernels vs golden models, fitted cycle models, multicore."""

import numpy as np
import pytest

from repro.baselines.models import (
    fit_conv_model,
    pulp_conv_layer_cycles,
    scalar_conv_layer_cycles,
)
from repro.baselines.multicore import (
    DEFAULT_ALPHA,
    PAPER_MULTICORE_PEAK,
    MulticoreModel,
)
from repro.baselines.pulp_kernels import pad_filters, padded_k, run_pulp_conv_layer, simd_width
from repro.baselines.reference import ref_conv_layer, ref_maxpool
from repro.baselines.scalar_kernels import ConvLayerShape, run_scalar_conv_layer


def workload(rng, size, k, dtype):
    x = rng.integers(-8, 8, (3 * size, size)).astype(dtype)
    f = rng.integers(-2, 3, (3 * k, k)).astype(dtype)
    return x, f


def brute_maxpool(x, window, stride):
    """Max pooling as a loop over output elements (floor, no padding)."""
    out_rows = (x.shape[0] - window) // stride + 1
    out_cols = (x.shape[1] - window) // stride + 1
    out = np.empty((out_rows, out_cols), dtype=x.dtype)
    for i in range(out_rows):
        for j in range(out_cols):
            out[i, j] = x[i * stride : i * stride + window, j * stride : j * stride + window].max()
    return out


class TestRefMaxpool:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    @pytest.mark.parametrize(
        "shape, window, stride",
        [((7, 9), 2, 2), ((7, 9), 3, 2), ((8, 11), 2, 3), ((5, 5), 5, 1),
         ((9, 4), 1, 2), ((13, 6), 3, 1), ((1, 17), 1, 4)],
    )
    def test_matches_brute_force(self, rng, dtype, shape, window, stride):
        info = np.iinfo(dtype)
        pool = np.array([info.min, info.max, -1, 0, 1], dtype=dtype)
        for x in (rng.choice(pool, size=shape), rng.integers(-8, 8, shape).astype(dtype)):
            got = ref_maxpool(x, window, stride)
            assert got.dtype == x.dtype
            assert np.array_equal(got, brute_maxpool(x, window, stride))


class TestConvLayerShape:
    def test_derived_shapes(self):
        shape = ConvLayerShape(height=16, width=20, k=3)
        assert shape.conv_rows == 14 and shape.conv_cols == 18
        assert shape.out_shape == (7, 9)
        assert shape.macs == 14 * 18 * 3 * 9


class TestScalarBaseline:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_matches_golden(self, rng, dtype):
        x, f = workload(rng, 10, 3, dtype)
        out, cycles = run_scalar_conv_layer(x, f)
        assert np.array_equal(out, ref_conv_layer(x, f))
        assert cycles > 0

    def test_k5_matches_golden(self, rng):
        x, f = workload(rng, 14, 5, np.int8)
        out, _ = run_scalar_conv_layer(x, f)
        assert np.array_equal(out, ref_conv_layer(x, f))

    def test_cycles_scale_with_macs(self, rng):
        x1, f1 = workload(rng, 10, 3, np.int32)
        x2, f2 = workload(rng, 14, 3, np.int32)
        _, c1 = run_scalar_conv_layer(x1, f1)
        _, c2 = run_scalar_conv_layer(x2, f2)
        macs1 = ConvLayerShape(10, 10, 3).macs
        macs2 = ConvLayerShape(14, 14, 3).macs
        assert c2 > c1
        # per-MAC cost roughly constant (within 25%)
        assert abs(c1 / macs1 - c2 / macs2) / (c1 / macs1) < 0.25


class TestPulpBaseline:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_matches_golden(self, rng, dtype):
        x, f = workload(rng, 12, 3, dtype)
        out, _ = run_pulp_conv_layer(x, f)
        assert np.array_equal(out, ref_conv_layer(x, f))

    def test_k7_matches_golden(self, rng):
        x, f = workload(rng, 18, 7, np.int8)
        out, _ = run_pulp_conv_layer(x, f)
        assert np.array_equal(out, ref_conv_layer(x, f))

    def test_pulp_beats_scalar(self, rng):
        x, f = workload(rng, 16, 5, np.int8)
        _, scalar = run_scalar_conv_layer(x, f)
        _, pulp = run_pulp_conv_layer(x, f)
        assert pulp < scalar

    def test_int8_beats_int32(self, rng):
        """Packed SIMD: 4x int8 MACs per op must beat the cv.mac fallback."""
        x8, f8 = workload(rng, 16, 3, np.int8)
        x32, f32 = workload(rng, 16, 3, np.int32)
        _, c8 = run_pulp_conv_layer(x8, f8)
        _, c32 = run_pulp_conv_layer(x32, f32)
        assert c8 < c32

    def test_padding_helpers(self):
        assert simd_width(1) == 4 and simd_width(2) == 2 and simd_width(4) == 1
        assert padded_k(3, 1) == 4 and padded_k(5, 1) == 8
        assert padded_k(3, 2) == 4 and padded_k(4, 2) == 4
        filters = np.arange(9, dtype=np.int8).reshape(3, 3)
        padded = pad_filters(filters, 1)
        assert padded.shape == (3, 4)
        assert np.all(padded[:, 3] == 0)


class TestFittedModels:
    @pytest.mark.parametrize("arch", ["scalar", "pulp"])
    def test_calibration_residual_small(self, arch):
        model = fit_conv_model(arch, 1)
        assert model.residual_rel < 0.01  # linear structure => near-exact fit

    def test_heldout_prediction_accurate(self, rng):
        shape = ConvLayerShape(22, 18, 3)
        x, f = workload(rng, 0, 0, np.int8) if False else (None, None)
        image = rng.integers(-8, 8, (3 * 22, 18)).astype(np.int8)
        filters = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        _, actual = run_scalar_conv_layer(image, filters)
        predicted = scalar_conv_layer_cycles(
            ConvLayerShape(height=22, width=18, k=3), 1
        )
        assert abs(predicted - actual) / actual < 0.02

    def test_models_cached(self):
        assert fit_conv_model("scalar", 1) is fit_conv_model("scalar", 1)

    def test_paper_scale_extrapolation_ordering(self):
        big = ConvLayerShape(256, 256, 3)
        scalar = scalar_conv_layer_cycles(big, 1)
        pulp = pulp_conv_layer_cycles(big, 1)
        assert scalar > pulp > 0
        # the paper's CV32E40PX advantage grows with filter size
        big7 = ConvLayerShape(256, 256, 7)
        ratio3 = scalar / pulp
        ratio7 = scalar_conv_layer_cycles(big7, 1) / pulp_conv_layer_cycles(big7, 1)
        assert ratio7 > ratio3

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            fit_conv_model("vliw", 1)


class TestMulticoreModel:
    def test_calibrated_to_paper_ceiling(self):
        model = MulticoreModel()
        assert model.speedup(15) == pytest.approx(PAPER_MULTICORE_PEAK, rel=0.01)

    def test_efficiency_decreases(self):
        model = MulticoreModel()
        assert model.efficiency(1) == 1.0
        assert model.efficiency(8) > model.efficiency(16)

    def test_peak_below_linear_scaling(self):
        model = MulticoreModel()
        assert model.peak(32) < 32 * model.single_core_speedup

    def test_alpha_positive(self):
        assert DEFAULT_ALPHA > 0

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            MulticoreModel().efficiency(0)

"""Correctness tests for the five Table I kernels against golden models.

Every kernel runs through the full stack (program builder -> bridge ->
decoder -> scheduler -> VPU) and must match the numpy golden models
bit-for-bit, across element types and shapes including wrap-around cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.reference import (
    ref_conv2d,
    ref_conv_layer,
    ref_gemm,
    ref_leaky_relu,
    ref_maxpool,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.xbridge.bridge import OffloadOutcome

SMALL = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

DTYPES = [np.int8, np.int16, np.int32]


def make_system() -> ArcaneSystem:
    return ArcaneSystem(SMALL)


class TestGemm:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_golden(self, rng, dtype):
        m, k, n = 5, 7, 6
        a = rng.integers(-8, 8, (m, k)).astype(dtype)
        b = rng.integers(-8, 8, (k, n)).astype(dtype)
        c = rng.integers(-8, 8, (m, n)).astype(dtype)
        system = make_system()
        ma = system.place_matrix(a)
        mb = system.place_matrix(b)
        mc = system.place_matrix(c)
        md = system.alloc_matrix((m, n), dtype)
        suffix = ma.etype.suffix
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=2, beta=-1, suffix=suffix)
        assert np.array_equal(system.read_matrix(md), ref_gemm(a, b, c, 2, -1))

    def test_beta_zero_skips_addend(self, rng):
        a = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        b = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        c = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        system = make_system()
        handles = [system.place_matrix(x) for x in (a, b, c)]
        out = system.alloc_matrix((3, 3), np.int32)
        with system.program() as prog:
            prog.xmr(0, handles[0]).xmr(1, handles[1]).xmr(2, handles[2]).xmr(3, out)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=1, beta=0)
        assert np.array_equal(system.read_matrix(out), ref_gemm(a, b, c, 1, 0))

    def test_wraparound_int8(self):
        a = np.full((2, 4), 100, dtype=np.int8)
        b = np.full((4, 2), 100, dtype=np.int8)
        c = np.zeros((2, 2), dtype=np.int8)
        system = make_system()
        ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
        md = system.alloc_matrix((2, 2), np.int8)
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=1, beta=0, suffix="b")
        assert np.array_equal(system.read_matrix(md), ref_gemm(a, b, c, 1, 0))

    def test_inner_dim_mismatch_raises(self, rng):
        a = rng.integers(-4, 4, (3, 4)).astype(np.int32)
        b = rng.integers(-4, 4, (3, 3)).astype(np.int32)
        system = make_system()
        ma, mb = system.place_matrix(a), system.place_matrix(b)
        out = system.alloc_matrix((3, 3), np.int32)
        with pytest.raises(ValueError, match="inner dims"):
            with system.program() as prog:
                prog.xmr(0, ma).xmr(1, mb).xmr(2, out).xmr(3, out)
                prog.gemm(dest=3, a=0, b=1, c=2)

    @pytest.mark.xfail(
        raises=RuntimeError, strict=True,
        reason="known defect: sharded over every VPU, a strip-mined B window "
        "claims every LLC line, so writeback has no line to fetch into",
    )
    def test_multi_vpu_strip_mined_k(self, rng):
        # K = 29 fills each VPU's 32 registers (B strip + A row + acc + C row)
        a = rng.integers(-4, 4, (4, 29)).astype(np.int32)
        b = rng.integers(-4, 4, (29, 5)).astype(np.int32)
        c = np.zeros((4, 5), dtype=np.int32)
        system = ArcaneSystem(SMALL.with_multi_vpu())
        ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
        md = system.alloc_matrix((4, 5), np.int32)
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=1, beta=0)
        assert np.array_equal(system.read_matrix(md), ref_gemm(a, b, c, 1, 0))

    def test_strip_mined_large_k(self, rng):
        # K larger than the register budget forces B re-streaming.
        a = rng.integers(-4, 4, (2, 24)).astype(np.int32)
        b = rng.integers(-4, 4, (24, 5)).astype(np.int32)
        c = np.zeros((2, 5), dtype=np.int32)
        system = make_system()
        ma, mb, mc = (system.place_matrix(x) for x in (a, b, c))
        md = system.alloc_matrix((2, 5), np.int32)
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, md)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=1, beta=0)
        assert np.array_equal(system.read_matrix(md), ref_gemm(a, b, c, 1, 0))


class TestLeakyRelu:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("alpha", [0, 2, 5])
    def test_matches_golden(self, rng, dtype, alpha):
        x = rng.integers(-100, 100, (6, 9)).astype(dtype)
        system = make_system()
        mx = system.place_matrix(x)
        out = system.alloc_matrix(x.shape, dtype)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out)
            prog.leaky_relu(dest=1, src=0, alpha=alpha, suffix=mx.etype.suffix)
        assert np.array_equal(system.read_matrix(out), ref_leaky_relu(x, alpha))

    def test_invalid_alpha_rejected(self, rng):
        x = rng.integers(-4, 4, (2, 2)).astype(np.int32)
        system = make_system()
        mx = system.place_matrix(x)
        out = system.alloc_matrix((2, 2), np.int32)
        with pytest.raises(ValueError, match="alpha"):
            with system.program() as prog:
                prog.xmr(0, mx).xmr(1, out)
                prog.leaky_relu(dest=1, src=0, alpha=40)


class TestMaxpool:
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 1), (2, 1), (3, 3)])
    def test_matches_golden(self, rng, window, stride):
        x = rng.integers(-50, 50, (9, 11)).astype(np.int16)
        expected = ref_maxpool(x, window, stride)
        system = make_system()
        mx = system.place_matrix(x)
        out = system.alloc_matrix(expected.shape, np.int16)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out)
            prog.maxpool(dest=1, src=0, window=window, stride=stride, suffix="h")
        assert np.array_equal(system.read_matrix(out), expected)

    def test_wrong_dest_shape_rejected(self, rng):
        x = rng.integers(-4, 4, (8, 8)).astype(np.int32)
        system = make_system()
        mx = system.place_matrix(x)
        out = system.alloc_matrix((8, 8), np.int32)  # should be 4x4
        with pytest.raises(ValueError, match="destination"):
            with system.program() as prog:
                prog.xmr(0, mx).xmr(1, out)
                prog.maxpool(dest=1, src=0)


class TestConv2d:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_golden(self, rng, dtype, k):
        x = rng.integers(-8, 8, (10, 12)).astype(dtype)
        f = rng.integers(-3, 4, (k, k)).astype(dtype)
        expected = ref_conv2d(x, f)
        system = make_system()
        mx, mf = system.place_matrix(x), system.place_matrix(f)
        out = system.alloc_matrix(expected.shape, dtype)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
            prog.conv2d(dest=2, src=0, flt=1, suffix=mx.etype.suffix)
        assert np.array_equal(system.read_matrix(out), expected)

    def test_zero_taps_skipped_but_correct(self, rng):
        x = rng.integers(-8, 8, (6, 6)).astype(np.int32)
        f = np.zeros((3, 3), dtype=np.int32)
        f[1, 1] = 2  # mostly-zero filter exercises the tap-skip path
        system = make_system()
        mx, mf = system.place_matrix(x), system.place_matrix(f)
        out = system.alloc_matrix((4, 4), np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
            prog.conv2d(dest=2, src=0, flt=1)
        assert np.array_equal(system.read_matrix(out), ref_conv2d(x, f))

    def test_rectangular_filter_rejected(self, rng):
        x = rng.integers(-4, 4, (6, 6)).astype(np.int32)
        f = rng.integers(-4, 4, (2, 3)).astype(np.int32)
        system = make_system()
        mx, mf = system.place_matrix(x), system.place_matrix(f)
        out = system.alloc_matrix((4, 4), np.int32)
        with pytest.raises(ValueError, match="square"):
            with system.program() as prog:
                prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
                prog.conv2d(dest=2, src=0, flt=1)


class TestConvLayer:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size,k", [(12, 3), (16, 5), (18, 7)])
    def test_matches_golden(self, rng, dtype, size, k):
        x = rng.integers(-8, 8, (3 * size, size)).astype(dtype)
        f = rng.integers(-2, 3, (3 * k, k)).astype(dtype)
        system = make_system()
        out, report = system.run_conv_layer(x, f)
        assert np.array_equal(out, ref_conv_layer(x, f))
        assert report.breakdown.total > 0

    def test_non_multiple_of_three_rejected(self, rng):
        x = rng.integers(-4, 4, (10, 8)).astype(np.int32)
        f = rng.integers(-2, 2, (9, 3)).astype(np.int32)
        system = make_system()
        with pytest.raises(ValueError, match="3"):
            system.run_conv_layer(x, f)

    def test_multi_vpu_matches_single(self, rng):
        x = rng.integers(-8, 8, (3 * 20, 20)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        single, _ = ArcaneSystem(SMALL).run_conv_layer(x, f)
        multi, report = ArcaneSystem(SMALL.with_multi_vpu()).run_conv_layer(x, f)
        assert np.array_equal(single, multi)
        assert np.array_equal(multi, ref_conv_layer(x, f))

    def test_multi_vpu_is_faster(self, rng):
        x = rng.integers(-8, 8, (3 * 32, 32)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        _, single = ArcaneSystem(SMALL).run_conv_layer(x, f)
        _, multi = ArcaneSystem(SMALL.with_multi_vpu()).run_conv_layer(x, f)
        assert multi.breakdown.cycles["compute"] < single.breakdown.cycles["compute"]


class TestUnknownKernel:
    def test_unregistered_func5_killed(self, rng):
        system = make_system()
        x = system.place_matrix(rng.integers(-4, 4, (2, 2)).astype(np.int32))
        with system.program() as prog:
            prog.xmr(0, x)
            prog.xmk(17, "w")  # nothing registered in slot 17
        report = system.last_report
        assert report.outcomes[-1] is OffloadOutcome.KILLED


@given(
    size=st.integers(min_value=8, max_value=20),
    k=st.sampled_from([3, 5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_conv_layer_property(size, k, seed):
    """Random shapes/data: ARCANE conv layer == golden model, always."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-128, 128, (3 * size, size)).astype(np.int8)
    f = rng.integers(-8, 8, (3 * k, k)).astype(np.int8)
    system = ArcaneSystem(SMALL)
    out, _ = system.run_conv_layer(x, f)
    assert np.array_equal(out, ref_conv_layer(x, f))

"""VPU tests: vector ISA semantics, lane timing, VRF views, dispatcher."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache_table import CacheTable
from repro.sim.stats import StatsRegistry
from repro.vpu.dispatcher import Dispatcher
from repro.vpu.visa import ElementType, VectorOp, VectorOpcode
from repro.vpu.vpu import Vpu
from repro.vpu.vrf import VectorRegisterFile


def make_vpu(lanes=4, vregs=8, line_bytes=256) -> Vpu:
    ct = CacheTable(1, vregs, line_bytes)
    return Vpu(0, VectorRegisterFile(ct.vpu_lines(0)), lanes=lanes)


class TestElementType:
    def test_suffix_mapping(self):
        assert ElementType.from_suffix("b") is ElementType.B
        assert ElementType.from_suffix("w").nbytes == 4
        assert ElementType.from_bytes(2) is ElementType.H
        with pytest.raises(ValueError):
            ElementType.from_suffix("q")
        with pytest.raises(ValueError):
            ElementType.from_bytes(3)

    def test_subword_packing(self):
        assert ElementType.B.elems_per_word == 4
        assert ElementType.H.elems_per_word == 2
        assert ElementType.W.elems_per_word == 1


class TestVrf:
    def test_views_share_storage(self):
        vpu = make_vpu()
        view8 = vpu.vrf.view(0, ElementType.B)
        view32 = vpu.vrf.view(0, ElementType.W)
        view8[:4] = [1, 0, 0, 0]
        assert view32[0] == 1

    def test_max_vl(self):
        vpu = make_vpu(line_bytes=256)
        assert vpu.vrf.max_vl(ElementType.B) == 256
        assert vpu.vrf.max_vl(ElementType.W) == 64

    def test_write_offset_and_overflow(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([5, 6], dtype=np.int32), offset=2)
        assert vpu.vrf.view(1, ElementType.W)[2] == 5
        with pytest.raises(ValueError):
            vpu.vrf.write(1, np.zeros(65, dtype=np.int32))

    def test_bad_register_index(self):
        vpu = make_vpu(vregs=4)
        with pytest.raises(IndexError):
            vpu.vrf.view(4, ElementType.B)


class TestSemantics:
    def test_vclear(self):
        vpu = make_vpu()
        vpu.vrf.fill(0, 77, ElementType.W)
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=10))
        assert np.all(vpu.vrf.view(0, ElementType.W)[:10] == 0)
        assert vpu.vrf.view(0, ElementType.W)[10] == 77  # beyond vl untouched

    def test_vmacc_vs(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(8, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=8))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1,
                             scalar=3, vl=8))
        assert np.array_equal(vpu.vrf.view(0, ElementType.W)[:8],
                              3 * np.arange(8, dtype=np.int32))

    def test_vmacc_wraps_in_element_width(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([100], dtype=np.int8))
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.B, vd=0, vl=1))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1,
                             scalar=2, vl=1))
        assert vpu.vrf.view(0, ElementType.B)[0] == np.int64(200).astype(np.int8)

    def test_offset_and_stride_gather(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(16, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1,
                             vl=4, offset=1, stride=3))
        assert list(vpu.vrf.view(0, ElementType.W)[:4]) == [1, 4, 7, 10]

    def test_vmax_vv_accumulates_into_vd(self):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array([5, -2, 0, 9], dtype=np.int32))
        vpu.vrf.write(1, np.array([3, 4, -1, 20], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMAX_VV, ElementType.W, vd=0, vs1=1, vl=4))
        assert list(vpu.vrf.view(0, ElementType.W)[:4]) == [5, 4, 0, 20]

    def test_vmax_vmin_vs(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([-3, 2], dtype=np.int16))
        vpu.execute(VectorOp(VectorOpcode.VMAX_VS, ElementType.H, vd=0, vs1=1,
                             scalar=0, vl=2))
        assert list(vpu.vrf.view(0, ElementType.H)[:2]) == [0, 2]
        vpu.execute(VectorOp(VectorOpcode.VMIN_VS, ElementType.H, vd=2, vs1=1,
                             scalar=0, vl=2))
        assert list(vpu.vrf.view(2, ElementType.H)[:2]) == [-3, 0]

    def test_vsra(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([-8, 8], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VSRA_VS, ElementType.W, vd=0, vs1=1,
                             scalar=2, vl=2))
        assert list(vpu.vrf.view(0, ElementType.W)[:2]) == [-2, 2]

    def test_vredsum(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.arange(10, dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VREDSUM, ElementType.W, vd=0, vs1=1, vl=10))
        assert vpu.vrf.view(0, ElementType.W)[0] == 45

    def test_vadd_vv(self):
        vpu = make_vpu()
        vpu.vrf.write(1, np.array([1, 2], dtype=np.int32))
        vpu.vrf.write(2, np.array([10, 20], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VADD_VV, ElementType.W, vd=0, vs1=1,
                             vs2=2, vl=2))
        assert list(vpu.vrf.view(0, ElementType.W)[:2]) == [11, 22]

    def test_vd_offset(self):
        vpu = make_vpu()
        vpu.vrf.fill(0, 9, ElementType.W)
        vpu.vrf.write(1, np.array([1], dtype=np.int32))
        vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1, vl=1,
                             vd_offset=5))
        view = vpu.vrf.view(0, ElementType.W)
        assert view[5] == 1 and view[4] == 9

    def test_source_overflow_rejected(self):
        vpu = make_vpu(line_bytes=64)
        with pytest.raises(ValueError):
            vpu.execute(VectorOp(VectorOpcode.VMV, ElementType.W, vd=0, vs1=1,
                                 vl=16, offset=8))

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=32),
           st.integers(-8, 8))
    @settings(max_examples=30, deadline=None)
    def test_vmacc_matches_numpy(self, values, scalar):
        vpu = make_vpu()
        data = np.array(values, dtype=np.int8)
        vpu.vrf.write(1, data)
        vpu.execute(VectorOp(VectorOpcode.VCLEAR, ElementType.B, vd=0, vl=len(values)))
        vpu.execute(VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1,
                             scalar=scalar, vl=len(values)))
        expected = (data.astype(np.int64) * scalar).astype(np.int8)
        assert np.array_equal(vpu.vrf.view(0, ElementType.B)[: len(values)], expected)


class TestTiming:
    def test_contiguous_subword_throughput(self):
        vpu = make_vpu(lanes=4)
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.B, vd=0, vs1=1, vl=64)
        # 64 int8 / (4 lanes * 4 per lane) = 4 cycles + startup
        assert vpu.op_cycles(op) == Vpu.STARTUP_CYCLES + 4

    def test_int32_throughput(self):
        vpu = make_vpu(lanes=4)
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=64)
        assert vpu.op_cycles(op) == Vpu.STARTUP_CYCLES + 16

    def test_strided_defeats_packing(self):
        vpu = make_vpu(lanes=4)
        contiguous = VectorOp(VectorOpcode.VMV, ElementType.B, vd=0, vs1=1, vl=32)
        strided = VectorOp(VectorOpcode.VMV, ElementType.B, vd=0, vs1=1, vl=32, stride=2)
        assert vpu.op_cycles(strided) > vpu.op_cycles(contiguous)

    def test_more_lanes_faster(self):
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=60)
        assert make_vpu(lanes=8).op_cycles(op) < make_vpu(lanes=2).op_cycles(op)

    def test_empty_op_costs_startup(self):
        vpu = make_vpu()
        assert vpu.op_cycles(VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=0)) \
            == Vpu.STARTUP_CYCLES


class TestDispatcher:
    def make(self, issue=10):
        ct = CacheTable(2, 4, 256)
        vpus = [Vpu(i, VectorRegisterFile(ct.vpu_lines(i)), lanes=4) for i in range(2)]
        return Dispatcher(vpus, issue_cycles=issue, stats=StatsRegistry())

    def test_claim_release_cycle(self):
        dispatcher = self.make()
        dispatcher.claim(0, kernel_id=1)
        assert dispatcher.owner(0) == 1
        assert dispatcher.free_vpus() == [1]
        with pytest.raises(RuntimeError):
            dispatcher.claim(0, kernel_id=2)
        dispatcher.release(0)
        assert dispatcher.free_vpus() == [0, 1]

    def test_dispatch_cost_is_pipelined_max(self):
        dispatcher = self.make(issue=10)
        short = VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=4)
        long = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=64)
        assert dispatcher.dispatch(0, short) == 10  # issue-bound
        vpu_cycles = dispatcher.vpu(0).op_cycles(long)
        assert vpu_cycles > 10
        assert dispatcher.dispatch(0, long) == vpu_cycles  # compute-bound

    def test_issue_bound_counter(self):
        dispatcher = self.make(issue=100)
        dispatcher.dispatch(0, VectorOp(VectorOpcode.VCLEAR, ElementType.W, vd=0, vl=4))
        assert dispatcher.stats.value("dispatch.issue_bound") == 1


class TestRedsumWrapBoundaries:
    """VREDSUM wraps its int64 total through the element dtype (the old
    ``& -1`` int64 mask was a no-op; the cast does the wrapping)."""

    @pytest.mark.parametrize(
        "etype,values,expected",
        [
            # int8: 100 + 100 = 200 -> wraps to -56
            (ElementType.B, [100, 100], -56),
            # int8: exactly the negative boundary
            (ElementType.B, [-128, -128], 0),
            # int16: 30000 + 30000 = 60000 -> wraps to -5536
            (ElementType.H, [30000, 30000], -5536),
            # int16: one past the positive boundary
            (ElementType.H, [32767, 1], -32768),
            # int32: 2**31 total wraps to the negative boundary
            (ElementType.W, [2**30, 2**30], -(2**31)),
            # int32: stays representable, no wrap
            (ElementType.W, [2**30, 2**30 - 1], 2**31 - 1),
        ],
    )
    def test_wrap_at_width_boundary(self, etype, values, expected):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array(values, dtype=etype.np_dtype))
        vpu.execute(
            VectorOp(VectorOpcode.VREDSUM, etype, vd=1, vs1=0, vl=len(values))
        )
        assert int(vpu.vrf.view(1, etype)[0]) == expected

    def test_negative_total_wraps(self):
        vpu = make_vpu()
        vpu.vrf.write(0, np.array([-100, -100, -100], dtype=np.int8))
        vpu.execute(VectorOp(VectorOpcode.VREDSUM, ElementType.B, vd=1, vs1=0, vl=3))
        # -300 mod 256 -> -44
        assert int(vpu.vrf.view(1, ElementType.B)[0]) == -44


class TestStridedGatherView:
    """The strided source path uses a slice view (no per-op index-array
    allocation) with an arithmetic bounds check."""

    def test_strided_gather_matches_manual_indexing(self):
        vpu = make_vpu()
        data = np.arange(64, dtype=np.int16)
        vpu.vrf.write(0, data)
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=10,
                     offset=3, stride=5)
        )
        assert np.array_equal(
            vpu.vrf.view(1, ElementType.H)[:10], data[3 : 3 + 5 * 10 : 5]
        )

    def test_strided_bounds_check_exact_fit(self):
        vpu = make_vpu(line_bytes=64)  # 32 int16 elements per register
        vpu.vrf.write(0, np.arange(32, dtype=np.int16))
        # last index = 1 + 10*3 = 31: legal
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=11,
                     offset=1, stride=3)
        )
        # last index = 2 + 10*3 = 32: one past the end
        with pytest.raises(ValueError, match="overflows source register"):
            vpu.execute(
                VectorOp(VectorOpcode.VMV, ElementType.H, vd=1, vs1=0, vl=11,
                         offset=2, stride=3)
            )

    def test_strided_self_move_copies_before_writing(self):
        # vs1 == vd with overlapping strided/contiguous windows: the
        # source must be snapshotted before the destination is written
        vpu = make_vpu()
        data = np.arange(16, dtype=np.int16)
        vpu.vrf.write(0, data)
        vpu.execute(
            VectorOp(VectorOpcode.VMV, ElementType.H, vd=0, vs1=0, vl=5,
                     offset=1, stride=2)
        )
        assert np.array_equal(
            vpu.vrf.view(0, ElementType.H)[:5], data[1:11:2]
        )

    def test_strided_macc_still_exact(self):
        vpu = make_vpu()
        src = np.arange(20, dtype=np.int32)
        acc = np.ones(6, dtype=np.int32)
        vpu.vrf.write(0, src)
        vpu.vrf.write(1, acc)
        vpu.execute(
            VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=1, vs1=0, vl=6,
                     scalar=7, offset=2, stride=3)
        )
        assert np.array_equal(
            vpu.vrf.view(1, ElementType.W)[:6], acc + 7 * src[2 : 2 + 3 * 6 : 3]
        )


def _int64_reference(opcode, dst, src, other, scalar, dtype):
    """Every opcode computed in int64, then truncated to the element width."""
    d, s, o = (x.astype(np.int64) for x in (dst, src, other))
    out = d.copy()
    if opcode is VectorOpcode.VCLEAR:
        out[:] = 0
    elif opcode is VectorOpcode.VMV:
        out = s
    elif opcode is VectorOpcode.VADD_VV:
        out = s + o
    elif opcode is VectorOpcode.VMUL_VV:
        out = s * o
    elif opcode is VectorOpcode.VMACC_VS:
        out = d + s * scalar
    elif opcode is VectorOpcode.VMUL_VS:
        out = s * scalar
    elif opcode is VectorOpcode.VADD_VS:
        out = s + scalar
    elif opcode is VectorOpcode.VMAX_VV:
        out = np.maximum(d, s)
    elif opcode is VectorOpcode.VMAX_VS:
        out = np.maximum(s, scalar)
    elif opcode is VectorOpcode.VMIN_VS:
        out = np.minimum(s, scalar)
    elif opcode is VectorOpcode.VSRA_VS:
        out = s >> scalar
    elif opcode is VectorOpcode.VREDSUM:
        out[0] = s.sum()
    return out.astype(dtype)


class TestSameWidthArithmetic:
    """``Vpu.execute`` computes add/mul/macc in the wrapping element dtype;
    the bits must equal the int64-then-truncate definition for every
    opcode and width, including scalars far outside the element range."""

    @pytest.mark.parametrize("etype", list(ElementType), ids=lambda e: e.suffix)
    @pytest.mark.parametrize("opcode", list(VectorOpcode), ids=lambda o: o.value)
    def test_matches_int64_reference(self, opcode, etype):
        rng = np.random.default_rng([list(VectorOpcode).index(opcode), etype.nbytes])
        dtype = etype.np_dtype
        info = np.iinfo(dtype)
        bits = 8 * etype.nbytes
        if opcode is VectorOpcode.VSRA_VS:
            scalars = [0, 1, bits - 1]
        elif opcode in (VectorOpcode.VMAX_VS, VectorOpcode.VMIN_VS):
            scalars = [info.min, -1, 0, info.max]  # these raise out of range
        else:
            scalars = [0, -1, info.max, info.min, info.max + 5,
                       info.min - 7, 2**40 + 3, -(2**45) - 1]
        vl = 37
        for scalar in scalars:
            vpu = make_vpu()
            dst, src, other = (
                rng.integers(info.min, info.max, vl, endpoint=True).astype(dtype)
                for _ in range(3)
            )
            for reg, values in enumerate((dst, src, other)):
                vpu.vrf.write(reg, values)
            vpu.execute(VectorOp(opcode, etype, vd=0, vs1=1, vs2=2, vl=vl,
                                 scalar=scalar))
            expected = _int64_reference(opcode, dst, src, other, scalar, dtype)
            assert np.array_equal(vpu.vrf.view(0, etype)[:vl], expected), scalar

    @pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("etype", list(ElementType), ids=lambda e: e.suffix)
    @pytest.mark.parametrize("opcode", list(VectorOpcode), ids=lambda o: o.value)
    def test_aliased_operands_match_int64_reference(self, opcode, etype, stride):
        """``vs1 == vd`` with source and destination windows overlapping
        in the same register: the result must be as if every source
        element were read before any destination element is written."""
        rng = np.random.default_rng([list(VectorOpcode).index(opcode), stride])
        dtype = etype.np_dtype
        info = np.iinfo(dtype)
        scalar = 3 if opcode is VectorOpcode.VSRA_VS else -5
        vl, offset, vd_offset = 13, 1, 4  # dst starts inside the source window
        vpu = make_vpu()
        register = rng.integers(info.min, info.max, vpu.vrf.max_vl(etype),
                                endpoint=True).astype(dtype)
        other = rng.integers(info.min, info.max, vl, endpoint=True).astype(dtype)
        vpu.vrf.write(0, register)
        vpu.vrf.write(2, other)
        vpu.execute(VectorOp(opcode, etype, vd=0, vs1=0, vs2=2, vl=vl,
                             scalar=scalar, offset=offset, stride=stride,
                             vd_offset=vd_offset))
        dst = register[vd_offset : vd_offset + vl]
        src = register[offset : offset + stride * (vl - 1) + 1 : stride]
        expected = register.copy()
        if opcode is VectorOpcode.VREDSUM:
            expected[vd_offset] = _int64_reference(
                opcode, dst, src, other, scalar, dtype
            )[0]
        else:
            expected[vd_offset : vd_offset + vl] = _int64_reference(
                opcode, dst, src, other, scalar, dtype
            )
        assert np.array_equal(vpu.vrf.view(0, etype), expected)


class TestOffsetValidation:
    """Negative element offsets are rejected when the op is built: numpy
    would otherwise wrap them to the end of the register silently."""

    @pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("field", ["offset", "vd_offset"])
    def test_negative_offset_rejected(self, field, stride):
        with pytest.raises(ValueError, match="non-negative"):
            VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=2,
                     stride=stride, scalar=1, **{field: -3})


class TestFusedTapRow:
    """``Vpu.bind_taps`` against the ops it fuses, issued one by one
    through ``Vpu.execute`` on an identical VPU (the reference)."""

    def _pair(self, etype, rng):
        fused, reference = make_vpu(vregs=8), make_vpu(vregs=8)
        info = np.iinfo(etype.np_dtype)
        pool = np.array([info.min, info.max, -1, 0, 1, 3], dtype=etype.np_dtype)
        for reg in range(8):
            values = rng.choice(pool, size=fused.vrf.max_vl(etype))
            fused.vrf.view(reg, etype)[:] = values
            reference.vrf.view(reg, etype)[:] = values
        return fused, reference

    @pytest.mark.parametrize("etype", list(ElementType))
    @pytest.mark.parametrize("skip_null", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_ops_issued_one_by_one(self, etype, skip_null, stride):
        rng = np.random.default_rng(7)
        fused, reference = self._pair(etype, rng)
        vl = 9
        # vd = 0; the first tap reads vd itself, later ones must not
        taps = [(0, 3, etype, -2, VectorOp(VectorOpcode.VMACC_VS, etype, vd=0,
                                           vs1=0, vl=vl, offset=1, stride=stride))]
        for j in range(1, 12):
            taps.append((
                1 + j % 3, int(rng.integers(0, 20)), etype, int(rng.integers(-40000, 40000)),
                VectorOp(VectorOpcode.VMACC_VS, etype, vd=0, vs1=4 + j % 4, vl=vl,
                         offset=int(rng.integers(0, 4)), stride=stride),
            ))
        issued = 0
        for vreg, index, read_etype, factor, op in taps:
            scalar = factor * int(reference.vrf.view(vreg, read_etype)[index])
            if scalar or not skip_null:
                reference.execute(dataclasses.replace(op, scalar=scalar))
                issued += 1
        assert fused.bind_taps(taps, skip_null)() == issued
        assert np.array_equal(fused.vrf.view(0, etype), reference.vrf.view(0, etype))

    def test_rejects_a_later_tap_that_reads_vd(self):
        vpu = make_vpu()
        op = VectorOp(VectorOpcode.VMACC_VS, ElementType.W, vd=0, vs1=1, vl=4)
        with pytest.raises(ValueError):
            vpu.bind_taps([(2, 0, ElementType.W, 1, op), (0, 0, ElementType.W, 1, op)], True)

"""End-to-end system tests: program builder, hazards, OoO behaviour.

These exercise the paper's headline *behavioural* claims: the host can
keep running while kernels execute in the cache; accesses that would
corrupt or prematurely observe kernel operands stall exactly until the
hazard clears; logical matrix registers can be re-bound while old
kernels are still pending (renaming).
"""

import numpy as np
import pytest

from repro.baselines.reference import ref_conv2d, ref_gemm, ref_leaky_relu
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.xbridge.bridge import OffloadOutcome

CFG = ArcaneConfig(n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


class TestProgramBuilder:
    def test_place_and_read_matrix(self, rng):
        system = ArcaneSystem(CFG)
        data = rng.integers(-9, 9, (5, 7)).astype(np.int16)
        handle = system.place_matrix(data, "a")
        assert np.array_equal(system.read_matrix(handle), data)

    def test_matrices_line_aligned(self, rng):
        system = ArcaneSystem(CFG)
        a = system.place_matrix(rng.integers(0, 5, (3, 3)).astype(np.int8))
        b = system.place_matrix(rng.integers(0, 5, (3, 3)).astype(np.int8))
        assert a.address % CFG.line_bytes == 0
        assert b.address % CFG.line_bytes == 0
        assert b.address >= a.address + CFG.line_bytes

    def test_unsupported_dtype_rejected(self):
        system = ArcaneSystem(CFG)
        with pytest.raises(TypeError):
            system.place_matrix(np.zeros((2, 2), dtype=np.float32))

    def test_non_2d_rejected(self):
        system = ArcaneSystem(CFG)
        with pytest.raises(ValueError):
            system.place_matrix(np.zeros(4, dtype=np.int8))

    def test_report_populated(self, rng):
        system = ArcaneSystem(CFG)
        x = rng.integers(-8, 8, (3 * 12, 12)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        _, report = system.run_conv_layer(x, f)
        assert report.offload_count == 4  # 3 xmr + 1 xmk4
        assert all(o is OffloadOutcome.ACCEPTED for o in report.outcomes)
        assert report.total_cycles >= report.host_cycles
        assert report.breakdown.cycles["compute"] > 0
        assert report.stats["scheduler.kernels"] == 1

    def test_sequential_programs_accumulate(self, rng):
        system = ArcaneSystem(CFG)
        x = rng.integers(-50, 50, (4, 8)).astype(np.int32)
        mx = system.place_matrix(x)
        out1 = system.alloc_matrix(x.shape, np.int32)
        out2 = system.alloc_matrix(x.shape, np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out1)
            prog.leaky_relu(dest=1, src=0, alpha=2)
        with system.program() as prog:
            prog.xmr(2, out1).xmr(3, out2)
            prog.leaky_relu(dest=3, src=2, alpha=1)
        expected = ref_leaky_relu(ref_leaky_relu(x, 2), 1)
        assert np.array_equal(system.read_matrix(out2), expected)


class TestOutOfOrderExecution:
    def test_host_continues_while_kernel_runs(self, rng):
        """The offload handshake returns long before the kernel finishes."""
        system = ArcaneSystem(CFG)
        x = rng.integers(-8, 8, (3 * 24, 24)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        _, report = system.run_conv_layer(x, f)
        assert report.host_cycles < report.total_cycles / 2

    def test_host_load_of_unrelated_data_overlaps_kernel(self, rng):
        system = ArcaneSystem(CFG)
        x = rng.integers(-8, 8, (12, 16)).astype(np.int32)
        f = rng.integers(-2, 3, (3, 3)).astype(np.int32)
        unrelated = system.place_matrix(
            rng.integers(0, 100, (4, 4)).astype(np.int32), "unrelated"
        )
        mx, mf = system.place_matrix(x), system.place_matrix(f)
        out = system.alloc_matrix((10, 14), np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
            prog.conv2d(dest=2, src=0, flt=1)
            prog.load(unrelated, 0, 0)
        report = system.last_report
        assert report.load_values  # the load completed
        assert np.array_equal(system.read_matrix(out), ref_conv2d(x, f))


class TestHazardsEndToEnd:
    def test_raw_host_load_waits_for_result(self, rng):
        """A host load of the kernel destination returns the *computed* value."""
        system = ArcaneSystem(CFG)
        x = rng.integers(-50, 50, (6, 8)).astype(np.int32)
        mx = system.place_matrix(x)
        out = system.alloc_matrix(x.shape, np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out)
            prog.leaky_relu(dest=1, src=0, alpha=0)
            prog.load(out, 0, 0)  # issued right after offload -> RAW hazard
        report = system.last_report
        expected = int(ref_leaky_relu(x, 0)[0, 0])
        assert report.load_values[-1] == expected
        assert report.stats.get("llc.hazard_raw_stalls", 0) >= 1

    def test_war_host_store_does_not_corrupt_kernel_input(self, rng):
        """A store to the source right after offload lands *after* allocation."""
        system = ArcaneSystem(CFG)
        x = rng.integers(-50, 50, (6, 8)).astype(np.int32)
        mx = system.place_matrix(x)
        out = system.alloc_matrix(x.shape, np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out)
            prog.leaky_relu(dest=1, src=0, alpha=0)
            prog.store(mx, 0, 0, -9999)  # WAR: blocked until source released
        report = system.last_report
        assert np.array_equal(system.read_matrix(out), ref_leaky_relu(x, 0))
        assert report.stats.get("llc.hazard_war_stalls", 0) >= 1
        # the store itself did land eventually
        assert system.read_matrix(mx)[0, 0] == np.int32(-9999)

    def test_waw_host_store_to_dest_lands_after_kernel(self, rng):
        system = ArcaneSystem(CFG)
        x = rng.integers(-50, 50, (4, 8)).astype(np.int32)
        mx = system.place_matrix(x)
        out = system.alloc_matrix(x.shape, np.int32)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, out)
            prog.leaky_relu(dest=1, src=0, alpha=0)
            prog.store(out, 0, 0, 4242)  # WAW: must not be overwritten by kernel
        report = system.last_report
        result = system.read_matrix(out)
        assert result[0, 0] == 4242  # program order preserved
        expected = ref_leaky_relu(x, 0)
        assert np.array_equal(result[1:], expected[1:])
        assert report.stats.get("llc.hazard_waw_stalls", 0) >= 1


class TestRenaming:
    def test_rebind_while_kernel_pending(self, rng):
        """xmr overwriting a live reservation renames instead of corrupting."""
        system = ArcaneSystem(CFG)
        x1 = rng.integers(-9, 9, (4, 8)).astype(np.int32)
        x2 = rng.integers(-9, 9, (4, 8)).astype(np.int32)
        m1, m2 = system.place_matrix(x1), system.place_matrix(x2)
        out1 = system.alloc_matrix((4, 8), np.int32)
        out2 = system.alloc_matrix((4, 8), np.int32)
        with system.program() as prog:
            prog.xmr(0, m1).xmr(1, out1)
            prog.leaky_relu(dest=1, src=0, alpha=0)
            # immediately re-bind m0/m1 while kernel 0 may still be queued
            prog.xmr(0, m2).xmr(1, out2)
            prog.leaky_relu(dest=1, src=0, alpha=0)
        assert np.array_equal(system.read_matrix(out1), ref_leaky_relu(x1, 0))
        assert np.array_equal(system.read_matrix(out2), ref_leaky_relu(x2, 0))


class TestChainedKernels:
    def test_gemm_then_relu_pipeline(self, rng):
        system = ArcaneSystem(CFG)
        a = rng.integers(-5, 5, (4, 6)).astype(np.int32)
        b = rng.integers(-5, 5, (6, 4)).astype(np.int32)
        c = np.zeros((4, 4), dtype=np.int32)
        ma, mb, mc = (system.place_matrix(m) for m in (a, b, c))
        product = system.alloc_matrix((4, 4), np.int32)
        activated = system.alloc_matrix((4, 4), np.int32)
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, product)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=1, beta=0)
            prog.xmr(4, product).xmr(5, activated)
            prog.leaky_relu(dest=5, src=4, alpha=2)
        expected = ref_leaky_relu(ref_gemm(a, b, c, 1, 0), 2)
        assert np.array_equal(system.read_matrix(activated), expected)

    def test_queue_backpressure_with_many_kernels(self, rng):
        """More kernels than queue slots: decode back-pressure, all complete."""
        config = ArcaneConfig(
            n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
            main_memory_kib=512, kernel_queue_capacity=2,
        )
        system = ArcaneSystem(config)
        x = rng.integers(-9, 9, (4, 8)).astype(np.int32)
        mx = system.place_matrix(x)
        outs = [system.alloc_matrix((4, 8), np.int32) for _ in range(6)]
        with system.program() as prog:
            prog.xmr(0, mx)
            for i, out in enumerate(outs):
                prog.xmr(1, out)
                prog.leaky_relu(dest=1, src=0, alpha=0)
        expected = ref_leaky_relu(x, 0)
        for out in outs:
            assert np.array_equal(system.read_matrix(out), expected)
        assert system.last_report.stats["scheduler.kernels"] == 6


class TestSchedulerPolicies:
    @pytest.mark.parametrize("policy", ["fewest_dirty", "round_robin", "first_free"])
    def test_policies_all_correct(self, rng, policy):
        config = ArcaneConfig(
            n_vpus=4, lanes=4, line_bytes=256, vpu_kib=8,
            main_memory_kib=512, vpu_policy=policy,
        )
        system = ArcaneSystem(config)
        x = rng.integers(-8, 8, (3 * 12, 12)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        out, _ = system.run_conv_layer(x, f)
        from repro.baselines.reference import ref_conv_layer

        assert np.array_equal(out, ref_conv_layer(x, f))

    def test_fewest_dirty_picks_clean_vpu(self):
        system = ArcaneSystem(CFG)
        scheduler = system.llc.runtime.scheduler
        ct = system.llc.cache_table
        # dirty up VPU 0's lines; VPU selection must avoid it
        for line in ct.vpu_lines(0)[:3]:
            ct.bind(line, 0x1000 + line.index * CFG.line_bytes)
            line.dirty = True
        assert scheduler.select_vpu() != 0


class TestMatrixDtypeNormalization:
    """Matrix is frozen and hashed; dtype must be canonical at construction."""

    def test_dtype_class_and_instance_compare_equal(self):
        from repro.core.api import Matrix

        by_class = Matrix(address=0, rows=4, cols=4, dtype=np.int32)
        by_instance = Matrix(address=0, rows=4, cols=4, dtype=np.dtype(np.int32))
        assert by_class == by_instance
        assert hash(by_class) == hash(by_instance)
        assert isinstance(by_class.dtype, np.dtype)

    def test_string_dtype_normalized(self):
        from repro.core.api import Matrix

        matrix = Matrix(address=0, rows=2, cols=3, dtype="int16")
        assert matrix.dtype == np.dtype(np.int16)
        assert matrix.itemsize == 2
        assert matrix.row_bytes == 6

    def test_system_handles_hash_consistently(self):
        from repro.core.api import Matrix

        system = ArcaneSystem(CFG)
        handle = system.alloc_matrix((4, 4), np.int16)
        # a lookup key built with the dtype *class* must find the handle
        key = Matrix(handle.address, 4, 4, np.int16, name=handle.name)
        assert key == handle
        assert {handle: "x"}[key] == "x"

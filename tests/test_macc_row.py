"""Fused tap rows (``KernelContext.macc_row``) against tap-by-tap issue.

``macc_row`` promises to be exactly its taps issued one by one through
``macc_tap``.  The oracle here is that definition, literally: a
``KernelContext.macc_row`` patched to loop over ``macc_tap``, on a
``with_fastpath(False)`` system, so no fused code runs on that side.
The system under test keeps the fast path on: its first two launches of
a geometry interpret the body through the real ``macc_row`` (the second
one records it), later ones replay the recording's fused rows, and
sharded ``multi_vpu`` launches always interpret.  Everything observable
must match: outputs, ``total_cycles``, ``host_cycles``, per-kernel
phases and stats counters.

The work-count tests pin what the fused row saves: an interpreted
launch calls ``Vpu.execute`` for its plain vector ops only, never per
tap, while the ``dispatch.ops`` stat still counts every issued MAC.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.runtime.context import KernelContext
from repro.runtime.kernels.common import conv_output_shape, pool_output_shape
from repro.vpu.vpu import Vpu
from tests.test_replay_fuzz import MODES, draws_for, launch_conv, launch_gemm

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)
LAUNCHES = 3
ORACLE = settings(max_examples=20, deadline=None, derandomize=True)
launch_modes = st.lists(st.sampled_from(MODES), min_size=LAUNCHES, max_size=LAUNCHES)
seeds = st.integers(0, 2**32 - 1)
dtypes = st.sampled_from((np.int8, np.int16, np.int32))


@pytest.fixture(autouse=True)
def _fastpath_available(monkeypatch):
    monkeypatch.delenv("ARCANE_NO_FASTPATH", raising=False)


def tap_by_tap(self, vd, taps, vl, factor=1, skip_null=True, stride=1, etype=None):
    """The ``macc_row`` contract: each tap through ``macc_tap``, in order."""
    for vreg, index, vs1, offset in taps:
        yield from self.macc_tap(
            vreg, index, vd, vs1, vl, factor, skip_null, offset, stride, etype
        )


def check_against_taps(launch, draws, multi):
    config = CFG.with_multi_vpu(multi)
    fused = ArcaneSystem(config)
    oracle = ArcaneSystem(config.with_fastpath(False))
    for operands in draws:
        out_fused, rep_fused = launch(fused, operands)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KernelContext, "macc_row", tap_by_tap)
            out_taps, rep_taps = launch(oracle, operands)
        assert np.array_equal(out_fused, out_taps)
        assert rep_fused.total_cycles == rep_taps.total_cycles
        assert rep_fused.host_cycles == rep_taps.host_cycles
        assert rep_fused.stats == rep_taps.stats
        assert {k: b.cycles for k, b in rep_fused.per_kernel.items()} == {
            k: b.cycles for k, b in rep_taps.per_kernel.items()
        }
        fused.reset_heap()
        oracle.reset_heap()


@ORACLE
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes, multi=st.booleans(),
    m=st.integers(1, 4), k=st.integers(1, 36), n=st.integers(1, 16),
    alpha=st.sampled_from([0, 1, -3]), beta=st.sampled_from([0, 1, 2]),
)
def test_gemm(seed, dtype, modes, multi, m, k, n, alpha, beta):
    if multi:
        # K >= 29 sharded fills every LLC line and cannot write back, on
        # either path (test_kernels.py::TestGemm::test_multi_vpu_strip_mined_k)
        k = min(k, 28)
    draws = draws_for(seed, dtype, [(m, k), (k, n), (m, n)], 0, modes)
    check_against_taps(launch_gemm(alpha, beta), draws, multi)


@ORACLE
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes, multi=st.booleans(),
    k=st.integers(1, 3), extra_rows=st.integers(0, 4), extra_cols=st.integers(0, 8),
)
def test_conv2d(seed, dtype, modes, multi, k, extra_rows, extra_cols):
    shapes = [(k + extra_rows, k + extra_cols), (k, k)]
    check_against_taps(launch_conv(False), draws_for(seed, dtype, shapes, 1, modes), multi)


@pytest.mark.parametrize(
    "dtype, k, packed",
    [(np.int8, 3, True), (np.int16, 2, True), (np.int32, 5, False)],
    ids=["packed-int8", "packed-int16", "planes-int32"],
)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=seeds, modes=launch_modes, multi=st.booleans(),
    extra_rows=st.integers(1, 4), extra_cols=st.integers(1, 6),
)
def test_conv_layer(dtype, k, packed, seed, modes, multi, extra_rows, extra_cols):
    # one register holds the stacked 3*K*K filter, or each channel's plane
    max_vl = CFG.line_bytes // np.dtype(dtype).itemsize
    assert (3 * k * k <= max_vl) == packed
    shapes = [(3 * (k + extra_rows), k + extra_cols), (3 * k, k)]
    check_against_taps(launch_conv(True), draws_for(seed, dtype, shapes, 1, modes), multi)


# -- work counts ------------------------------------------------------------------


@pytest.fixture
def execute_calls(monkeypatch):
    """Count ``Vpu.execute`` calls."""
    calls = []
    execute = Vpu.execute

    def counted(self, op):
        calls.append(op.opcode)
        return execute(self, op)

    monkeypatch.setattr(Vpu, "execute", counted)
    return calls


def test_conv_layer_executes_no_op_per_tap(execute_calls):
    rng = np.random.default_rng(3)
    height, width, k = 12, 20, 3
    x = rng.integers(-8, 8, (3 * height, width)).astype(np.int8)
    f = rng.integers(-2, 3, (3 * k, k)).astype(np.int8)
    f[0, 0] = 0  # one null tap
    system = ArcaneSystem(CFG.with_fastpath(False))
    _, report = system.run_conv_layer(x, f)

    conv_rows, conv_cols = conv_output_shape(height, width, k)
    pooled_rows, _ = pool_output_shape(conv_rows, conv_cols, 2, 2)
    computed = 2 * pooled_rows  # conv rows the pooled rows consume
    # one VCLEAR per conv row, VMV + 3 VMAX_VV + VMAX_VS per pooled row
    assert len(execute_calls) == computed + 5 * pooled_rows
    assert report.stats["dispatch.ops"] == len(execute_calls) + computed * np.count_nonzero(f)


@pytest.mark.parametrize("alpha, beta", [(1, 0), (2, 1), (0, 1)])
def test_gemm_executes_no_op_per_tap(execute_calls, alpha, beta):
    rng = np.random.default_rng(4)
    m, k, n = 5, 40, 16  # k > the B window: two strips per output row
    a = rng.integers(-8, 8, (m, k)).astype(np.int32)
    a[rng.random(a.shape) < 0.5] = 0
    b = rng.integers(-8, 8, (k, n)).astype(np.int32)
    c = rng.integers(-8, 8, (m, n)).astype(np.int32)
    system = ArcaneSystem(CFG.with_fastpath(False))
    _, report = launch_gemm(alpha, beta)(system, [a, b, c])

    # one VCLEAR (beta == 0) or VMUL_VS per output row
    assert len(execute_calls) == m
    # alpha == 0 issues every MAC, else only the non-null a_ik
    macs = a.size if alpha == 0 else np.count_nonzero(a)
    assert report.stats["dispatch.ops"] == m + macs

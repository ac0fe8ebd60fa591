"""Differential fuzzer: replay keyed on geometry against the slow path.

A replay recording is keyed on a launch's geometry, not its data, so one
recording replays every launch of that geometry.  The only data a
shipped kernel's control flow sees is which filter taps are null, and
the recording holds that as a predicate re-read live.  Each example
fixes one kernel geometry, then launches it several times on one
fast-path system, drawing fresh operands for every launch: small values,
sparse ones, all-zero taps and dtype extremes.  A ``with_fastpath(False)``
twin runs the same launches.  Everything observable must match: outputs,
``total_cycles``, ``host_cycles``, per-kernel phases and stats counters.
Every launch after the recording must be a replay hit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    FUNC5_CGEMM,
    FUNC5_DWCONV2D,
    FUNC5_FC,
    install_compiled,
    offload_compiled,
)
from repro.core.config import ArcaneConfig
from repro.core.system import ArcaneSystem
from repro.runtime.kernels.common import conv_output_shape, pool_output_shape

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)

#: launch 0 is the geometry's first sighting, launch 1 records it, the
#: rest must replay
LAUNCHES = 4
DTYPES = (np.int8, np.int16, np.int32)
MODES = ("small", "sparse", "zero", "extreme")
FUZZ = settings(max_examples=30, deadline=None, derandomize=True)


@pytest.fixture(autouse=True)
def _fastpath_available(monkeypatch):
    monkeypatch.delenv("ARCANE_NO_FASTPATH", raising=False)


def operand(rng, shape, dtype, mode):
    """One operand drawn in ``mode``: small values, mostly zeros, all
    zeros, or the dtype's extremes mixed with -1/0/1."""
    if mode == "zero":
        return np.zeros(shape, dtype=dtype)
    if mode == "extreme":
        info = np.iinfo(dtype)
        pool = np.array([info.min, info.max, -1, 0, 1], dtype=dtype)
        return rng.choice(pool, size=shape)
    values = rng.integers(-8, 8, shape).astype(dtype)
    if mode == "sparse":
        values[rng.random(shape) < 0.7] = 0
    return values


def check_against_slow_path(launch, draws):
    """Launch every draw on a fast-path system and its slow-path twin."""
    fast = ArcaneSystem(CFG)
    slow = ArcaneSystem(CFG.with_fastpath(False))
    for system in (fast, slow):
        install_compiled(system.llc.runtime.library)
    stats = fast.llc.runtime.replay_cache.stats
    hits = []
    for operands in draws:
        before = stats["hits"]
        out_fast, rep_fast = launch(fast, operands)
        hits.append(stats["hits"] - before)
        out_slow, rep_slow = launch(slow, operands)
        assert np.array_equal(out_fast, out_slow)
        assert rep_fast.total_cycles == rep_slow.total_cycles
        assert rep_fast.host_cycles == rep_slow.host_cycles
        assert rep_fast.stats == rep_slow.stats
        assert {k: b.cycles for k, b in rep_fast.per_kernel.items()} == {
            k: b.cycles for k, b in rep_slow.per_kernel.items()
        }
        fast.reset_heap()
        slow.reset_heap()
    assert hits[2:] == [1] * (len(draws) - 2), f"replay outcomes {hits}"


def _place(system, sources, dest_shape, dtype):
    handles = [system.place_matrix(s) for s in sources]
    return handles, system.alloc_matrix(dest_shape, dtype)


def launch_gemm(alpha, beta):
    def launch(system, operands):
        (ma, mb, mc), out = _place(
            system, operands, (operands[0].shape[0], operands[1].shape[1]),
            operands[0].dtype,
        )
        with system.program() as prog:
            prog.xmr(0, ma).xmr(1, mb).xmr(2, mc).xmr(3, out)
            prog.gemm(dest=3, a=0, b=1, c=2, alpha=alpha, beta=beta,
                      suffix=ma.etype.suffix)
        return system.read_matrix(out), system.last_report
    return launch


def launch_conv(conv_layer):
    def launch(system, operands):
        x, f = operands
        if conv_layer:
            k = f.shape[1]
            conv = conv_output_shape(x.shape[0] // 3, x.shape[1], k)
            shape = pool_output_shape(conv[0], conv[1], 2, 2)
        else:
            shape = conv_output_shape(x.shape[0], x.shape[1], f.shape[0])
        (mx, mf), out = _place(system, operands, shape, x.dtype)
        with system.program() as prog:
            prog.xmr(0, mx).xmr(1, mf).xmr(2, out)
            issue = prog.conv_layer if conv_layer else prog.conv2d
            issue(dest=2, src=0, flt=1, suffix=mx.etype.suffix)
        return system.read_matrix(out), system.last_report
    return launch


def launch_compiled(func5, dest_shape, params=()):
    def launch(system, operands):
        handles, out = _place(system, operands, dest_shape, operands[0].dtype)
        with system.program() as prog:
            for register, handle in enumerate(handles):
                prog.xmr(register, handle)
            prog.xmr(len(handles), out)
            offload_compiled(
                prog, func5, out.etype.suffix, dest=len(handles),
                sources=list(range(len(handles))), params=params,
            )
        return system.read_matrix(out), system.last_report
    return launch


def draws_for(seed, dtype, shapes, tap_index, modes):
    """Operands per launch; the tap operand takes each launch's mode, the
    others are small or extreme values."""
    rng = np.random.default_rng(seed)
    draws = []
    for mode in modes:
        draws.append([
            operand(rng, shape, dtype,
                    mode if i == tap_index else ("extreme" if mode == "extreme" else "small"))
            for i, shape in enumerate(shapes)
        ])
    return draws


launch_modes = st.lists(st.sampled_from(MODES), min_size=LAUNCHES, max_size=LAUNCHES)
seeds = st.integers(0, 2**32 - 1)
dtypes = st.sampled_from(DTYPES)


@FUZZ
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes,
    m=st.integers(1, 4), k=st.integers(1, 36), n=st.integers(1, 16),
    alpha=st.sampled_from([0, 1, -3, 2]), beta=st.sampled_from([0, 1, -1, 5]),
)
def test_gemm(seed, dtype, modes, m, k, n, alpha, beta):
    draws = draws_for(seed, dtype, [(m, k), (k, n), (m, n)], 0, modes)
    check_against_slow_path(launch_gemm(alpha, beta), draws)


@FUZZ
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes,
    k=st.integers(1, 3), extra_rows=st.integers(0, 4), extra_cols=st.integers(0, 8),
)
def test_conv2d(seed, dtype, modes, k, extra_rows, extra_cols):
    shapes = [(k + extra_rows, k + extra_cols), (k, k)]
    check_against_slow_path(launch_conv(False), draws_for(seed, dtype, shapes, 1, modes))


@FUZZ
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes,
    k=st.integers(1, 3), extra_rows=st.integers(1, 5), extra_cols=st.integers(1, 8),
)
def test_conv_layer(seed, dtype, modes, k, extra_rows, extra_cols):
    shapes = [(3 * (k + extra_rows), k + extra_cols), (3 * k, k)]
    check_against_slow_path(launch_conv(True), draws_for(seed, dtype, shapes, 1, modes))


@FUZZ
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes,
    m=st.integers(1, 4), k=st.integers(1, 24), n=st.integers(1, 16),
    alpha=st.sampled_from([0, 1, -3]), beta=st.sampled_from([0, 1, 2]),
)
def test_cgemm(seed, dtype, modes, m, k, n, alpha, beta):
    draws = draws_for(seed, dtype, [(m, k), (k, n), (m, n)], 0, modes)
    check_against_slow_path(
        launch_compiled(FUNC5_CGEMM, (m, n), (alpha, beta)), draws
    )


@FUZZ
@given(seed=seeds, dtype=dtypes, modes=launch_modes,
       k=st.integers(1, 40), n=st.integers(1, 16))
def test_fc(seed, dtype, modes, k, n):
    draws = draws_for(seed, dtype, [(1, k), (k, n), (1, n)], 0, modes)
    check_against_slow_path(launch_compiled(FUNC5_FC, (1, n)), draws)


@FUZZ
@given(
    seed=seeds, dtype=dtypes, modes=launch_modes, c=st.integers(1, 2),
    k=st.integers(1, 3), extra_rows=st.integers(0, 3), extra_cols=st.integers(0, 6),
)
def test_dwconv2d(seed, dtype, modes, c, k, extra_rows, extra_cols):
    h, w = k + extra_rows, k + extra_cols
    shapes = [(c * h, w), (c * k, k)]
    dest = (c * (h - k + 1), w - k + 1)
    check_against_slow_path(
        launch_compiled(FUNC5_DWCONV2D, dest), draws_for(seed, dtype, shapes, 1, modes)
    )

"""``xmk4`` — the 3-channel 2D convolutional layer (paper Table I, IV-A.2).

The paper's flagship software-defined instruction, "inspired by ImageNet":
a fused 2D convolution over three input channels, ReLU activation and
2x2/stride-2 max pooling, supporting matrices of arbitrary dimensions.

Data layout: the input binding stacks the three channel planes row-wise
(``3H x W``), the filter binding stacks the three ``K x K`` channel
filters (``3K x K``).  The destination holds the pooled output
(``floor((H-K+1-2)/2)+1`` squared rows/cols).

Micro-program per conv row: 3 * K**2 ``vmacc.vs`` over a rolling window
of K input rows per channel (every input row is DMA-loaded exactly once);
each pair of conv rows is reduced to one pooled output row with five
strided max/ReLU vector instructions.  Supports multi-VPU sharding over
pooled output rows.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.isa.xmnmc import OffloadRequest
from repro.runtime.context import KernelContext
from repro.runtime.kernel_lib import KernelSpec, PreambleResult
from repro.runtime.kernels.common import (
    check_shape,
    conv_output_shape,
    pool_output_shape,
    resolve,
    shard_rows,
)
from repro.runtime.matrix import MatrixMap
from repro.runtime.queue import QueuedKernel
from repro.vpu.visa import VectorOpcode

N_CHANNELS = 3
POOL_WINDOW = 2
POOL_STRIDE = 2


def conv_layer_shapes(in_rows: int, in_cols: int, filter_rows: int, filter_cols: int):
    """Derive (H, K, conv_shape, pooled_shape) and validate the stacking."""
    if in_rows % N_CHANNELS:
        raise ValueError(
            f"3-channel input must stack {N_CHANNELS} planes row-wise; "
            f"{in_rows} rows is not a multiple of {N_CHANNELS}"
        )
    if filter_rows % N_CHANNELS:
        raise ValueError(f"filter rows {filter_rows} not a multiple of {N_CHANNELS}")
    height = in_rows // N_CHANNELS
    k = filter_rows // N_CHANNELS
    if k != filter_cols:
        raise ValueError(f"per-channel filter must be square, got {k}x{filter_cols}")
    conv_shape = conv_output_shape(height, in_cols, k)
    pooled_shape = pool_output_shape(conv_shape[0], conv_shape[1], POOL_WINDOW, POOL_STRIDE)
    return height, k, conv_shape, pooled_shape


def conv_layer_preamble(request: OffloadRequest, matrix_map: MatrixMap) -> PreambleResult:
    _, (_, md), (ms1, ms2) = request.pairs()
    x = resolve(matrix_map, ms1)
    f = resolve(matrix_map, ms2)
    d = resolve(matrix_map, md)
    height, k, _, pooled_shape = conv_layer_shapes(x.rows, x.cols, f.rows, f.cols)
    check_shape(d, pooled_shape[0], pooled_shape[1], "destination")
    return d, [x, f], {"k": k, "height": height}


def conv_layer_body(
    kc: KernelContext,
    kernel: QueuedKernel,
    shard: Optional[Tuple[int, int]] = None,
) -> Generator:
    x, f = kernel.sources
    d = kernel.dest
    k = kernel.scalars["k"]
    height = kernel.scalars["height"]
    width = x.cols
    conv_rows, conv_cols = conv_output_shape(height, width, k)
    pooled_rows, pooled_cols = pool_output_shape(
        conv_rows, conv_cols, POOL_WINDOW, POOL_STRIDE
    )
    pool_start, pool_count = shard_rows(pooled_rows, shard or (0, 1))
    if pool_count == 0:
        return

    # Register file layout: one rolling (K+1)-row window per channel (the
    # +1 slot receives the double-buffered DMA prefetch of the next row
    # while rows i..i+K-1 feed the MACs), the stacked filter packed into
    # one register (or one per channel when a single register cannot hold
    # 3*K*K elements), POOL_WINDOW conv-row buffers and one pooled
    # accumulator.
    depth = k + 1
    channel_wins = [kc.claim(depth) for _ in range(N_CHANNELS)]
    whole_filter_fits = f.rows * f.cols <= kc.max_vl
    if whole_filter_fits:
        flt_win = kc.claim(1)
        yield from kc.load_packed(flt_win, f)
        flt_regs = [flt_win[0]] * N_CHANNELS
        flt_offsets = [channel * k * k for channel in range(N_CHANNELS)]
    else:
        flt_win = kc.claim(N_CHANNELS)
        from repro.runtime.matrix import MatrixBinding

        for channel in range(N_CHANNELS):
            plane = MatrixBinding(
                address=f.row_address(channel * k), rows=k, cols=f.cols,
                stride=f.stride, etype=f.etype,
            )
            yield from kc.load_packed(flt_win, plane, reg_index=channel)
        flt_regs = [flt_win[channel] for channel in range(N_CHANNELS)]
        flt_offsets = [0] * N_CHANNELS
    conv_bufs = kc.claim(POOL_WINDOW)
    pool_win = kc.claim(1)

    conv_first = pool_start * POOL_STRIDE
    conv_last = (pool_start + pool_count - 1) * POOL_STRIDE + POOL_WINDOW  # exclusive

    # Initial synchronous fill of the first K rows of every channel, then
    # steady state: prefetch row i+k of all channels while computing row i.
    yield from kc.load_row_set(
        [
            (channel_wins[channel], x, channel * height + r, r % depth)
            for r in range(conv_first, conv_first + k)
            for channel in range(N_CHANNELS)
        ]
    )

    # the 3*K*K taps of conv row i, which depend only on i % depth:
    # ``(filter register, tap index, source row register, column offset)``
    row_taps = [
        tuple(
            (flt_regs[channel], flt_offsets[channel] + dr * k + dc,
             channel_wins[channel][(phase + dr) % depth], dc)
            for channel in range(N_CHANNELS)
            for dr in range(k)
            for dc in range(k)
        )
        for phase in range(depth)
    ]
    pending = None
    for i in range(conv_first, conv_last):
        yield from kc.wait_prefetch(pending)
        pending = None
        next_row = i + k
        if i + 1 < conv_last and next_row < height:
            pending = kc.prefetch_row_set(
                [
                    (channel_wins[channel], x, channel * height + next_row,
                     next_row % depth)
                    for channel in range(N_CHANNELS)
                ]
            )

        acc = conv_bufs[i % POOL_WINDOW]
        yield from kc.vop(VectorOpcode.VCLEAR, vd=acc, vl=conv_cols)
        yield from kc.macc_row(acc, row_taps[i % depth], vl=conv_cols)

        if (i - conv_first) % POOL_STRIDE == POOL_WINDOW - 1:
            pooled_index = i // POOL_STRIDE
            yield from _pool_and_store(
                kc, kernel, conv_bufs, pool_win, pooled_index, pooled_cols
            )
    yield from kc.wait_prefetch(pending)


def _pool_and_store(
    kc: KernelContext, kernel: QueuedKernel, conv_bufs, pool_win, pooled_index: int,
    pooled_cols: int,
) -> Generator:
    """Reduce POOL_WINDOW conv rows to one pooled+ReLU'd output row."""
    first = True
    for dr in range(POOL_WINDOW):
        for dc in range(POOL_WINDOW):
            opcode = VectorOpcode.VMV if first else VectorOpcode.VMAX_VV
            yield from kc.vop(
                opcode,
                vd=pool_win[0],
                vs1=conv_bufs[dr],
                vl=pooled_cols,
                offset=dc,
                stride=POOL_STRIDE,
            )
            first = False
    yield from kc.vop(
        VectorOpcode.VMAX_VS, vd=pool_win[0], vs1=pool_win[0], scalar=0, vl=pooled_cols
    )
    yield from kc.store_rows(pool_win, kernel.dest, pooled_index, 1)


CONV_LAYER_SPEC = KernelSpec(
    func5=4,
    name="conv_layer",
    preamble=conv_layer_preamble,
    body=conv_layer_body,
    description="fused 3-channel conv + ReLU + 2x2/2 max pool",
)

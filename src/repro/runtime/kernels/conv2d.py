"""``xmk3`` — single-channel 2D convolution (paper Table I).

``D[i, j] = sum_{dr, dc} X[i+dr, j+dc] * F[dr, dc]`` ('valid' padding;
cross-correlation orientation, the convention of inference frameworks).
Operand packing: rs2 = (-, md), rs3 = (ms1, ms2) with X = ms1, F = ms2.

Micro-program: the filter is packed into a single vector register; the
eCPU reads each tap as a scalar and issues one ``vmacc.vs`` per tap over
a whole output row — ``K**2`` vector MACs per row.  Input rows live in a
rolling window of K registers, so each input row is DMA-loaded exactly
once.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.isa.xmnmc import OffloadRequest
from repro.runtime.context import KernelContext
from repro.runtime.kernel_lib import KernelSpec, PreambleResult
from repro.runtime.kernels.common import check_shape, conv_output_shape, resolve, shard_rows
from repro.runtime.matrix import MatrixMap
from repro.runtime.queue import QueuedKernel
from repro.vpu.visa import VectorOpcode


def conv2d_preamble(request: OffloadRequest, matrix_map: MatrixMap) -> PreambleResult:
    _, (_, md), (ms1, ms2) = request.pairs()
    x = resolve(matrix_map, ms1)
    f = resolve(matrix_map, ms2)
    d = resolve(matrix_map, md)
    if f.rows != f.cols:
        raise ValueError(f"conv filter must be square, got {f.rows}x{f.cols}")
    out_rows, out_cols = conv_output_shape(x.rows, x.cols, f.rows)
    check_shape(d, out_rows, out_cols, "destination")
    return d, [x, f], {"k": f.rows}


def conv2d_body(
    kc: KernelContext,
    kernel: QueuedKernel,
    shard: Optional[Tuple[int, int]] = None,
) -> Generator:
    x, f = kernel.sources
    d = kernel.dest
    k = kernel.scalars["k"]
    out_rows, out_cols = conv_output_shape(x.rows, x.cols, k)
    row_start, n_rows = shard_rows(out_rows, shard or (0, 1))
    if n_rows == 0:
        return

    # Rolling window of k+1 registers per the double-buffering scheme: row
    # r lives in slot r % (k+1); while rows i..i+k-1 feed the MACs, the DMA
    # prefetches row i+k into the one unused slot, hiding allocation time
    # under compute (paper V-C: "optimized DMA transfers").
    depth = k + 1
    flt_win = kc.claim(1)
    in_win = kc.claim(depth)
    acc_win = kc.claim(1)
    yield from kc.load_packed(flt_win, f)
    yield from kc.load_row_set(
        [(in_win, x, r, r % depth) for r in range(row_start, row_start + k)]
    )

    # the K*K taps of output row i, which depend only on i % depth
    row_taps = [
        tuple(
            (flt_win[0], dr * k + dc, in_win[(phase + dr) % depth], dc)
            for dr in range(k)
            for dc in range(k)
        )
        for phase in range(depth)
    ]
    pending = None
    for i in range(row_start, row_start + n_rows):
        yield from kc.wait_prefetch(pending)
        pending = None
        next_row = i + k
        if i + 1 < row_start + n_rows and next_row < x.rows:
            pending = kc.prefetch_row_set([(in_win, x, next_row, next_row % depth)])
        yield from kc.vop(VectorOpcode.VCLEAR, vd=acc_win[0], vl=out_cols)
        # the software decoder skips null taps
        yield from kc.macc_row(acc_win[0], row_taps[i % depth], vl=out_cols)
        yield from kc.store_rows(acc_win, d, i, 1)
    yield from kc.wait_prefetch(pending)


CONV2D_SPEC = KernelSpec(
    func5=3,
    name="conv2d",
    preamble=conv2d_preamble,
    body=conv2d_body,
    description="single-channel 'valid' 2D convolution",
)

"""``xmk0`` — General Matrix Multiplication (paper Table I).

Computes ``D = alpha * (A @ B) + beta * C`` with element-width wrap-around
arithmetic.  Operand packing (Table I): rs1 = (alpha, beta),
rs2 = (ms3, md), rs3 = (ms1, ms2), i.e. A = ms1, B = ms2, C = ms3.

Micro-program structure: the output is produced row by row.  B is kept
resident in a register window (strip-mined over K when it does not fit);
for every output row the eCPU reads A's elements as scalars and issues
one ``vmacc.vs`` per (i, k) pair — the classic outer-product-by-rows
formulation that NM-Carus's vector-scalar MAC is built for.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.isa.xmnmc import OffloadRequest
from repro.runtime.context import KernelContext
from repro.runtime.kernel_lib import KernelSpec, PreambleResult
from repro.runtime.kernels.common import k_strip_size, resolve, shard_rows, signed16
from repro.runtime.matrix import MatrixMap
from repro.runtime.queue import QueuedKernel
from repro.vpu.visa import VectorOpcode


def gemm_preamble(request: OffloadRequest, matrix_map: MatrixMap) -> PreambleResult:
    (alpha, beta), (ms3, md), (ms1, ms2) = request.pairs()
    a = resolve(matrix_map, ms1)
    b = resolve(matrix_map, ms2)
    c = resolve(matrix_map, ms3)
    d = resolve(matrix_map, md)
    if a.cols != b.rows:
        raise ValueError(f"GeMM inner dims differ: A is {a.rows}x{a.cols}, B is {b.rows}x{b.cols}")
    if (d.rows, d.cols) != (a.rows, b.cols):
        raise ValueError(
            f"GeMM destination is {d.rows}x{d.cols}, expected {a.rows}x{b.cols}"
        )
    if (c.rows, c.cols) != (d.rows, d.cols):
        raise ValueError(f"GeMM addend C is {c.rows}x{c.cols}, expected {d.rows}x{d.cols}")
    scalars = {"alpha": signed16(alpha), "beta": signed16(beta)}
    return d, [a, b, c], scalars


def gemm_body(
    kc: KernelContext,
    kernel: QueuedKernel,
    shard: Optional[Tuple[int, int]] = None,
) -> Generator:
    a, b, c = kernel.sources
    d = kernel.dest
    alpha = kernel.scalars["alpha"]
    beta = kernel.scalars["beta"]
    n = b.cols
    k_total = a.cols

    row_start, n_rows = shard_rows(a.rows, shard or (0, 1))
    if n_rows == 0:
        return

    # Register budget: B strip + A row + accumulator + C row staging.
    b_strip = k_strip_size(k_total, kc.free_regs(), reserved=3)
    b_win = kc.claim(b_strip)
    a_win = kc.claim(1)
    acc_win = kc.claim(1)
    c_win = kc.claim(1)

    for i in range(row_start, row_start + n_rows):
        yield from kc.load_rows(a_win, a, i, 1)
        if beta == 0:
            yield from kc.vop(VectorOpcode.VCLEAR, vd=acc_win[0], vl=n)
        else:
            yield from kc.load_rows(c_win, c, i, 1)
            yield from kc.vop(
                VectorOpcode.VMUL_VS, vd=acc_win[0], vs1=c_win[0], scalar=beta, vl=n
            )
        for k_base in range(0, k_total, b_strip):
            k_count = min(b_strip, k_total - k_base)
            # B rows are re-streamed per output row only when strip-mined;
            # when B fits, rows are loaded once (i == row_start).
            if k_total > b_strip or i == row_start:
                yield from kc.load_rows(b_win, b, k_base, k_count)
            # software skips null a_ik contributions, except that
            # alpha == 0 issues every MAC (with a zero scalar)
            yield from kc.macc_row(
                acc_win[0],
                [(a_win[0], k_base + k, b_win[k], 0) for k in range(k_count)],
                vl=n, factor=alpha, skip_null=alpha != 0,
            )
        yield from kc.store_rows(acc_win, d, i, 1)


GEMM_SPEC = KernelSpec(
    func5=0,
    name="gemm",
    preamble=gemm_preamble,
    body=gemm_body,
    description="D = alpha * (A @ B) + beta * C",
)

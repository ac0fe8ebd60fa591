"""The VPU execution model: functional semantics + lane-accurate timing.

Timing model (from the NM-Carus microarchitecture the paper builds on):

* a vector instruction streams its elements through ``lanes`` 32-bit
  lanes; contiguous (stride-1) accesses pack ``4 / element_bytes``
  elements per lane per cycle (sub-word SIMD), so the throughput is
  ``lanes * elems_per_word`` elements/cycle;
* strided/gather accesses defeat packing: one element per lane per cycle;
* every instruction pays a small fixed ``startup`` cost (decode + first
  operand fetch);
* reductions pay an extra ``log2(lanes)`` merge cost.

Functional semantics use wrap-around two's-complement arithmetic in the
element width, matching the RTL datapath.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sim.stats import StatsRegistry
from repro.vpu.visa import ElementType, OP_TRAITS, STRIDED_SOURCES, VectorOp, VectorOpcode
from repro.vpu.vrf import VectorRegisterFile


class Vpu:
    """One near-memory vector processing unit."""

    STARTUP_CYCLES = 2

    def __init__(
        self,
        index: int,
        vrf: VectorRegisterFile,
        lanes: int,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError("a VPU needs at least one lane")
        self.index = index
        self.vrf = vrf
        self.lanes = lanes
        self.stats = stats or StatsRegistry()
        # Counter handles are resolved once here: the execute loop runs per
        # vector instruction and must not build f-string names or walk the
        # registry dict on every op.
        self._c_ops = self.stats.counter(f"vpu{index}.ops")
        self._c_cycles = self.stats.counter(f"vpu{index}.cycles")
        self._c_elems = self.stats.counter(f"vpu{index}.elems")
        self._reduction_cycles = max(
            1, int(math.log2(lanes)) if lanes > 1 else 1
        )

    # -- timing ----------------------------------------------------------

    def elems_per_cycle(self, etype: ElementType, stride: int = 1) -> int:
        """Element throughput for the given element type and access stride."""
        if stride == 1:
            return self.lanes * etype.elems_per_word
        return self.lanes

    def op_cycles(self, op: VectorOp) -> int:
        """Cycle cost of executing ``op`` on this VPU.

        The single source of the timing formula — ``execute`` and the
        replay compiler both charge through here, so the fast and slow
        paths cannot drift apart.  Traits come from the precomputed
        enum-member attributes (no per-op dict hashing).
        """
        opcode = op.opcode
        vl = op.vl
        if vl == 0:
            return self.STARTUP_CYCLES
        if opcode.strided and op.stride != 1:
            throughput = self.lanes
        else:
            throughput = self.lanes * op.etype.elems_per_word
        cycles = self.STARTUP_CYCLES + -(-vl // throughput)  # ceil division
        if opcode.traits.is_reduction:
            cycles += self._reduction_cycles
        return cycles

    # -- functional execution ------------------------------------------------

    def execute(self, op: VectorOp) -> int:
        """Execute ``op`` functionally; return its cycle cost."""
        opcode = op.opcode
        etype = op.etype
        traits = opcode.traits  # hoisted: plain attribute, no enum hashing
        vl = op.vl
        cycles = self.op_cycles(op)
        # hot path: counters are monotonic by construction, bump directly
        self._c_ops.value += 1
        self._c_cycles.value += cycles
        self._c_elems.value += vl
        if vl == 0:
            return cycles

        dtype = etype.np_dtype
        dst_view = self.vrf.view(op.vd, etype)
        dst = dst_view[op.vd_offset : op.vd_offset + vl]
        if len(dst) != vl:
            raise ValueError(
                f"vl={vl} at vd_offset={op.vd_offset} overflows register {op.vd}"
            )

        if opcode is VectorOpcode.VCLEAR:
            dst[:] = 0
            return cycles

        src = self._gather(op.vs1, etype, vl, op.offset, op.stride, op.vd)
        # vs2 is fetched only by the two-source opcode forms
        other = (
            self.vrf.view(op.vs2, etype)[:vl]
            if traits.n_vs_registers == 2
            else None
        )

        # Integer arithmetic is defined as int64-then-truncate.  Truncation
        # mod 2**w is a ring homomorphism, so add/mul/macc computed directly
        # in the wrapping element dtype, with the scalar pre-wrapped, give
        # the same bits without widening copies.
        if opcode is VectorOpcode.VMV:
            dst[:] = src
        elif opcode is VectorOpcode.VADD_VV:
            np.add(src, other, out=dst)
        elif opcode is VectorOpcode.VMUL_VV:
            np.multiply(src, other, out=dst)
        elif opcode is VectorOpcode.VMACC_VS:
            dst += src * np.int64(op.scalar).astype(dtype)
        elif opcode is VectorOpcode.VMUL_VS:
            np.multiply(src, np.int64(op.scalar).astype(dtype), out=dst)
        elif opcode is VectorOpcode.VADD_VS:
            np.add(src, np.int64(op.scalar).astype(dtype), out=dst)
        elif opcode is VectorOpcode.VMAX_VV:
            dst[:] = np.maximum(dst, src)
        elif opcode is VectorOpcode.VMAX_VS:
            dst[:] = np.maximum(src, dtype(op.scalar))
        elif opcode is VectorOpcode.VMIN_VS:
            dst[:] = np.minimum(src, dtype(op.scalar))
        elif opcode is VectorOpcode.VSRA_VS:
            dst[:] = src >> int(op.scalar)
        elif opcode is VectorOpcode.VREDSUM:
            # Wrap the int64 total straight through the element dtype (the
            # old ``& -1`` int64 mask was a no-op on the way to the cast).
            total = src.astype(np.int64).sum()
            dst_view[op.vd_offset] = total.astype(dtype)
        else:  # pragma: no cover - enum is closed
            raise NotImplementedError(opcode)
        return cycles

    def _gather(
        self, vs: int, etype: ElementType, vl: int, offset: int, stride: int,
        vd: int = -1,
    ) -> np.ndarray:
        view = self.vrf.view(vs, etype)
        if stride == 1:
            src = view[offset : offset + vl]
            if len(src) != vl:
                raise ValueError(
                    f"vl={vl} at offset={offset} overflows source register {vs}"
                )
            return src.copy() if vs == vd else src
        last = offset + stride * (vl - 1)
        if last >= len(view):
            raise ValueError(
                f"strided access (off={offset}, stride={stride}, vl={vl}) "
                f"overflows source register {vs}"
            )
        # Strided slice *view* instead of a fancy-index temp array: no
        # per-op index-array allocation.  Only reads aliasing the
        # destination register still need a defensive copy (``dst[:] =
        # src`` with overlapping views is undefined).
        src = view[offset : last + 1 : stride]
        return src.copy() if vs == vd else src

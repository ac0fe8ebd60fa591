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
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.sim.stats import StatsRegistry
from repro.vpu.visa import VectorOp, VectorOpcode
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
        #: strided source windows of fused tap rows, per (width, vl, stride)
        self._tap_windows: dict = {}
        self._reduction_cycles = max(
            1, int(math.log2(lanes)) if lanes > 1 else 1
        )

    # -- timing ----------------------------------------------------------

    def op_cycles(self, op: VectorOp) -> int:
        """Cycle cost of executing ``op`` on this VPU.

        The single source of the timing formula — ``execute`` and kernel
        replay both charge through here.  Traits come from the precomputed
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

    def count(self, n_ops: int, cycles: int, elems: int) -> None:
        """Bump the per-VPU counters for ``n_ops`` ops executed at once."""
        self._c_ops.value += n_ops
        self._c_cycles.value += cycles
        self._c_elems.value += elems

    def execute(self, op: VectorOp) -> int:
        """Execute ``op`` functionally; return its cycle cost."""
        cycles = self.op_cycles(op)
        # hot path: counters are monotonic by construction, bump directly
        self._c_ops.value += 1
        self._c_cycles.value += cycles
        self._c_elems.value += op.vl
        run = self.bind(op)
        if run is not None:
            run()
        return cycles

    def bind(self, op: VectorOp) -> Optional[Callable[[], None]]:
        """Bind ``op`` to a no-argument callable over this VPU's registers.

        The single definition of the vector ISA's semantics: register
        views, slices, scalar casts and bounds checks are resolved here,
        and calling the result does only the numpy work.  ``execute``
        binds and calls once; kernel replay binds each recorded op once
        and calls it on every replay (register views alias line buffers
        that are never reallocated, so a bound op stays valid).  Returns
        None for ``vl == 0``, which has no functional effect.

        Integer arithmetic is defined as int64-then-truncate.  Truncation
        mod 2**w is a ring homomorphism, so add/mul/macc computed directly
        in the wrapping element dtype, with the scalar pre-wrapped, give
        the same bits without widening copies.  Sources may alias the
        destination: ufuncs resolve overlapping operands as if the source
        were copied first.
        """
        vl = op.vl
        if vl == 0:
            return None
        opcode = op.opcode
        etype = op.etype
        dtype = etype.np_dtype
        dst_view = self.vrf.view(op.vd, etype)
        dst = dst_view[op.vd_offset : op.vd_offset + vl]
        if len(dst) != vl:
            raise ValueError(
                f"vl={vl} at vd_offset={op.vd_offset} overflows register {op.vd}"
            )
        if opcode is VectorOpcode.VCLEAR:
            return partial(dst.fill, 0)

        # vs1: a contiguous or strided slice view (no index-array temp)
        view = self.vrf.view(op.vs1, etype)
        offset, stride = op.offset, op.stride
        last = offset + stride * (vl - 1)
        if last >= len(view):
            raise ValueError(
                f"access (off={offset}, stride={stride}, vl={vl}) "
                f"overflows source register {op.vs1}"
            )
        src = view[offset : last + 1 : stride]
        if opcode is VectorOpcode.VMACC_VS:
            wrapped = np.int64(op.scalar).astype(dtype)
            def macc() -> None:
                np.add(dst, np.multiply(src, wrapped), out=dst)
            return macc
        if opcode is VectorOpcode.VREDSUM:
            vd_offset = op.vd_offset
            def redsum() -> None:
                # the int64 total wraps straight through the element dtype
                dst_view[vd_offset] = src.astype(np.int64).sum().astype(dtype)
            return redsum

        # every other opcode is one (overlap-safe) ufunc call into vd
        if opcode is VectorOpcode.VMV:
            ufunc, operands = np.positive, (src,)
        elif opcode is VectorOpcode.VADD_VV or opcode is VectorOpcode.VMUL_VV:
            ufunc = np.add if opcode is VectorOpcode.VADD_VV else np.multiply
            operands = (src, self.vrf.view(op.vs2, etype)[:vl])
        elif opcode is VectorOpcode.VMUL_VS or opcode is VectorOpcode.VADD_VS:
            ufunc = np.multiply if opcode is VectorOpcode.VMUL_VS else np.add
            operands = (src, np.int64(op.scalar).astype(dtype))
        elif opcode is VectorOpcode.VMAX_VV:
            ufunc, operands = np.maximum, (dst, src)
        elif opcode is VectorOpcode.VMAX_VS or opcode is VectorOpcode.VMIN_VS:
            ufunc = np.maximum if opcode is VectorOpcode.VMAX_VS else np.minimum
            operands = (src, dtype(op.scalar))  # raises outside the dtype range
        elif opcode is VectorOpcode.VSRA_VS:
            ufunc, operands = np.right_shift, (src, int(op.scalar))
        else:  # pragma: no cover - enum is closed
            raise NotImplementedError(opcode)
        return partial(ufunc, *operands, out=dst)

    def bind_taps(self, taps, skip_null: bool) -> Callable[[], int]:
        """Bind a row of filter taps to one fused call; it returns how many
        ``VMACC_VS`` the eCPU issues.

        ``taps`` are ``(vreg, index, etype, factor, op)`` slots of
        :meth:`~repro.runtime.context.KernelContext.macc_tap`: tap ``j``
        reads ``vreg[index]`` as ``etype`` and is ``op`` (a ``VMACC_VS``)
        with the scalar ``factor * value``.  The slots share ``vd``,
        ``vd_offset``, ``vl``, element type and stride, and none after the
        first reads ``vd`` (as its tap or its source), so every tap and
        source can be read up front.  The MACs then sum in int64 and
        truncate once into ``vd``: the bits of issuing them one by one
        through :meth:`bind`, since truncation mod 2**w is a ring
        homomorphism.  A null tap's scalar is zero and adds nothing, so
        the sum never skips one; the issued count is the non-zero scalars
        under ``skip_null``, else every tap.
        """
        first = taps[0][4]
        read_etype = taps[0][2]
        shape = (first.etype, first.vl, first.stride, first.vd, first.vd_offset)
        for j, (vreg, index, etype, _, op) in enumerate(taps):
            if (
                op.opcode is not VectorOpcode.VMACC_VS or etype is not read_etype
                or (op.etype, op.vl, op.stride, op.vd, op.vd_offset) != shape
                or (j and first.vd in (vreg, op.vs1))
            ):
                raise ValueError(f"tap {op!r} cannot join a fused row into v{first.vd}")
            self.vrf.view(vreg, read_etype)[index]  # the slow path's bounds
            self.bind(op)  # checks, made once here
        start = first.vd_offset
        dst = self.vrf.view(first.vd, first.etype)[start : start + first.vl]
        per_read = self.vrf.max_vl(read_etype)
        per = self.vrf.max_vl(first.etype)
        positions = np.array(
            [vreg * per_read + index for vreg, index, _, _, _ in taps], dtype=np.intp
        )
        factors = np.array([slot[3] for slot in taps], dtype=np.int64)
        starts = np.array([op.vs1 * per + op.offset for *_, op in taps], dtype=np.intp)
        reads = self.vrf.flat(read_etype)
        window = self._tap_window(first.etype, first.vl, first.stride)
        dtype = first.etype.np_dtype
        n_taps = len(taps)

        def row() -> int:
            scalars = reads[positions] * factors
            np.add(dst, (scalars @ window[starts]).astype(dtype), out=dst)
            return int(np.count_nonzero(scalars)) if skip_null else n_taps
        return row

    def _tap_window(self, etype, vl: int, stride: int) -> np.ndarray:
        """Read-only strided view whose row ``p`` is the ``vl`` elements
        ``flat[p], flat[p + stride], ...`` of the flat register file."""
        key = (etype.nbytes, vl, stride)
        window = self._tap_windows.get(key)
        if window is None:
            flat = self.vrf.flat(etype)
            size = flat.itemsize
            window = np.lib.stride_tricks.as_strided(
                flat, shape=(len(flat) - stride * (vl - 1), vl),
                strides=(size, stride * size), writeable=False,
            )
            self._tap_windows[key] = window
        return window

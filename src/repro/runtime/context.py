"""The micro-program API kernels are written against.

A kernel body is a generator that receives a :class:`KernelContext` bound
to the VPU the scheduler selected.  The context exposes:

* register-window management (``claim`` / ``release``);
* DMA in/out through the Matrix Allocator (charged to the *allocation*
  and *writeback* phase buckets of Figure 3);
* vector-instruction dispatch (charged to *compute*, with the pipelined
  ``max(issue, execute)`` cost of the eCPU/VPU pair);
* filter taps (:meth:`KernelContext.macc_tap`): the eCPU fetches a
  coefficient out of a vector register and issues one ``vmacc.vs`` with
  it unless it is null — the only way a shipped kernel's control flow
  depends on operand data.  :meth:`KernelContext.macc_row` issues a whole
  row of taps into one accumulator as one fused call, bound by
  :meth:`Vpu.bind_taps` — the definition kernel replay runs too;
* plain scalar element reads, for bodies that branch on data some other
  way (kernel replay never replays those).

Keeping phase accounting inside the context means kernels cannot forget
to charge a phase — every effect they can cause is a context call.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.runtime.allocator import MatrixAllocator, RegisterWindow
from repro.runtime.matrix import MatrixBinding
from repro.runtime.phases import PhaseBreakdown
from repro.vpu.dispatcher import Dispatcher
from repro.vpu.visa import ElementType, VectorOp, VectorOpcode


class KernelContext:
    """Execution context handed to a kernel body by the scheduler."""

    #: eCPU cycles to read one element out of a vector register via the
    #: memory-mapped window (load + address computation in the C-RT).
    SCALAR_READ_CYCLES = 4

    def __init__(
        self,
        vpu_index: int,
        etype: ElementType,
        allocator: MatrixAllocator,
        dispatcher: Dispatcher,
        phases: PhaseBreakdown,
    ) -> None:
        self.vpu_index = vpu_index
        self.etype = etype
        self.allocator = allocator
        self.dispatcher = dispatcher
        self.phases = phases
        self.sim = allocator.sim
        self._windows: List[RegisterWindow] = []
        #: fused tap rows bound by :meth:`macc_row`, for this launch
        self._rows: dict = {}

    # -- register windows ---------------------------------------------------

    @property
    def vpu(self):
        return self.dispatcher.vpu(self.vpu_index)

    @property
    def max_vl(self) -> int:
        return self.vpu.vrf.max_vl(self.etype)

    def free_regs(self) -> int:
        return self.allocator.free_regs(self.vpu_index)

    def claim(self, count: int) -> RegisterWindow:
        window = self.allocator.claim(self.vpu_index, count)
        self._windows.append(window)
        return window

    def release_all(self) -> None:
        """Return every window claimed through this context (scheduler epilogue)."""
        for window in self._windows:
            if window.vregs:
                self.allocator.release(window)
        self._windows.clear()

    # -- data movement --------------------------------------------------------

    def load_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
    ) -> Generator:
        cycles = yield from self.allocator.load_rows(
            window, matrix, row_start, n_rows, reg_start
        )
        self.phases.add("allocation", cycles)
        return cycles

    def load_packed(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        reg_index: int = 0,
    ) -> Generator:
        cycles = yield from self.allocator.load_packed(window, matrix, reg_index)
        self.phases.add("allocation", cycles)
        return cycles

    def load_row_set(self, specs) -> Generator:
        """Synchronous batched row load (one lock acquisition)."""
        cycles = yield from self.allocator.load_row_set(specs)
        self.phases.add("allocation", cycles)
        return cycles

    def prefetch_row_set(self, specs):
        """Start a double-buffered row load running concurrently with compute.

        Returns a handle to pass to :meth:`wait_prefetch`.  Only the
        *exposed* wait time (DMA cycles not hidden under compute) is
        charged to the allocation phase — this is the wall-clock
        attribution behind Figure 3's allocation share.
        """
        generator = self.allocator.load_row_set(specs)
        return self.sim.process(generator, name=f"prefetch.vpu{self.vpu_index}")

    def wait_prefetch(self, handle) -> Generator:
        """Join an outstanding prefetch; charge only the exposed wait."""
        if handle is None:
            return 0
        started = self.sim.now
        if not handle.finished:
            yield handle
        exposed = self.sim.now - started
        self.phases.add("allocation", exposed)
        return exposed

    def store_rows(
        self,
        window: RegisterWindow,
        matrix: MatrixBinding,
        row_start: int,
        n_rows: int,
        reg_start: int = 0,
        n_cols: Optional[int] = None,
    ) -> Generator:
        cycles = yield from self.allocator.store_rows(
            window, matrix, row_start, n_rows, reg_start, n_cols
        )
        self.phases.add("writeback", cycles)
        return cycles

    # -- compute ---------------------------------------------------------------

    def vop(
        self,
        opcode: VectorOpcode,
        vd: int,
        vs1: int = 0,
        vs2: int = 0,
        vl: int = 0,
        scalar: int = 0,
        offset: int = 0,
        stride: int = 1,
        vd_offset: int = 0,
        etype: Optional[ElementType] = None,
    ) -> Generator:
        """Dispatch one vector instruction; yields its pipelined cost."""
        op = VectorOp(
            opcode=opcode,
            etype=etype or self.etype,
            vd=vd,
            vs1=vs1,
            vs2=vs2,
            vl=vl,
            scalar=scalar,
            offset=offset,
            stride=stride,
            vd_offset=vd_offset,
        )
        return self._issue(op)

    def _issue(self, op: VectorOp) -> Generator:
        """Issue one built :class:`VectorOp` (replay-recording hook point)."""
        return self._dispatch(op)

    def _dispatch(self, op: VectorOp) -> Generator:
        cost = self.dispatcher.dispatch(self.vpu_index, op)
        self.phases.add("compute", cost)
        if not self.sim.advance(cost):
            yield cost
        return cost

    def read_element(self, vreg: int, index: int, etype: Optional[ElementType] = None) -> Generator:
        """eCPU reads one element from a vector register (returns its value)."""
        etype = etype or self.etype
        value = int(self.vpu.vrf.view(vreg, etype)[index])
        self.phases.add("compute", self.SCALAR_READ_CYCLES)
        if not self.sim.advance(self.SCALAR_READ_CYCLES):
            yield self.SCALAR_READ_CYCLES
        return value

    def macc_tap(
        self,
        vreg: int,
        index: int,
        vd: int,
        vs1: int,
        vl: int,
        factor: int = 1,
        skip_null: bool = True,
        offset: int = 0,
        stride: int = 1,
        etype: Optional[ElementType] = None,
    ) -> Generator:
        """One filter tap: ``vd += vs1[offset::stride] * (factor * vreg[index])``.

        The eCPU reads the tap out of the vector register (like
        :meth:`read_element`) and issues one ``vmacc.vs`` with the scalar
        ``factor * tap``; with ``skip_null`` a zero scalar issues nothing
        (the software decoder skips null contributions).  ``factor`` and
        ``skip_null`` must be launch constants, and the tap value is not
        returned: whether the MAC issues is the only control flow operand
        data reaches, which is what lets kernel replay keep one recording
        per geometry.  A row of taps into one ``vd`` is cheaper through
        :meth:`macc_row`.
        """
        etype = etype or self.etype
        # the read_element body, inline: this runs once per tap
        scalar = factor * int(self.vpu.vrf.view(vreg, etype)[index])
        self.phases.add("compute", self.SCALAR_READ_CYCLES)
        if not self.sim.advance(self.SCALAR_READ_CYCLES):
            yield self.SCALAR_READ_CYCLES
        if scalar or not skip_null:
            yield from self._dispatch(
                VectorOp(
                    opcode=VectorOpcode.VMACC_VS, etype=etype, vd=vd, vs1=vs1,
                    vl=vl, scalar=scalar, offset=offset, stride=stride,
                )
            )

    def macc_row(
        self,
        vd: int,
        taps,
        vl: int,
        factor: int = 1,
        skip_null: bool = True,
        stride: int = 1,
        etype: Optional[ElementType] = None,
    ) -> Generator:
        """A row of filter taps into ``vd``: exactly
        ``macc_tap(vreg, index, vd, vs1, vl, factor, skip_null, offset,
        stride, etype)`` for each ``(vreg, index, vs1, offset)`` of ``taps``,
        in order — same bits, cycles, phases and counters.

        The row runs as one fused call bound by :meth:`Vpu.bind_taps` (so no
        tap after the first may read ``vd``), cached on this context for
        the rest of the launch.  Each call charges every tap's read plus the
        pipelined cost of each MAC the eCPU issues, counts those MACs as
        dispatches, and advances the simulator once.
        """
        if not taps:
            return
        etype = etype or self.etype
        key = (vd, tuple(taps), vl, factor, skip_null, stride, etype)
        bound = self._rows.get(key)
        if bound is None:
            bound = self._rows[key] = self._bind_row(
                vd, taps, vl, factor, skip_null, stride, etype
            )
        run, cycles, unit = bound
        issued = run()
        if issued:
            cycles += issued * unit[-1]
            self.dispatcher.charge(
                self.vpu_index, tuple(issued * field for field in unit)
            )
        self.phases.add("compute", cycles)
        if not self.sim.advance(cycles):
            yield cycles

    def _bind_row(self, vd, taps, vl, factor, skip_null, stride, etype):
        """``(run, read cycles, per-MAC tally)`` of one :meth:`macc_row`."""
        per = self.vpu.vrf.max_vl(etype)
        slots = [
            (vreg, range(per)[index], etype, factor, VectorOp(
                opcode=VectorOpcode.VMACC_VS, etype=etype, vd=vd, vs1=vs1, vl=vl,
                offset=offset, stride=stride,
            ))
            for vreg, index, vs1, offset in taps
        ]
        run = self.vpu.bind_taps(slots, skip_null)
        unit = self.dispatcher.tally(self.vpu_index, [slots[0][4]])
        return run, len(taps) * self.SCALAR_READ_CYCLES, unit

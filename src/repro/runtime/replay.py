"""The kernel replay cache — the serving-path fast lane.

Serving workloads launch the same kernels over the same *geometries*
thousands of times, with fresh operand data on every request, yet the
stock scheduler re-runs the kernel body's Python tile-loop generator on
every launch: thousands of generator suspensions, ``VectorOp``
constructions and per-row bookkeeping just to re-derive a micro-program
stream that, apart from which filter taps are null, is fully determined
by the launch key.  This module separates the *schedule* from its
*execution* (the Exo/SYS_ATL split of algorithm from schedule, applied
to a simulator): the recording is the schedule, and the live operands
are the data.  The second sighting of a launch key records the stream of
:class:`~repro.runtime.context.KernelContext` effects, and later
launches replay that stream in a tight loop with a single simulator
suspension.  The first sighting only remembers the key
(:meth:`ReplayCache.admit`): a geometry seen once may never come back,
and recording it would cost a slow launch's worth of bookkeeping and
memory for nothing.

Bit-exactness contract
----------------------

Replays reproduce the slow path exactly — results, ``RunReport`` cycle
counts, phase breakdowns and stats counters — because every effect
re-executes against live memory, cache and VRF state through the code
the slow path runs:

* vector ops are bound once per recording by :meth:`Vpu.bind` (what
  :meth:`Vpu.execute` calls) and priced by :meth:`Dispatcher.tally`;
* filter taps (:meth:`KernelContext.macc_tap` and its row form
  :meth:`~KernelContext.macc_row`, the only primitives whose control
  flow sees operand data) are recorded as *predicated* steps, one per
  tap — tap register, index, element type, launch-constant factor and
  the ``vmacc.vs`` template, never a value.  Replay reads every tap
  live; a row's run of taps into one ``vd`` is one fused call bound by
  :meth:`Vpu.bind_taps` — the same definition an interpreted
  ``macc_row`` runs — which returns how many MACs the eCPU issues, and
  only those are charged: each tap's read cycles plus, per issued MAC,
  its pipelined cost and dispatch counters from a per-slot tally;
* DMA rows move through :meth:`MatrixAllocator.load_row` and
  :meth:`~MatrixAllocator.store_row`, so each row's cycle cost comes from
  live cache-hit state and injected faults hit a replayed row exactly as
  they hit an interpreted one;
* only the LLC-lock serialization of loads, stores and double-buffered
  prefetches is modelled, as a closed-form timeline (a prefetch holds the
  lock until its last row, later locked sections start no earlier than
  that, and ``wait_prefetch`` charges only the exposed cycles, which
  follow from the live compute cycles on their own) — the same arrival
  times the event loop would produce.

Recordings are keyed on geometry, not data, so they hold no operand
values: a fault that corrupts data while a recording is made cannot
poison it.  A body that branches on data any other way — a plain
``read_element`` — poisons its recording, which then never replays.

Recordings reference operands by *position* (source index / destination)
and rows by index, never by absolute address, so ``free_matrix()`` /
``reset_heap()`` recycling heap addresses between launches cannot stale a
recording — the canonical serving flow (reset between requests) replays
at full speed.  What *does* invalidate recordings:

* reprogramming a library slot (``KernelLibrary.generation`` mismatch);
* a different VPU selection, operand geometry or scalar set (all part
  of the key — a miss, not a wrong replay);
* an environment the timeline model cannot promise to reproduce (LLC
  lock held or host access in flight at launch, a different VRF
  free-list state, multi-VPU sharding) — the launch silently takes the
  slow path ("bypassed").

Kernel bodies interact with the machinery only through the closed
:class:`KernelContext` API; a body that mutated simulator state behind
the context's back would record an incomplete stream, which the
phase-accounting cross-check in :meth:`Recording.finalize` turns into a
poisoned (never replayed) recording rather than a wrong replay.

Concurrency envelope
--------------------

A replayed body is atomic: all effects land at its start cycle, then one
suspension covers its duration.  Host accesses to the kernel's *operand
regions* cannot tell the difference — they are hazard-blocked by the
Address Table until operand release in both paths.  Host traffic to
**unrelated addresses that begins mid-kernel** is outside the replay
guarantee: in the slow path it would interleave with (and stall on) the
body's locked DMA sections, while a replay has already applied them.
``can_replay`` rejects launches with the LLC lock held or a host access
in flight, which covers every launch-time race; serving workloads — the
fast path's purpose — issue only offloads while kernels execute, so no
such traffic exists there.  Debugging a workload that does mix them:
``ARCANE_NO_FASTPATH=1``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Generator, List, Optional, Tuple

from repro.runtime.context import KernelContext
from repro.runtime.matrix import MatrixBinding
from repro.runtime.queue import QueuedKernel
from repro.vpu.visa import VectorOp, VectorOpcode

#: Step opcodes of the recorded effect stream.
STEP_CLAIM, STEP_LOAD, STEP_STORE, STEP_VOP, STEP_TAP, STEP_PREFETCH, STEP_WAIT = (
    range(7)
)


def fastpath_enabled(flag: bool) -> bool:
    """Resolve the effective fast-path switch (``ARCANE_NO_FASTPATH=1``
    overrides any constructor/config request to enable it)."""
    return flag and os.environ.get("ARCANE_NO_FASTPATH", "") in ("", "0")


class Recording:
    """One kernel launch's recorded effect stream plus replay guards."""

    __slots__ = (
        "steps",
        "replayable",
        "reason",
        "free_regs",
        "vpu_index",
        "outstanding",
        "phase_check",
    )

    def __init__(self, vpu_index: int, free_regs: List[int]) -> None:
        self.steps: List[tuple] = []
        self.replayable = True
        self.reason = ""
        #: exact VRF free-list at recording start; replay requires equality
        #: (claim order and strip-mining budgets both derive from it).
        self.free_regs = list(free_regs)
        self.vpu_index = vpu_index
        self.outstanding: set = set()
        #: phase cycles attributable to recorded steps, cross-checked
        #: against the actual breakdown delta in :meth:`finalize`.
        self.phase_check: Dict[str, int] = {}

    def poison(self, reason: str) -> None:
        """Mark the recording as slow-path-only (kept to avoid re-recording)."""
        if self.replayable:
            self.replayable = False
            self.reason = reason
            self.steps.clear()

    def note_phase(self, phase: str, cycles: int) -> None:
        self.phase_check[phase] = self.phase_check.get(phase, 0) + cycles

    def finalize(self, phase_delta: Dict[str, int]) -> bool:
        """Validate the completed recording; returns its replayability.

        ``phase_delta`` is what the kernel body actually added to its
        :class:`PhaseBreakdown`; any cycles not accounted for by recorded
        steps mean the body produced effects the recorder did not see
        (e.g. direct ``phases.add`` calls), so the recording is poisoned
        instead of ever replaying incompletely.
        """
        if self.outstanding:
            self.poison("prefetch started but never waited on")
        checked = {k: v for k, v in self.phase_check.items() if v}
        actual = {k: v for k, v in phase_delta.items() if v}
        if self.replayable and checked != actual:
            self.poison(
                f"phase accounting mismatch (recorded {checked}, body added "
                f"{actual}); the body bypassed the KernelContext API"
            )
        return self.replayable


class RecordingContext(KernelContext):
    """A :class:`KernelContext` that mirrors every effect into a recording.

    Timing, stats and functional behaviour are untouched — each call
    delegates to the stock implementation and appends one step, so the
    recording launch is indistinguishable from a plain slow-path launch.
    A tap's step holds its predicate, never its value; a plain
    ``read_element`` poisons the recording instead.
    """

    def __init__(
        self,
        vpu_index: int,
        etype,
        allocator,
        dispatcher,
        phases,
        kernel: QueuedKernel,
        recording: Recording,
    ) -> None:
        super().__init__(vpu_index, etype, allocator, dispatcher, phases)
        self._kernel = kernel
        self._rec = recording
        self._handle_ords: Dict[int, int] = {}
        self._next_handle = 0
        #: equal steps and op templates recur row after row; the recording
        #: keeps one object per distinct value
        self._interned: dict = {}

    # -- operand references ------------------------------------------------

    def _ref(self, matrix: MatrixBinding) -> Optional[tuple]:
        """Positional reference of ``matrix`` among the kernel's operands.

        Derived bindings (a sub-plane view a body builds over an operand,
        like conv_layer's per-channel filter planes) are recorded as a
        base-relative rebase so a replay against relocated operands
        reconstructs them at the new address.
        """
        kernel = self._kernel
        for index, source in enumerate(kernel.sources):
            if source is matrix:
                return ("s", index)
        if matrix is kernel.dest:
            return ("d",)
        bases: List[Tuple[tuple, MatrixBinding]] = [
            (("s", i), s) for i, s in enumerate(kernel.sources)
        ]
        if kernel.dest is not None:
            bases.append((("d",), kernel.dest))
        for base_ref, base in bases:
            if (
                base.address <= matrix.address
                and matrix.end_address <= base.end_address
                and base.etype is matrix.etype
            ):
                return (
                    "rel",
                    base_ref,
                    matrix.address - base.address,
                    matrix.rows,
                    matrix.cols,
                    matrix.stride,
                )
        self._rec.poison(f"binding {matrix!r} is not derived from a kernel operand")
        return None

    # -- recorded context calls --------------------------------------------

    def claim(self, count: int):
        window = super().claim(count)
        if self._rec.replayable:
            self._rec.steps.append((STEP_CLAIM, count))
        return window

    def _section(self, rows) -> Optional[tuple]:
        """Positional items ``(ref, register, row, arg)`` of one locked
        transfer section; None once the recording is poisoned."""
        if not self._rec.replayable:
            return None
        items = []
        for matrix, register, row, arg in rows:
            ref = self._ref(matrix)
            if ref is None:
                return None
            items.append((ref, register, row, arg))
        return tuple(items)

    def _record_section(self, kind: int, rows, phase: str, cycles: int) -> None:
        items = self._section(rows)
        if items:
            self._rec.steps.append((kind, items))
            self._rec.note_phase(phase, cycles)

    def load_rows(self, window, matrix, row_start, n_rows, reg_start=0) -> Generator:
        cycles = yield from super().load_rows(window, matrix, row_start, n_rows, reg_start)
        rows = [(matrix, window[reg_start + i], row_start + i, 0) for i in range(n_rows)]
        self._record_section(STEP_LOAD, rows, "allocation", cycles)
        return cycles

    def load_packed(self, window, matrix, reg_index=0) -> Generator:
        cycles = yield from super().load_packed(window, matrix, reg_index)
        register = window[reg_index]
        rows = [(matrix, register, row, row * matrix.cols) for row in range(matrix.rows)]
        self._record_section(STEP_LOAD, rows, "allocation", cycles)
        return cycles

    def load_row_set(self, specs) -> Generator:
        cycles = yield from super().load_row_set(specs)
        rows = [(matrix, window[reg], row, 0) for window, matrix, row, reg in specs]
        self._record_section(STEP_LOAD, rows, "allocation", cycles)
        return cycles

    def prefetch_row_set(self, specs):
        handle = super().prefetch_row_set(specs)
        items = self._section(
            [(matrix, window[reg], row, 0) for window, matrix, row, reg in specs]
        )
        if items is not None:
            ordinal = self._next_handle
            self._next_handle += 1
            self._handle_ords[id(handle)] = ordinal
            self._rec.outstanding.add(ordinal)
            self._rec.steps.append((STEP_PREFETCH, ordinal, items))
        return handle

    def wait_prefetch(self, handle) -> Generator:
        exposed = yield from super().wait_prefetch(handle)
        if handle is not None and self._rec.replayable:
            ordinal = self._handle_ords.pop(id(handle), None)
            if ordinal is None:
                self._rec.poison("wait_prefetch on a handle this kernel did not start")
            else:
                self._rec.outstanding.discard(ordinal)
                self._rec.steps.append((STEP_WAIT, ordinal))
                self._rec.note_phase("allocation", exposed)
        return exposed

    def store_rows(
        self, window, matrix, row_start, n_rows, reg_start=0, n_cols=None
    ) -> Generator:
        cycles = yield from super().store_rows(
            window, matrix, row_start, n_rows, reg_start, n_cols
        )
        n_cols = matrix.cols if n_cols is None else n_cols
        rows = [
            (matrix, window[reg_start + i], row_start + i, n_cols) for i in range(n_rows)
        ]
        self._record_section(STEP_STORE, rows, "writeback", cycles)
        return cycles

    def _intern(self, value):
        return self._interned.setdefault(value, value)

    def _issue(self, op: VectorOp) -> Generator:
        cost = yield from super()._issue(op)
        if self._rec.replayable:
            self._rec.steps.append(self._intern((STEP_VOP, self._intern(op))))
            self._rec.note_phase("compute", cost)
        return cost

    def macc_tap(
        self, vreg, index, vd, vs1, vl, factor=1, skip_null=True, offset=0,
        stride=1, etype=None,
    ) -> Generator:
        compute = self.phases.cycles.get("compute", 0)
        yield from super().macc_tap(
            vreg, index, vd, vs1, vl, factor, skip_null, offset, stride, etype
        )
        self._record_taps(
            compute, vd, [(vreg, index, vs1, offset)], vl, factor, skip_null,
            stride, etype,
        )

    def macc_row(
        self, vd, taps, vl, factor=1, skip_null=True, stride=1, etype=None,
    ) -> Generator:
        compute = self.phases.cycles.get("compute", 0)
        yield from super().macc_row(vd, taps, vl, factor, skip_null, stride, etype)
        self._record_taps(compute, vd, taps, vl, factor, skip_null, stride, etype)

    def _record_taps(
        self, compute, vd, taps, vl, factor, skip_null, stride, etype,
    ) -> None:
        """One predicated ``STEP_TAP`` per tap, whichever call issued it."""
        if not self._rec.replayable:
            return
        etype = etype or self.etype
        per = self.vpu.vrf.max_vl(etype)
        for vreg, index, vs1, offset in taps:
            template = self._intern(VectorOp(
                opcode=VectorOpcode.VMACC_VS, etype=etype, vd=vd, vs1=vs1, vl=vl,
                offset=offset, stride=stride,
            ))
            index %= per  # the slow path read it
            self._rec.steps.append(self._intern(
                (STEP_TAP, vreg, index, etype, factor, bool(skip_null), template)
            ))
        self._rec.note_phase("compute", self.phases.cycles.get("compute", 0) - compute)

    def read_element(self, vreg, index, etype=None) -> Generator:
        # the body branches on operand data outside macc_tap: a recording
        # keyed on geometry cannot replay that
        self._rec.poison("plain read_element (data-dependent control flow)")
        return super().read_element(vreg, index, etype)


def _resolve_ref(ref: tuple, kernel: QueuedKernel) -> MatrixBinding:
    if ref[0] == "s":
        return kernel.sources[ref[1]]
    if ref[0] == "d":
        return kernel.dest
    _, base_ref, delta, rows, cols, stride = ref
    base = _resolve_ref(base_ref, kernel)
    return MatrixBinding(
        address=base.address + delta, rows=rows, cols=cols, stride=stride,
        etype=base.etype,
    )


#: compiled-segment marker for a run of compute (VOP/TAP) steps
_SEG_OPS = -1


def _row_key(step: tuple) -> tuple:
    """Taps with equal keys may share one fused row (see ``Vpu.bind_taps``)."""
    _, _, _, etype, _, skip_null, op = step
    return (op.etype, op.vl, op.stride, op.vd, op.vd_offset, etype, skip_null)


def _compile_steps(recording: Recording, scheduler, vpu_index: int) -> list:
    """Fuse runs of compute steps into pre-bound segments.

    A run collapses to one segment ``(_SEG_OPS, items, cycles, tally)``:
    ``items`` pairs each callable with None (a plain op, bound once
    through :meth:`Vpu.bind` — the same definition ``Vpu.execute`` runs)
    or with the per-MAC tally of a fused tap row (bound through
    :meth:`Vpu.bind_taps`; calling it returns the MACs issued).
    ``cycles`` and ``tally`` price the run's plain ops and tap reads once
    by :meth:`Dispatcher.tally`: those costs depend only on the op fields
    and the machine geometry.  Consecutive taps into one ``vd`` share a
    row until a tap reads ``vd`` itself.  Equal ops and rows share one
    binding.  DMA/claim steps pass through untouched: their costs depend
    on live cache state.
    """
    dispatcher = scheduler.dispatcher
    vpu = dispatcher.vpus[vpu_index]
    scalar_read = KernelContext.SCALAR_READ_CYCLES
    segments: list = []
    items: list = []
    ops: List[VectorOp] = []
    reads = 0
    row: list = []
    bound: dict = {}

    def flush_row() -> None:
        nonlocal row
        if row:
            key = tuple(row)
            run = bound.get(key)
            if run is None:
                run = bound[key] = vpu.bind_taps(
                    [step[1:5] + (step[6],) for step in row], row[0][5]
                )
            items.append((run, dispatcher.tally(vpu_index, [row[0][6]])))
        row = []

    def flush() -> None:
        nonlocal items, ops, reads
        flush_row()
        if items or ops:  # a vl == 0 op binds to nothing but still costs
            tally = dispatcher.tally(vpu_index, ops)
            segments.append(
                (_SEG_OPS, tuple(items), tally[-1] + reads * scalar_read, tally)
            )
        items, ops, reads = [], [], 0

    for step in recording.steps:
        kind = step[0]
        if kind == STEP_TAP:
            op = step[6]
            if row and (
                _row_key(step) != _row_key(row[0]) or op.vd in (step[1], op.vs1)
            ):
                flush_row()
            row.append(step)
            reads += 1
        elif kind == STEP_VOP:
            flush_row()
            op = step[1]
            ops.append(op)
            if op not in bound:
                bound[op] = vpu.bind(op)
            if bound[op] is not None:
                items.append((bound[op], None))
        else:
            flush()
            segments.append(step)
    flush()
    return segments


def replay_kernel(
    recording: Recording,
    kernel: QueuedKernel,
    context: KernelContext,
    scheduler,
    compiled: list,
) -> Generator:
    """Simulation process: replay a recorded kernel in one suspension.

    Rows move through the allocator's own per-row functions, in LLC-lock
    acquisition order (exactly the order the event loop serializes them
    in), so their cycle costs come from live cache state; tap rows issue
    only their live non-null MACs, whose cycles join their segment's; the
    lock itself is a closed-form timeline, and the whole body advances
    the simulator with a single ``yield`` of its total duration.
    """
    allocator = scheduler.allocator
    dispatcher = scheduler.dispatcher
    vpu_index = context.vpu_index
    vrf = allocator.vpus[vpu_index].vrf
    lock_overhead = allocator.lock_overhead_cycles
    load_row = allocator.load_row
    store_row = allocator.store_row

    t = 0  # body-relative cycle offset
    lock_free = 0  # when the LLC lock is next free (prefetches hold it)
    pending: Dict[int, int] = {}  # prefetch ordinal -> completion offset
    compute = alloc_cycles = wb_cycles = 0
    issued: Dict[tuple, int] = {}  # per-MAC tally -> tap MACs issued
    bindings: Dict[tuple, MatrixBinding] = {}

    def binding_of(ref: tuple) -> MatrixBinding:
        binding = bindings.get(ref)
        if binding is None:
            binding = _resolve_ref(ref, kernel)
            bindings[ref] = binding
        return binding

    def section(items: tuple, store: bool = False) -> int:
        """Move and count one locked section's rows; return their DMA cycles."""
        move = store_row if store else load_row
        total = 0
        for ref, reg, row, arg in items:
            total += move(vrf, binding_of(ref), row, reg, arg)
        allocator.count_section(len(items), total, store)
        return total

    for step in compiled:
        kind = step[0]
        if kind == _SEG_OPS:
            _, items, cycles, tally = step
            for run, unit in items:
                if unit is None:
                    run()
                else:
                    n = run()
                    if n:
                        cycles += n * unit[-1]
                        issued[unit] = issued.get(unit, 0) + n
            t += cycles
            compute += cycles
            if tally[0]:
                dispatcher.charge(vpu_index, tally)
        elif kind == STEP_LOAD or kind == STEP_STORE:
            store = kind == STEP_STORE
            start = t if t >= lock_free else lock_free
            total = section(step[1], store)
            t = lock_free = start + lock_overhead + total
            if store:
                wb_cycles += total
            else:
                alloc_cycles += total
        elif kind == STEP_PREFETCH:
            _, ordinal, items = step
            if items:
                start = t if t >= lock_free else lock_free
                end = lock_free = start + lock_overhead + section(items)
            else:
                end = t
            pending[ordinal] = end
        elif kind == STEP_WAIT:
            end = pending.pop(step[1])
            if end > t:
                alloc_cycles += end - t
                t = end
        else:  # STEP_CLAIM — free-list equality guarantees identical regs
            context.claim(step[1])

    for unit, n in issued.items():
        dispatcher.charge(vpu_index, tuple(n * field for field in unit))
    phases = context.phases
    if alloc_cycles:
        phases.add("allocation", alloc_cycles)
    if compute:
        phases.add("compute", compute)
    if wb_cycles:
        phases.add("writeback", wb_cycles)
    yield t


class Doorkeeper:
    """Second-sighting admission over an LRU set of at most ``capacity`` keys.

    :meth:`admit` returns True (and forgets the key) when ``key`` was
    already seen; otherwise it remembers the key and returns False.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._seen: "OrderedDict[tuple, None]" = OrderedDict()

    def admit(self, key: tuple) -> bool:
        if key in self._seen:
            del self._seen[key]
            return True
        self._seen[key] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return False

    def clear(self) -> None:
        self._seen.clear()


class ReplayCache:
    """Bounded cache of kernel recordings, keyed on the full launch key.

    With a ``fleet`` store attached (:class:`repro.serve.fleet.
    FleetReplayCache`), a local miss falls back to recordings published
    by *other* workers' caches, and locally recorded replayable
    recordings are published for the rest of the pool — one worker's
    recording warms the fleet.  Recordings are position-independent
    and replays re-execute against live state, so a fleet hit is
    bit-exact with recording locally; the fleet assumes identically
    configured workers (same config and compiled-library install, hence
    the same library generation and launch-time VRF free lists).
    """

    def __init__(self, library, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("replay cache capacity must be positive")
        self.library = library
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Recording]" = OrderedDict()
        #: keys seen once and not yet recorded
        self._doorkeeper = Doorkeeper(capacity)
        self._generation = library.generation
        #: optional cross-worker recording store (set by SystemWorker)
        self.fleet = None
        #: per-key compiled segment streams (closures binding *this*
        #: system's VRF — never shared or pickled with the recording)
        self._compiled: Dict[tuple, list] = {}
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "deferred": 0, "recorded": 0,
            "poisoned": 0, "bypassed": 0, "invalidated": 0, "fleet_hits": 0,
        }
        #: integrity hook: when a list, every key this cache stored or
        #: replayed during the current attempt is appended, so a failed
        #: integrity check can invalidate/retract exactly the recordings
        #: the corrupt run may have poisoned.  None (default) = off.
        self.touched: Optional[List[tuple]] = None
        #: escalation switch: while True the scheduler bypasses the fast
        #: path entirely (no lookup, no recording) — used to re-execute a
        #: corrupted request from first principles.
        self.suspended = False

    def __len__(self) -> int:
        return len(self._entries)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key_for(kernel: QueuedKernel, vpu_index: int) -> tuple:
        """Launch key: identity + VPU + scalars + operand geometry.

        Operand *data* is deliberately absent: a body sees data only
        through :meth:`KernelContext.macc_tap` and ``macc_row``, whose
        recorded steps are predicates over the live taps, so one recording
        replays every launch of its geometry.  Addresses are absent too:
        recordings are position-independent, which is what lets the
        serving loop's ``reset_heap()``-then-reallocate lifecycle keep
        hitting.
        """
        geometry = tuple(
            (b.rows, b.cols, b.stride, b.etype.suffix) for b in kernel.sources
        )
        dest = kernel.dest
        dest_geometry = (
            (dest.rows, dest.cols, dest.stride, dest.etype.suffix)
            if dest is not None
            else None
        )
        return (
            kernel.func5,
            kernel.name,
            kernel.etype.suffix,
            vpu_index,
            tuple(sorted(kernel.scalars.items())),
            geometry,
            dest_geometry,
        )

    # -- storage ------------------------------------------------------------

    def _sync_generation(self) -> None:
        # Reprogramming any library slot drops every recording: a body
        # registered under an old generation must never replay again.
        if self._generation != self.library.generation:
            self.clear()
            self._generation = self.library.generation

    def lookup(self, key: tuple) -> Optional[Recording]:
        self._sync_generation()
        recording = self._entries.get(key)
        if recording is not None:
            # LRU refresh: recordings that keep hitting stay resident.
            self._entries.move_to_end(key)
            return recording
        if self.fleet is not None:
            recording = self.fleet.get(key)
            if recording is not None:
                # adopt into the local LRU (future launches hit without
                # the fleet); adopted recordings are never re-published
                self._entries[key] = recording
                self._trim()
                self.stats["fleet_hits"] += 1
        return recording

    def admit(self, key: tuple) -> bool:
        """Should this missed launch be recorded?  True on a key's second sighting.

        Recording costs a full slow-path launch plus the stream's memory,
        and only pays back if the key comes again, so a key is merely
        remembered the first time it misses ("cache on second hit", the
        TinyLFU doorkeeper).  One-off keys thus never enter the recording
        LRU and cannot evict the recordings that do hit.  The seen-set is
        an LRU bounded by ``capacity``; with a fleet attached it is the
        fleet's pool-wide one, so a key any worker saw once is recorded by
        whichever worker sees it next.
        """
        if self.fleet is not None:
            return self.fleet.admit(key)
        return self._doorkeeper.admit(key)

    def store(self, key: tuple, recording: Recording) -> None:
        self._sync_generation()
        self._entries[key] = recording
        self._trim()
        if self.fleet is not None and recording.replayable:
            self.fleet.publish(key, recording)

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._compiled.pop(evicted, None)

    def compiled_for(
        self, key: tuple, recording: Recording, scheduler, vpu_index: int
    ) -> list:
        """This system's compiled segments for ``key`` (built on first use)."""
        segments = self._compiled.get(key)
        if segments is None:
            segments = _compile_steps(recording, scheduler, vpu_index)
            self._compiled[key] = segments
        return segments

    def clear(self) -> None:
        self.stats["invalidated"] += len(self._entries)
        self._entries.clear()
        self._doorkeeper.clear()
        self._compiled.clear()

    def invalidate(self, key: tuple) -> None:
        """Drop one recording locally and retract it from the fleet.

        The poisoning defense: a recording touched by a run whose
        integrity check failed must not be served again, here or on any
        other worker.
        """
        if self._entries.pop(key, None) is not None:
            self.stats["invalidated"] += 1
        self._compiled.pop(key, None)
        if self.fleet is not None:
            self.fleet.retract(key)

    # -- replay preconditions ------------------------------------------------

    def can_replay(self, recording: Recording, scheduler, vpu_index: int) -> bool:
        """Cheap, side-effect-free environment check before a replay.

        The closed-form timeline assumes the body is the only LLC-lock /
        host-path actor for its duration and that register claims pop the
        same VRF free list; anything else takes the slow path.
        """
        if not recording.replayable or recording.vpu_index != vpu_index:
            return False
        controller = scheduler.controller
        if controller.lock_holder is not None or controller._host_inflight > 0:
            return False
        return scheduler.allocator._free[vpu_index] == recording.free_regs

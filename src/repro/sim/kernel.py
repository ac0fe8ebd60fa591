"""Discrete-event simulation kernel with generator-based processes.

The model of computation:

* Time is an integer cycle count (``Simulator.now``).
* A *process* is a generator.  Each ``yield`` suspends it:

  - ``yield n`` (non-negative int) resumes the process ``n`` cycles later;
  - ``yield event`` resumes it when the :class:`Event` fires (immediately,
    on the same cycle, if it already fired);
  - ``yield proc`` (a :class:`Process`) waits for that process to finish
    and evaluates to its return value.

* Determinism: events scheduled for the same cycle run in FIFO order of
  scheduling, so repeated runs produce identical traces.

This is all the ARCANE system model needs to express cache locking, hazard
stalls and DMA/VPU concurrency faithfully.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (bad yields, deadlock checks)."""


class Event:
    """A one-shot level-triggered event that processes can wait on.

    Once fired the event stays fired: late waiters resume immediately.
    An optional payload set at :meth:`fire` time is delivered as the value
    of the ``yield`` expression.
    """

    __slots__ = ("sim", "name", "fired", "payload", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.fired = False
        self.payload: Any = None
        self._waiters: List["Process"] = []

    def fire(self, payload: Any = None) -> None:
        """Fire the event, waking every waiter on the current cycle."""
        if self.fired:
            return
        self.fired = True
        self.payload = payload
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim._schedule(0, process, payload)

    def reset(self) -> None:
        """Re-arm a fired event so it can be waited on and fired again.

        Only legal when no process is currently parked on it.
        """
        if self._waiters:
            raise SimulationError(
                f"cannot reset event {self.name!r} with {len(self._waiters)} waiters"
            )
        self.fired = False
        self.payload = None

    def _add_waiter(self, process: "Process") -> None:
        if self.fired:
            self.sim._schedule(0, process, self.payload)
        else:
            self._waiters.append(process)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else f"{len(self._waiters)} waiters"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running generator registered with the simulator.

    ``Process`` objects are awaitable from other processes (``yield proc``)
    and expose :attr:`finished` / :attr:`result` for inspection after the
    run.  Exceptions raised inside a process propagate out of
    :meth:`Simulator.run` — silent failure would hide model bugs.
    """

    __slots__ = ("sim", "name", "generator", "finished", "result", "_done_event")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.finished = False
        self.result: Any = None
        self._done_event = Event(sim, name=f"{self.name}.done")

    @property
    def done_event(self) -> Event:
        """Event fired (with the return value as payload) when this process ends."""
        return self._done_event

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self._done_event.fire(stop.value)
            return
        self._dispatch_yield(yielded)

    def _dispatch_yield(self, yielded: Any) -> None:
        if isinstance(yielded, bool):
            raise SimulationError(f"process {self.name!r} yielded a bool")
        if isinstance(yielded, int):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.sim._schedule(yielded, self, None)
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
        elif isinstance(yielded, Process):
            yielded._done_event._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: schedules process resumptions on an integer timeline.

    Two fast paths keep long simulations cheap without changing the
    documented FIFO determinism:

    * zero-delay wakeups (``yield 0``, event fires, process starts) go to
      a same-cycle FIFO instead of the time heap.  Entries already in the
      heap for the current cycle were scheduled *earlier* (a zero-delay
      schedule created during cycle ``T`` can only land in the FIFO), so
      draining heap entries at ``now`` first, then the FIFO, reproduces
      the global scheduling order exactly — with no heap traffic for the
      dominant wake-everyone-this-cycle pattern;
    * when exactly one resumption is pending (a single runnable process
      stepping through ``yield n`` after ``yield n`` — the shape of every
      kernel-replay and DMA loop), the next entry is popped without a
      heap sift;
    * a process that is the only one able to run before its own wake-up
      skips the suspension entirely via :meth:`advance`.
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: List[Tuple[int, int, Process, Any]] = []
        self._ready: Deque[Tuple[Process, Any]] = deque()
        self._sequence = 0
        self._processes: List[Process] = []
        self._running = False
        self._until: Optional[int] = None

    def event(self, name: str = "") -> Event:
        """Create a fresh event bound to this simulator."""
        return Event(self, name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process and schedule its first step now."""
        process = Process(self, generator, name)
        self._processes.append(process)
        self._schedule(0, process, None)
        return process

    def _schedule(self, delay: int, process: Process, send_value: Any) -> None:
        if delay == 0:
            # Same-cycle wakeup: FIFO append, no heap traffic.  Ordering
            # versus heap entries at the current cycle is preserved by the
            # run loop (heap entries for ``now`` always predate FIFO ones).
            self._ready.append((process, send_value))
            return
        heapq.heappush(self._heap, (self.now + delay, self._sequence, process, send_value))
        self._sequence += 1

    def advance(self, delay: int) -> bool:
        """Move time forward ``delay`` cycles inline, if nothing could interleave.

        The running process calls ``if not sim.advance(n): yield n``.  When
        the same-cycle FIFO is empty, every heap entry lies strictly after
        ``now + delay`` and ``now + delay`` does not pass ``run(until=)``,
        the event loop's next pop would be the caller's own wake-up, so
        advancing ``now`` in place and carrying on yields the identical
        timeline (FIFO tie-breaks included: an entry *at* ``now + delay``
        was scheduled earlier and must run first, hence the strict test).
        Returns False — time untouched — whenever that does not hold,
        including outside :meth:`run`, and for ``delay <= 0`` (a zero-delay
        yield stays a real suspension, so the livelock guard still sees it).
        """
        target = self.now + delay
        if (
            not self._running
            or delay <= 0
            or self._ready
            or (self._heap and self._heap[0][0] <= target)
            or (self._until is not None and target > self._until)
        ):
            return False
        self.now = target
        return True

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Run until the event queue drains (or ``until`` cycles / event cap).

        Returns the final simulation time.  ``max_events`` is a runaway
        guard: real deadlocks drain the queue, but a livelocked model (two
        processes ping-ponging zero-delay events) would otherwise spin
        forever.
        """
        self._running = True
        self._until = until
        try:
            return self._loop(until, max_events)
        finally:
            self._running = False
            self._until = None

    def _loop(self, until: Optional[int], max_events: int) -> int:
        handled = 0
        heap = self._heap
        ready = self._ready
        while True:
            if heap and heap[0][0] == self.now:
                # Same-cycle heap entries were scheduled in earlier cycles,
                # so they come before anything appended to the FIFO during
                # this cycle.
                _, _, process, send_value = heapq.heappop(heap)
            elif ready:
                process, send_value = ready.popleft()
            elif heap:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    self._prune_finished()
                    return self.now
                self.now = time
                if len(heap) == 1:
                    # Single-runnable fast path: advance time without a sift.
                    _, _, process, send_value = heap.pop()
                else:
                    _, _, process, send_value = heapq.heappop(heap)
            else:
                break
            process._step(send_value)
            handled += 1
            if handled > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events at cycle {self.now}; "
                    "probable zero-delay livelock"
                )
        if until is not None and until > self.now:
            self.now = until
        self._prune_finished()
        return self.now

    def _prune_finished(self) -> None:
        # Drop finished processes from the registry: a long-lived system
        # (the serving engine runs thousands of programs on one simulator)
        # must not accumulate dead generator wrappers without bound.
        self._processes = [p for p in self._processes if not p.finished]

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: register ``generator``, run to completion, return its result."""
        process = self.process(generator, name)
        self.run()
        if not process.finished:
            raise SimulationError(
                f"process {process.name!r} did not finish (deadlock at cycle {self.now})"
            )
        return process.result

    def all_of(self, events: Iterable[Event], name: str = "all_of") -> Event:
        """Return an event that fires once every event in ``events`` has fired."""
        events = list(events)
        combined = self.event(name)
        if not events:
            combined.fire()
            return combined
        remaining = {"count": len(events)}

        def waiter(event: Event) -> Generator:
            yield event
            remaining["count"] -= 1
            if remaining["count"] == 0:
                combined.fire()

        for event in events:
            self.process(waiter(event), name=f"{name}.wait.{event.name}")
        return combined

    def timeout_call(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule a plain callback ``delay`` cycles from now."""

        def runner() -> Generator:
            yield delay
            callback()

        self.process(runner(), name="timeout_call")

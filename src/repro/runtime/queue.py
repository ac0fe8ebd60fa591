"""The statically allocated kernel queue (paper IV-B).

C-RT follows a producer-consumer model around a fixed-capacity queue:
the Kernel Decoder (interrupt context) produces entries, the Kernel
Scheduler consumes them.  Static sizing gives predictable memory use;
a full queue back-pressures the decoder, which in turn stalls the host's
offload handshake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.matrix import MatrixBinding
from repro.sim.kernel import Event, Simulator
from repro.vpu.visa import ElementType


@dataclass
class QueuedKernel:
    """One scheduled matrix operation waiting for (or in) execution."""

    kernel_id: int
    func5: int
    name: str
    etype: ElementType
    dest: Optional[MatrixBinding]
    sources: List[MatrixBinding]
    scalars: Dict[str, int] = field(default_factory=dict)
    done: Optional[Event] = field(default=None, repr=False)
    #: eCPU cycles spent decoding this kernel and its preceding xmr
    #: reservations (attributed to the preamble phase of Figure 3).
    preamble_cycles: int = 0
    #: replay-cache outcome of this launch: ``hit``/``miss``/``bypassed``,
    #: or ``off`` when the launch never consulted the cache
    replay: str = "off"

    def bindings(self) -> List[MatrixBinding]:
        out = list(self.sources)
        if self.dest is not None:
            out.append(self.dest)
        return out


class KernelQueue:
    """Fixed-capacity FIFO with simulation-event back-pressure."""

    def __init__(self, capacity: int, sim: Optional[Simulator] = None) -> None:
        if capacity <= 0:
            raise ValueError("kernel queue capacity must be positive")
        self.capacity = capacity
        self.sim = sim
        self._items: List[QueuedKernel] = []
        self._pushed: Optional[Event] = sim.event("kq.pushed") if sim else None
        self._popped: Optional[Event] = sim.event("kq.popped") if sim else None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def pushed_event(self) -> Event:
        """The event that fires on the next :meth:`push` (fresh per push)."""
        if self._pushed is None:
            raise RuntimeError("queue was built without a simulator")
        return self._pushed

    def kick(self) -> None:
        """Fire the push event without pushing (spurious wakeup).

        Parked consumers wake and re-check their condition — how
        :meth:`KernelScheduler.stop` reaches a scheduler parked on an
        empty queue without enqueueing a sentinel kernel.
        """
        self._fire("_pushed")

    def _fire(self, attr: str) -> None:
        event: Optional[Event] = getattr(self, attr)
        if event is not None:
            setattr(self, attr, self.sim.event(event.name))
            event.fire()

    def push(self, item: QueuedKernel) -> None:
        if self.full:
            raise OverflowError(f"kernel queue full ({self.capacity})")
        self._items.append(item)
        self._fire("_pushed")

    def pop(self) -> QueuedKernel:
        if not self._items:
            raise IndexError("kernel queue empty")
        item = self._items.pop(0)
        self._fire("_popped")
        return item

    def push_wait(self, item: QueuedKernel):
        """Simulation process: wait for space, then push."""
        while self.full:
            yield self._popped
        self.push(item)

    def pop_wait(self):
        """Simulation process: wait for an item, then pop and return it."""
        while self.empty:
            yield self._pushed
        return self.pop()

    def peek_all(self) -> List[QueuedKernel]:
        """Snapshot of queued kernels (scheduler look-ahead)."""
        return list(self._items)

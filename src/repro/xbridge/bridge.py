"""The bridge: CV-X-IF offload endpoint (paper section III-B).

The bridge samples opcode, func5 and the three source-register values of
an offloaded instruction, raises an interrupt for the eCPU, and waits for
the software decode outcome, which it forwards to the host as the
accept/commit (or kill) response.  The host is stalled only for this
handshake; once the instruction proceeds to execution the host continues
its program out-of-order while the kernel runs in the cache.

One instruction is in flight at a time: a second offload arriving while a
decode is pending waits (the bridge registers are single-buffered).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.isa.xmnmc import OffloadRequest
from repro.sim.kernel import Event, Simulator
from repro.sim.stats import StatsRegistry


class OffloadOutcome(enum.Enum):
    ACCEPTED = "accepted"  # decoded, scheduled, host may proceed
    KILLED = "killed"  # unknown operation: host receives the kill response


@dataclass
class BridgeCosts:
    """Handshake cycle costs on the host side."""

    sample: int = 3  # CV-X-IF issue + bridge register sampling
    respond: int = 2  # result/commit handshake back over CV-X-IF


class Bridge:
    """Single-buffered offload bridge with interrupt-driven decode."""

    def __init__(
        self,
        sim: Simulator,
        decode: Callable[[OffloadRequest], Generator],
        stats: Optional[StatsRegistry] = None,
        costs: BridgeCosts = BridgeCosts(),
    ) -> None:
        self.sim = sim
        self.decode = decode
        self.stats = stats or StatsRegistry()
        self.costs = costs
        self._busy = False
        self._freed: Event = sim.event("bridge.freed")

    @property
    def busy(self) -> bool:
        return self._busy

    def offload(self, request: OffloadRequest) -> Generator:
        """Host-side simulation process: offload one matrix instruction.

        Returns the :class:`OffloadOutcome`.  The host process is blocked
        for the whole handshake — bridge sampling, interrupt latency,
        software decode (including kernel-queue back-pressure) and the
        commit/kill response — then resumes.
        """
        while self._busy:
            self.stats.counter("bridge.contended").add()
            yield self._freed
        self._busy = True
        try:
            yield self.costs.sample
            decoded = yield from self.decode(request)
            yield self.costs.respond
            outcome = (
                OffloadOutcome.ACCEPTED
                if decoded is not None or request.is_reserve
                else OffloadOutcome.KILLED
            )
            counter = "bridge.accepted" if outcome is OffloadOutcome.ACCEPTED else "bridge.killed"
            self.stats.counter(counter).add()
            return outcome
        finally:
            self._busy = False
            previous = self._freed
            self._freed = self.sim.event("bridge.freed")
            previous.fire()

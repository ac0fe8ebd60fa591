"""The Address Table (AT) — kernel-operand hazard tracking (paper III-A.3).

Each entry records the start/end addresses of a registered matrix operand
plus a validity flag and a busy status.  The eCPU's kernel decoder
registers operand regions when a kernel is scheduled; the LLC controller
consults the table on host accesses that touch flagged lines (or on any
miss) and stalls accesses that would violate the hazard rules:

* WAR — host stores to a *source* region are blocked until allocation
  (the temporary copy into VPU lines) completes;
* RAW / WAW — host loads *and* stores to a *destination* region are
  blocked until kernel write-back completes.

Entries expose a simulation event that fires when the region is released,
so stalled host accesses can park on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.kernel import Event, Simulator


class OperandKind(enum.Enum):
    SOURCE = "source"
    DEST = "dest"


class HazardKind(enum.Enum):
    """Which hazard a blocked access ran into (keys the stall counters)."""

    WAR = "war"  # store to busy source
    RAW = "raw"  # load from pending destination
    WAW = "waw"  # store to pending destination


@dataclass
class AtEntry:
    """One Address Table entry."""

    start: int
    end: int  # exclusive
    kind: OperandKind
    matrix_id: int
    valid: bool = True
    busy: bool = True
    released: Optional[Event] = field(default=None, repr=False)

    def covers(self, address: int, length: int = 1) -> bool:
        return self.valid and address < self.end and address + length > self.start


class AddressTable:
    """Fixed-capacity table of operand regions with hazard queries."""

    def __init__(self, capacity: int, sim: Optional[Simulator] = None) -> None:
        if capacity <= 0:
            raise ValueError("AT capacity must be positive")
        self.capacity = capacity
        self.sim = sim
        self.entries: List[AtEntry] = []

    def register(self, start: int, end: int, kind: OperandKind, matrix_id: int) -> AtEntry:
        """Add an operand region; raises when the table is full.

        A full AT in hardware would stall the kernel decoder; the C-RT
        model surfaces it as an error because the paper sizes the table to
        the (configurable) number of logical matrix registers.
        """
        self._garbage_collect()
        if len(self.entries) >= self.capacity:
            raise RuntimeError(f"address table full ({self.capacity} entries)")
        released = self.sim.event(f"at.release.m{matrix_id}") if self.sim else None
        entry = AtEntry(start, end, kind, matrix_id, released=released)
        self.entries.append(entry)
        return entry

    def _garbage_collect(self) -> None:
        self.entries = [e for e in self.entries if e.valid]

    def lookup(self, address: int, length: int = 1) -> Optional[AtEntry]:
        """First valid entry covering the byte range, or None."""
        for entry in self.entries:
            if entry.covers(address, length):
                return entry
        return None

    def hazard_for(self, address: int, length: int, is_write: bool) -> Optional[HazardKind]:
        """Classify the hazard (if any) for a host access to this range."""
        entry = self.lookup(address, length)
        if entry is None or not entry.busy:
            return None
        if entry.kind is OperandKind.SOURCE:
            # Reads of a source are always safe; writes would corrupt the
            # operand before/while the allocator copies it (WAR).
            return HazardKind.WAR if is_write else None
        return HazardKind.WAW if is_write else HazardKind.RAW

    def blocking_entry(self, address: int, length: int, is_write: bool) -> Optional[AtEntry]:
        """The entry that blocks this access, or None when it may proceed."""
        if self.hazard_for(address, length, is_write) is None:
            return None
        return self.lookup(address, length)

    def release(self, matrix_id: int, kind: Optional[OperandKind] = None) -> int:
        """Mark entries of ``matrix_id`` free and fire their release events.

        Returns the number of entries released.
        """
        count = 0
        for entry in self.entries:
            if entry.matrix_id != matrix_id or not entry.valid:
                continue
            if kind is not None and entry.kind is not kind:
                continue
            entry.busy = False
            entry.valid = False
            if entry.released is not None:
                entry.released.fire()
            count += 1
        return count

    def release_source_block(self, matrix_id: int) -> int:
        """Unblock WAR-stalled stores once allocation of a source finishes."""
        return self.release(matrix_id, OperandKind.SOURCE)

    def busy_entries(self) -> List[AtEntry]:
        return [entry for entry in self.entries if entry.valid and entry.busy]

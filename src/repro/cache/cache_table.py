"""The Cache Table (CT): line storage, tag lookup and victim selection.

The CT owns the shared LLC data array.  Lines are grouped per VPU: line
``v * vregs_per_vpu + r`` is vector register ``r`` of VPU ``v`` (paper
section III-A.1 — the cache has exactly as many lines as the aggregate
vector register capacity).  The VPU model receives numpy views of its
slice, so kernel results written by the VPU are immediately visible to
cache reads without any copying.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cache.line import CacheLine, LineRole
from repro.cache.lru import ApproxLru


class CacheTable:
    """Fully-associative tag/data store for the ARCANE LLC."""

    def __init__(
        self,
        n_vpus: int,
        vregs_per_vpu: int,
        line_bytes: int,
        lru_counter_bits: int = 8,
    ) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line_bytes must be a power of two, got {line_bytes}")
        self.n_vpus = n_vpus
        self.vregs_per_vpu = vregs_per_vpu
        self.line_bytes = line_bytes
        self.n_lines = n_vpus * vregs_per_vpu
        self.storage = np.zeros(self.n_lines * line_bytes, dtype=np.uint8)
        self.lines: List[CacheLine] = [
            CacheLine(i, self.storage[i * line_bytes : (i + 1) * line_bytes])
            for i in range(self.n_lines)
        ]
        self.lru = ApproxLru(lru_counter_bits)
        self._tag_map: Dict[int, CacheLine] = {}
        #: ``address & _tag_mask`` aligns down to the line (line_bytes is
        #: a power of two); lookups run per DMA row and host access
        self._tag_mask = ~(line_bytes - 1)

    # -- addressing ---------------------------------------------------------

    def tag_of(self, address: int) -> int:
        return address & self._tag_mask

    def lookup(self, address: int) -> Optional[CacheLine]:
        """Return the valid line holding ``address``, or None on miss."""
        line = self._tag_map.get(address & self._tag_mask)
        if line is not None and line.valid:
            return line
        return None

    def overlaps(self, address: int, length: int) -> bool:
        """True when a valid line holds any byte of ``[address, address + length)``."""
        tag_map = self._tag_map
        tag = address & self._tag_mask
        end = address + length
        while tag < end:
            line = tag_map.get(tag)
            if line is not None and line.valid:
                return True
            tag += self.line_bytes
        return False

    def touch(self, line: CacheLine) -> None:
        """Update the replacement state after an access to ``line``."""
        self.lru.touch(line, self.lines)

    # -- line lifecycle ---------------------------------------------------------

    def select_victim(self) -> Optional[CacheLine]:
        """Choose a replacement victim among non-compute lines."""
        candidates = [line for line in self.lines if not line.is_compute]
        return self.lru.select_victim(candidates)

    def bind(self, line: CacheLine, address: int) -> None:
        """Map ``line`` to the line-aligned region containing ``address``."""
        if line.is_compute:
            raise RuntimeError(f"cannot bind compute-busy line {line.index}")
        self.unbind(line)
        previous = self._tag_map.get(self.tag_of(address))
        if previous is not None:
            # Another master cached the same region concurrently; a tag may
            # map to at most one line.
            self.unbind(previous)
        line.tag = self.tag_of(address)
        line.valid = True
        line.dirty = False
        self._tag_map[line.tag] = line

    def unbind(self, line: CacheLine) -> None:
        """Remove ``line`` from the tag map and invalidate it."""
        if line.tag is not None:
            self._tag_map.pop(line.tag, None)
        line.invalidate()

    def claim_for_compute(self, line: CacheLine) -> None:
        """Hand ``line`` over to a VPU (drops any cached mapping)."""
        if line.tag is not None:
            self._tag_map.pop(line.tag, None)
        line.claim_for_compute()

    def release_from_compute(self, line: CacheLine) -> None:
        line.release_from_compute()

    # -- VPU views -----------------------------------------------------------------

    def vpu_lines(self, vpu_index: int) -> List[CacheLine]:
        """The lines forming VPU ``vpu_index``'s vector register file."""
        if not 0 <= vpu_index < self.n_vpus:
            raise IndexError(f"vpu index {vpu_index} out of range")
        start = vpu_index * self.vregs_per_vpu
        return self.lines[start : start + self.vregs_per_vpu]

    def dirty_line_count(self, vpu_index: int) -> int:
        """Dirty lines in one VPU's slice (the scheduler's selection metric)."""
        return sum(1 for line in self.vpu_lines(vpu_index) if line.valid and line.dirty)

    # -- statistics ------------------------------------------------------------------

    def occupancy(self) -> Dict[str, int]:
        """Line counts by state, for tests and reporting."""
        valid = sum(1 for line in self.lines if line.valid)
        dirty = sum(1 for line in self.lines if line.dirty)
        compute = sum(1 for line in self.lines if line.is_compute)
        return {
            "lines": self.n_lines,
            "valid": valid,
            "dirty": dirty,
            "compute": compute,
            "roles": sum(1 for line in self.lines if line.role is not LineRole.NONE),
        }

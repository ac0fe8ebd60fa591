"""OBI-like system bus latency model.

X-HEEP uses a 32-bit OBI crossbar.  We model latency, not wiring: a
transfer of N bytes costs ``request_latency + ceil(N / width_bytes)``
cycles, with a distinct (higher) latency for off-chip memory behind the
LLC.  The numbers are parameters of :class:`BusModel`, set from
:class:`repro.core.config.ArcaneConfig` and documented in
:mod:`repro.eval.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BusModel:
    """Cycle-cost calculator for bus transactions.

    Attributes:
        width_bytes: datapath width (4 for the 32-bit OBI bus).
        request_latency: fixed cycles to arbitrate + address phase.
        offchip_latency: extra fixed cycles for transactions that reach the
            external flash/PSRAM behind the LLC (cache refills/writebacks).
        burst: whether back-to-back beats stream at 1 beat/cycle (DMA)
            or each beat pays the request latency (CPU single accesses).
    """

    width_bytes: int = 4
    request_latency: int = 1
    offchip_latency: int = 10
    burst: bool = True

    def beats(self, n_bytes: int) -> int:
        """Number of datapath beats for ``n_bytes``."""
        if n_bytes <= 0:
            return 0
        return -(-n_bytes // self.width_bytes)

    def transfer_cycles(self, n_bytes: int, offchip: bool = False) -> int:
        """Cycles for one contiguous transfer of ``n_bytes``."""
        if n_bytes <= 0:
            return 0
        fixed = self.request_latency + (self.offchip_latency if offchip else 0)
        beats = -(-n_bytes // self.width_bytes)  # inline beats(): runs per DMA row
        if self.burst:
            return fixed + beats
        return beats * (fixed + 1)

    def transfer_2d_cycles(self, row_bytes: int, rows: int, offchip: bool = False) -> int:
        """Cycles for a 2D transfer: ``rows`` rows of ``row_bytes`` each.

        Each row is one burst (strided source/destination forces an address
        phase per row), matching the X-HEEP 2D DMA behaviour.
        """
        if rows <= 0 or row_bytes <= 0:
            return 0
        return rows * self.transfer_cycles(row_bytes, offchip=offchip)

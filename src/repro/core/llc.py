"""Assembly of the complete ARCANE LLC subsystem (paper Figure 1).

Wires together, for one :class:`~repro.core.config.ArcaneConfig`:

* the Cache Table (whose data array backs the VPU register files),
* the Address Table,
* the LLC controller,
* one :class:`~repro.vpu.vpu.Vpu` per NM-Carus instance + dispatcher,
* the C-RT runtime on the eCPU,
* the CV-X-IF bridge.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.address_table import AddressTable
from repro.cache.cache_table import CacheTable
from repro.cache.controller import LlcController
from repro.core.config import ArcaneConfig
from repro.integrity.inject import CorruptionSurface
from repro.mem.bus import BusModel
from repro.mem.memory import MainMemory
from repro.runtime.crt import CacheRuntime
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.vpu.dispatcher import Dispatcher
from repro.vpu.vpu import Vpu
from repro.vpu.vrf import VectorRegisterFile
from repro.xbridge.bridge import Bridge


class ArcaneLlc:
    """The smart LLC: cache + VPUs + eCPU runtime + bridge."""

    def __init__(
        self,
        sim: Simulator,
        config: ArcaneConfig,
        memory: MainMemory,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.memory = memory
        self.stats = stats or StatsRegistry()

        self.bus = BusModel(
            width_bytes=config.bus_width_bytes,
            request_latency=config.bus_request_latency,
            offchip_latency=config.offchip_latency,
        )
        self.cache_table = CacheTable(
            n_vpus=config.n_vpus,
            vregs_per_vpu=config.vregs_per_vpu,
            line_bytes=config.line_bytes,
        )
        self.address_table = AddressTable(config.address_table_entries, sim)
        self.controller = LlcController(
            sim, self.cache_table, self.address_table, memory, self.bus,
            self.stats,
        )
        self.vpus = [
            Vpu(
                index=v,
                vrf=VectorRegisterFile(self.cache_table.vpu_lines(v)),
                lanes=config.lanes,
                stats=self.stats,
            )
            for v in range(config.n_vpus)
        ]
        self.dispatcher = Dispatcher(self.vpus, config.issue_cycles, self.stats)
        self.runtime = CacheRuntime(
            sim,
            self.controller,
            self.dispatcher,
            self.bus,
            n_matrix_registers=config.n_matrix_registers,
            queue_capacity=config.kernel_queue_capacity,
            stats=self.stats,
            multi_vpu=config.multi_vpu,
            vpu_policy=config.vpu_policy,
            fastpath=config.fastpath,
        )
        self.runtime.allocator.lock_overhead_cycles = config.lock_overhead_cycles
        self.runtime.install_default_kernels()
        self.bridge = Bridge(sim, self.runtime.decode, self.stats)
        # Fault-injection applicator for data-corruption clauses; inert
        # (all hooks None) until a serving fault plan arms it.
        self.corruption = CorruptionSurface(self)

    def start(self) -> None:
        """Launch the C-RT scheduler loop."""
        self.runtime.start()

"""The Kernel Decoder — interrupt-context software decode (paper IV-B.1).

The bridge raises an interrupt for every offloaded instruction; the
decoder runs in the handler and:

* for ``xmr``: binds (address, shape) to a logical matrix register in the
  matrix map — *no data is loaded* (deferred allocation), renaming the
  register transparently when its old binding is still in use;
* for ``xmkN``: looks up the kernel library by func5 (O(1)); unknown
  operations are rejected (the bridge reports 'kill' to the host).
  Recognised kernels run their preamble, have their operand regions
  recorded in the Address Table (WAR/RAW/WAW guards) and are pushed to
  the kernel queue.

Cycle costs model the C-RT handler: interrupt entry, table lookups,
preamble bookkeeping.  The host is stalled for exactly this handshake
(decode outcome), then continues out-of-order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cache.address_table import AddressTable, OperandKind
from repro.isa.xmnmc import FUNC5_XMR, OffloadRequest
from repro.runtime.kernel_lib import KernelLibrary
from repro.runtime.matrix import MatrixMap
from repro.runtime.queue import KernelQueue, QueuedKernel
from repro.sim.kernel import Simulator
from repro.sim.stats import StatsRegistry
from repro.vpu.visa import ElementType


@dataclass(frozen=True)
class DecodeCosts:
    """C-RT handler cycle costs (eCPU instructions, calibrated constants)."""

    interrupt_entry: int = 150  # trap + context save + bridge register reads
    xmr_bind: int = 800  # matrix map update + hazard/renaming check
    kernel_lookup: int = 100  # O(1) library access + argument unpack
    kernel_preamble: int = 3000  # operand resolution + AT registration + enqueue
    reject: int = 40  # unknown func5 -> kill response


class KernelDecoder:
    """Software decoder for offloaded xmnmc instructions."""

    def __init__(
        self,
        sim: Simulator,
        matrix_map: MatrixMap,
        library: KernelLibrary,
        queue: KernelQueue,
        address_table: AddressTable,
        stats: Optional[StatsRegistry] = None,
        costs: DecodeCosts = DecodeCosts(),
    ) -> None:
        self.sim = sim
        self.matrix_map = matrix_map
        self.library = library
        self.queue = queue
        self.at = address_table
        self.stats = stats or StatsRegistry()
        self.costs = costs
        self._c_renames = self.stats.counter("decoder.renames")
        self._c_xmr = self.stats.counter("decoder.xmr")
        self._c_accepted = self.stats.counter("decoder.accepted")
        self._c_rejected = self.stats.counter("decoder.rejected")
        self._next_kernel_id = 0
        # eCPU decode cycles not yet attributed to a kernel: xmr decode is
        # part of the *preamble* of the kernel that consumes the reserved
        # matrices (paper V-B: "multiple xmr instructions define kernel
        # operands in the preamble phase").
        self._pending_preamble_cycles = 0

    def decode(self, request: OffloadRequest) -> Generator:
        """Simulation process: decode one offload.

        Returns the accepted :class:`QueuedKernel` (already enqueued), or
        None when the instruction was an ``xmr`` or was rejected.
        """
        yield self.costs.interrupt_entry
        self._pending_preamble_cycles += self.costs.interrupt_entry
        if request.func5 == FUNC5_XMR:
            result = yield from self._decode_xmr(request)
            return result
        result = yield from self._decode_kernel(request)
        return result

    def _decode_xmr(self, request: OffloadRequest) -> Generator:
        (addr_hi, addr_lo), (stride, md), (cols, rows) = request.pairs()
        address = (addr_hi << 16) | addr_lo
        etype = ElementType.from_suffix(request.size_suffix)
        renames_before = self.matrix_map.rename_count
        self.matrix_map.bind(md, address, rows, cols, stride, etype)
        if self.matrix_map.rename_count > renames_before:
            self._c_renames.add()
        self._c_xmr.add()
        yield self.costs.xmr_bind
        self._pending_preamble_cycles += self.costs.xmr_bind
        return None

    def _decode_kernel(self, request: OffloadRequest) -> Generator:
        yield self.costs.kernel_lookup
        self._pending_preamble_cycles += self.costs.kernel_lookup
        spec = self.library.lookup(request.func5)
        if spec is None:
            self._c_rejected.add()
            yield self.costs.reject
            self._pending_preamble_cycles = 0
            return None

        dest, sources, scalars = spec.preamble(request, self.matrix_map)
        etype = ElementType.from_suffix(request.size_suffix)
        preamble_cycles = self._pending_preamble_cycles + self.costs.kernel_preamble
        self._pending_preamble_cycles = 0
        kernel = QueuedKernel(
            kernel_id=self._next_kernel_id,
            func5=request.func5,
            name=spec.name,
            etype=etype,
            dest=dest,
            sources=sources,
            scalars=scalars,
            done=self.sim.event(f"kernel{self._next_kernel_id}.done"),
            preamble_cycles=preamble_cycles,
        )
        self._next_kernel_id += 1

        # Guard the operand regions before the host can race them
        # (paper IV-B.1: record start/end in the AT from the decoder).
        for source in sources:
            source.pending_uses += 1
            self.at.register(
                source.address, source.end_address, OperandKind.SOURCE, source.binding_id
            )
        if dest is not None:
            dest.pending_uses += 1
            self.at.register(
                dest.address, dest.end_address, OperandKind.DEST, dest.binding_id
            )

        yield self.costs.kernel_preamble
        yield from self.queue.push_wait(kernel)
        self._c_accepted.add()
        return kernel

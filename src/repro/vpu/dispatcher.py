"""The eCPU-to-VPU dispatcher (paper section III: "a dispatcher carries
out the distribution to the selected VPUs, keeping the architecture
modular and scalable").

The dispatcher owns all VPU instances, tracks which kernel currently
occupies each, and charges the per-instruction *issue* cost: the eCPU's
software loop that prepares and dispatches each vector instruction.
Dispatch and VPU execution are pipelined — while the VPU crunches one
vector instruction the eCPU prepares the next — so the cost of one issued
operation is ``max(issue_cycles, vpu_cycles)`` once the pipeline is full.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import StatsRegistry
from repro.vpu.vpu import Vpu
from repro.vpu.visa import VectorOp


class Dispatcher:
    """Routes vector instructions from the eCPU to the selected VPU."""

    def __init__(
        self,
        vpus: List[Vpu],
        issue_cycles: int,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        if not vpus:
            raise ValueError("dispatcher needs at least one VPU")
        self.vpus = vpus
        self.issue_cycles = issue_cycles
        self.stats = stats or StatsRegistry()
        self._owner: Dict[int, Optional[int]] = {vpu.index: None for vpu in vpus}
        # counter handles resolved once: dispatch runs per vector instruction
        self._c_ops = self.stats.counter("dispatch.ops")
        self._c_cycles = self.stats.counter("dispatch.cycles")
        self._c_issue_bound = self.stats.counter("dispatch.issue_bound")

    @property
    def n_vpus(self) -> int:
        return len(self.vpus)

    def vpu(self, index: int) -> Vpu:
        return self.vpus[index]

    # -- occupancy tracking (used by the Kernel Scheduler) -----------------

    def claim(self, vpu_index: int, kernel_id: int) -> None:
        if self._owner[vpu_index] is not None:
            raise RuntimeError(
                f"VPU {vpu_index} already claimed by kernel {self._owner[vpu_index]}"
            )
        self._owner[vpu_index] = kernel_id

    def release(self, vpu_index: int) -> None:
        self._owner[vpu_index] = None

    def owner(self, vpu_index: int) -> Optional[int]:
        return self._owner[vpu_index]

    def free_vpus(self) -> List[int]:
        return [index for index, owner in self._owner.items() if owner is None]

    # -- dispatch ------------------------------------------------------------

    def pipelined(self, op_cycles: int) -> Tuple[int, bool]:
        """``(cost, issue_bound)`` of one op whose VPU execution takes
        ``op_cycles``: the pipelined ``max(issue_cycles, op_cycles)``, and
        whether the eCPU's issue loop (not the VPU) set it."""
        issue = self.issue_cycles
        if issue >= op_cycles:
            return issue, True
        return op_cycles, False

    def dispatch(self, vpu_index: int, op: VectorOp) -> int:
        """Execute ``op`` on VPU ``vpu_index``; return the pipelined cycle cost."""
        cost, issue_bound = self.pipelined(self.vpus[vpu_index].execute(op))
        # hot path: counters are monotonic by construction, bump directly
        self._c_ops.value += 1
        self._c_issue_bound.value += issue_bound
        self._c_cycles.value += cost
        return cost

    def tally(self, vpu_index: int, ops) -> Tuple[int, int, int, int, int]:
        """Counter deltas of dispatching ``ops`` on VPU ``vpu_index``:
        ``(n_ops, vpu_cycles, elems, issue_bound, cycles)``, where
        ``cycles`` is the pipelined total.  :meth:`charge` applies them."""
        vpu = self.vpus[vpu_index]
        vpu_cycles = elems = issue_bound = cycles = 0
        for op in ops:
            op_cycles = vpu.op_cycles(op)
            cost, bound = self.pipelined(op_cycles)
            vpu_cycles += op_cycles
            elems += op.vl
            issue_bound += bound
            cycles += cost
        return len(ops), vpu_cycles, elems, issue_bound, cycles

    def charge(self, vpu_index: int, tally: Tuple[int, int, int, int, int]) -> None:
        """Count a :meth:`tally` of dispatches at once, as kernel replay
        applies them: the VPU's execution counters plus the dispatcher's."""
        n_ops, vpu_cycles, elems, issue_bound, cycles = tally
        self.vpus[vpu_index].count(n_ops, vpu_cycles, elems)
        self._c_ops.value += n_ops
        self._c_issue_bound.value += issue_bound
        self._c_cycles.value += cycles

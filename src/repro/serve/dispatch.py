"""The dispatch core: one scheduling loop for every serving mode.

:class:`DispatchCore` is the single event loop behind offline and
online serving.  It owns admission, worker selection,
retry/failover, quarantine, deadlines and the run's event log, and is
parameterized by three orthogonal pieces of data (the Exo/SYS_ATL
scheduling-as-data idiom: one fixed algorithm, policies as values):

* a **clock** — :data:`CYCLE_CLOCK` runs the loop in simulated cycles
  (arrival-driven online serving: backlog-aware dispatch, simulated
  backoff, deadlines, the request timeline); :data:`SEQUENCE_CLOCK`
  runs it in dispatch-sequence order (offline batches: the engine's
  precomputed assignment is the preferred worker, retries are
  immediate, no timeline);
* an **admission policy** (:class:`AdmissionPolicy`) — ``fifo`` keeps
  strict arrival order; ``priority`` serves lower priority classes
  first; ``edf`` (earliest deadline first) and ``sjf`` (shortest job
  first, by the compiled-kernel trip-count estimate of
  :func:`estimate_service_cycles`) re-order the backlog whenever
  requests are queued.  The pending heap is keyed ``(ready, *rank,
  seq)``; FIFO's rank is empty;
* a **pool** — :class:`SerialPool` executes on in-process
  :class:`~repro.serve.worker.SystemWorker` instances.

Fault decisions live in the **core**, not the worker: the core calls
:meth:`FaultInjector.before_attempt` itself, in deterministic dispatch
order, and applies the decision's worker-side effects directly.

The core only records: spans, the timeline and the trace export are
built after the run from its :class:`~repro.obs.spans.ServingEvent` log.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.spans import ServingEvent
from repro.serve.faults import (
    FaultInjector,
    RetryPolicy,
    ServingError,
    WorkerCrashError,
    WorkerSupervisor,
)
from repro.serve.request import InferenceRequest, RequestResult
from repro.serve.worker import SystemWorker

#: Clocks a :class:`DispatchCore` can run on.
CYCLE_CLOCK = "cycles"
SEQUENCE_CLOCK = "sequence"
CLOCKS = (CYCLE_CLOCK, SEQUENCE_CLOCK)

#: Request event kinds the core appends to the event log.
ARRIVAL = "arrival"
DISPATCH = "dispatch"
COMPLETION = "completion"
FAIL = "fail"
RETRY = "retry"
SHED = "shed"


# -- admission policies -------------------------------------------------------

#: Admission policies understood by :meth:`AdmissionPolicy.coerce`.
ADMISSION_POLICIES = ("fifo", "priority", "edf", "sjf")


def estimate_service_cycles(request: InferenceRequest) -> int:
    """Deterministic service-cost estimate for shortest-job-first ranking.

    Where the kernel semantics are known the estimate mirrors the
    compiled kernel's loop trip counts (a gemm macc-accumulates
    ``m * n * k`` elements; a conv layer visits every output pixel once
    per filter tap); for opaque single-kernel and graph requests it
    falls back to operand + output volume.  The unit is arbitrary — only
    the *ordering* matters, and it is a pure function of the request,
    so every run ranks identically.
    """
    payload = request.payload

    def volume(array) -> int:
        return int(np.asarray(array).size)

    if request.kind == "gemm":
        m, k = payload["a"].shape
        n = payload["b"].shape[1]
        return m * n * (k + 2)
    if request.kind == "conv_layer":
        return volume(payload["image"]) * volume(payload["filters"])
    if request.kind == "kernel":
        out_rows, out_cols = payload["out_shape"]
        return sum(volume(m) for m in payload["inputs"]) + out_rows * out_cols
    if request.kind == "graph":
        return sum(volume(m) for m in payload["inputs"].values()) + sum(
            node.out_shape[0] * node.out_shape[1] for node in payload["nodes"]
        )
    return 1


@dataclass(frozen=True)
class AdmissionPolicy:
    """How queued requests are ordered when the pool is backlogged.

    The policy contributes a *rank tuple* to the pending-heap key
    ``(ready, *rank, seq)``.  FIFO's rank is empty, so it orders by
    ``(ready, seq)`` alone; the other policies rank same-cycle requests
    by priority class, deadline, or estimated service cost.  Non-FIFO
    policies are **deferring**: a request that would have to wait for a
    busy worker re-enters the heap at the cycle the earliest candidate
    frees, where the rank re-orders it against everything else queued by
    then — so the policy decides who gets the freed worker, not merely
    who is examined first.
    """

    kind: str = "fifo"

    def __post_init__(self) -> None:
        if self.kind not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.kind!r}; expected one of "
                f"{ADMISSION_POLICIES}"
            )

    @classmethod
    def coerce(cls, spec) -> "AdmissionPolicy":
        """None | kind-string | AdmissionPolicy -> AdmissionPolicy."""
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        return cls(str(spec))

    @property
    def immediate(self) -> bool:
        """True when dispatch never defers (FIFO dispatches at ready)."""
        return self.kind == "fifo"

    def rank(self, request: InferenceRequest) -> Tuple[int, ...]:
        """The policy's heap-rank tuple for one request (lower = first)."""
        if self.kind == "fifo":
            return ()
        if self.kind == "priority":
            return (int(request.priority),)
        if self.kind == "edf":
            if request.deadline_cycle is None:
                return (1, 0)  # no deadline: after every deadlined request
            return (0, int(request.deadline_cycle))
        return (estimate_service_cycles(request),)  # sjf


# -- the pool -----------------------------------------------------------------


class SerialPool:
    """The worker pool: in-process :class:`SystemWorker` instances."""

    def __init__(self, workers: Sequence[SystemWorker]) -> None:
        if not workers:
            raise ValueError("pool needs at least one worker")
        self.workers = list(workers)

    def execute(
        self,
        worker: int,
        request: InferenceRequest,
        attempt: int = 1,
        slow_factor: float = 1.0,
        directives: Sequence = (),
        bypass_fastpath: bool = False,
    ) -> RequestResult:
        return self.workers[worker].run(
            request, attempt=attempt, slow_factor=slow_factor,
            directives=directives, bypass_fastpath=bypass_fastpath,
        )


# -- the core -----------------------------------------------------------------


class DispatchCore:
    """One event loop for offline and online serving.

    The loop pops ``(ready, *rank, seq, attempt, position)`` entries off
    a pending heap.  Under :data:`CYCLE_CLOCK` ``ready`` is the
    request's arrival (or retry-backoff) cycle and dispatch goes to the
    candidate with the smallest cycle backlog; under
    :data:`SEQUENCE_CLOCK` ``ready`` is the dispatch sequence number,
    the engine's precomputed assignment is the first-attempt worker and
    retries rebalance by accumulated busy cycles.  Faults, retry,
    failover, quarantine, bounded admission, deadlines and the event
    log behave identically on both clocks (deadlines and the simulated
    timeline exist only in cycles).

    The core draws every fault itself and applies its worker-side
    effects (failure counters, crash and quarantine rebuilds) on the
    pool's workers directly.
    """

    def __init__(
        self,
        pool: SerialPool,
        clock: str = CYCLE_CLOCK,
        admission=None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        supervisor: Optional[WorkerSupervisor] = None,
        queue_capacity: Optional[int] = None,
    ) -> None:
        if clock not in CLOCKS:
            raise ValueError(f"unknown clock {clock!r}; expected one of {CLOCKS}")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1 (or None for unbounded)")
        self.pool = pool
        self.workers = pool.workers
        self.clock = clock
        self.admission = AdmissionPolicy.coerce(admission)
        self.injector = injector
        self.retry = retry or RetryPolicy()
        self.supervisor = supervisor
        self.queue_capacity = queue_capacity
        #: cycle at which each worker drains all dispatched work
        self.free_at = [0] * len(self.workers)
        #: the run's event log; the supervisor's health events share it
        self.events: List[ServingEvent] = (
            supervisor.events if supervisor is not None else []
        )
        #: availability tally for the serving report
        self.tally: Dict = {
            "retries": 0,
            "failovers": 0,
            "failed_attempts_by_class": {},
        }
        #: corruption-recovery tally, kept out of ``tally`` so the
        #: availability schema stays byte-identical when nothing corrupts;
        #: the engine folds it into the report's ``integrity`` section
        self.corruption_tally: Dict[str, int] = {
            "escalations": 0,
            "bypass_retries": 0,
            "failover_escalations": 0,
        }
        #: request positions that suffered >= 1 corrupted-class failure
        #: in the last ``run`` (filled at the end of every run)
        self.corrupted_positions: List[int] = []

    def backlog(self, worker: int, now: int) -> int:
        """Cycles of pending work on ``worker`` as seen at cycle ``now``."""
        return max(0, self.free_at[worker] - now)

    def _candidates(self, now: int, avoid: Optional[int]) -> List[int]:
        """Dispatchable workers at ``now``, preferring not-``avoid``."""
        if self.supervisor is not None:
            ready = self.supervisor.available(now)
        else:
            ready = list(range(len(self.workers)))
        if avoid is not None and self.retry.failover:
            others = [w for w in ready if w != avoid]
            if others:
                return others
        return ready

    def _select_worker(
        self,
        ready: int,
        attempt: int,
        candidates: List[int],
        preferred: Optional[int],
        avoid: Optional[int],
    ) -> int:
        if self.clock == CYCLE_CLOCK:
            return min(candidates, key=lambda w: (self.backlog(w, ready), w))
        # sequence clock: honour the precomputed assignment on the first
        # attempt, rebalance retries by accumulated busy cycles
        if attempt == 1 and preferred is not None and preferred in candidates:
            return preferred
        pool = candidates
        if avoid is not None and self.retry.failover:
            others = [w for w in candidates if w != avoid]
            if others:
                pool = others
        return min(pool, key=lambda w: (self.workers[w].busy_cycles, w))

    def _attempt(
        self,
        worker: int,
        request: InferenceRequest,
        attempt: int,
        bypass_fastpath: bool = False,
    ) -> Tuple[Optional[RequestResult], Optional[ServingError]]:
        """One attempt: draw the fault in the core, execute on the pool.

        The injector decides the attempt's fate *here* — before any
        execution, in deterministic dispatch order — and the decision's
        worker-side effects (failure counters, crash rebuilds) are
        applied to the worker.  Corruption directives are drawn here too
        (same reason) and handed to the worker for application
        mid-execution.
        """
        slow_factor = 1.0
        directives: Sequence = ()
        if self.injector is not None:
            try:
                slow_factor = self.injector.before_attempt(request, attempt, worker)
            except ServingError as error:
                self.workers[worker].apply_injected(error)
                return None, error
            directives = self.injector.corruption_for(request, attempt, worker)
        try:
            result = self.pool.execute(
                worker, request, attempt=attempt,
                slow_factor=slow_factor, directives=directives,
                bypass_fastpath=bypass_fastpath,
            )
        except ServingError as error:
            return None, error
        return result, None

    def run(
        self,
        requests: Sequence[InferenceRequest],
        preferred: Optional[Sequence[int]] = None,
    ) -> List[RequestResult]:
        """Serve every request; results in input order.

        ``preferred`` (sequence clock only) is the engine's precomputed
        request→worker assignment, honoured on first attempts.
        """
        requests = list(requests)
        cycles = self.clock == CYCLE_CLOCK
        if cycles:
            admission = sorted(
                ((request.arrival_cycle, position)
                 for position, request in enumerate(requests)),
                key=lambda entry: entry[:2],
            )
        else:
            # offline: ready == seq == submission position, so the heap
            # replays the batch in assignment order with immediate retries
            admission = [(position, position) for position in range(len(requests))]
        rank_of = [self.admission.rank(request) for request in requests]
        # the pending heap orders (ready, *rank, seq); retries re-enter
        # with a fresh seq so ties within a rank stay deterministic
        pending: List[tuple] = [
            (ready, *rank_of[position], seq, 1, position)
            for seq, (ready, position) in enumerate(admission)
        ]
        heapq.heapify(pending)
        next_seq = len(pending)
        completions: List[Tuple[int, int, int, int]] = []  # (cycle, pos, rid, w)
        results: List[Optional[RequestResult]] = [None] * len(requests)
        attempt_errors: Dict[int, List[str]] = {}
        last_failed: Dict[int, int] = {}
        #: corruption-escalation state: how many ``corrupted`` failures a
        #: position has taken, and (level 1 only) the worker to re-run on
        corrupted_level: Dict[int, int] = {}
        sticky_retry: Dict[int, int] = {}
        dispatched_starts: List[int] = []
        arrived: set = set()

        while pending:
            entry = heapq.heappop(pending)
            ready, position, attempt = entry[0], entry[-1], entry[-2]
            seq = entry[-3]
            request = requests[position]
            rid = request.request_id
            # retire completions that happen before this instant, so the
            # event log interleaves chronologically
            while completions and completions[0][0] <= ready:
                cycle, _, crid, worker = heapq.heappop(completions)
                self.events.append(ServingEvent(cycle, COMPLETION, crid, worker))
            if attempt == 1 and position not in arrived:
                arrived.add(position)
                self.events.append(ServingEvent(ready, ARRIVAL, rid))
            if self.supervisor is not None:
                self.supervisor.tick(ready)
            # bounded admission: how many admitted requests are still
            # waiting (dispatched but not yet started) at this instant?
            if self.queue_capacity is not None:
                depth = sum(1 for s in dispatched_starts if s > ready)
                if depth >= self.queue_capacity:
                    self.events.append(ServingEvent(ready, SHED, rid))
                    results[position] = RequestResult.failure(
                        request, "shed",
                        f"admission queue full ({depth} waiting, capacity "
                        f"{self.queue_capacity}) at cycle {ready}",
                        attempts=attempt,
                        arrival_cycle=request.arrival_cycle if cycles else None,
                        fault_class="queue_full",
                    )
                    continue
            avoid = last_failed.get(position)
            sticky = sticky_retry.pop(position, None)
            if sticky is not None:
                # corruption escalation, level 1: re-run on the *same*
                # worker with the replay fast path bypassed (execution
                # from first principles), unless the supervisor pulled
                # that worker meanwhile
                candidates = self._candidates(ready, None)
                if sticky in candidates:
                    worker = sticky
                else:
                    worker = self._select_worker(
                        ready, attempt, candidates, None, avoid
                    )
            else:
                candidates = self._candidates(ready, avoid)
                worker = self._select_worker(
                    ready, attempt, candidates,
                    preferred[position] if preferred is not None else None,
                    avoid,
                )
            start = max(ready, self.free_at[worker]) if cycles else ready
            # deadline-aware load shedding: don't burn cycles on a request
            # whose queue delay already blew its deadline
            if (
                cycles
                and request.deadline_cycle is not None
                and start > request.deadline_cycle
            ):
                self.events.append(ServingEvent(ready, SHED, rid))
                results[position] = RequestResult.failure(
                    request, "shed",
                    f"projected start cycle {start} past deadline "
                    f"{request.deadline_cycle} (queue delay would blow it)",
                    attempts=attempt, arrival_cycle=request.arrival_cycle,
                    fault_class="deadline",
                )
                continue
            if cycles and not self.admission.immediate and start > ready:
                # deferring policy: wait until the earliest candidate
                # frees; by then the rank re-orders everything queued
                heapq.heappush(
                    pending, (start, *rank_of[position], seq, attempt, position)
                )
                continue
            failover = attempt > 1 and worker != last_failed.get(position)
            if failover:
                self.tally["failovers"] += 1
            bypass = corrupted_level.get(position, 0) > 0
            if bypass and attempt > 1:
                self.corruption_tally["bypass_retries"] += 1
            result, error = self._attempt(
                worker, request, attempt, bypass_fastpath=bypass
            )
            if error is not None:
                self._record_failure(
                    request, worker, ready, attempt, error,
                    attempt_errors.setdefault(position, []),
                )
                last_failed[position] = worker
                if error.fault_class == "corrupted":
                    level = corrupted_level.get(position, 0) + 1
                    corrupted_level[position] = level
                    self.corruption_tally["escalations"] += 1
                    if level == 1:
                        sticky_retry[position] = worker
                    else:
                        self.corruption_tally["failover_escalations"] += 1
                if error.retryable and attempt < self.retry.max_attempts:
                    retry_at = ready + self.retry.backoff(attempt) if cycles else ready
                    self.events.append(ServingEvent(ready, RETRY, rid, worker))
                    self.tally["retries"] += 1
                    heapq.heappush(
                        pending,
                        (retry_at, *rank_of[position], next_seq, attempt + 1,
                         position),
                    )
                    next_seq += 1
                else:
                    results[position] = RequestResult.failure(
                        request, "failed",
                        "; ".join(attempt_errors.get(position, [])),
                        worker=worker, attempts=attempt,
                        arrival_cycle=request.arrival_cycle if cycles else None,
                        fault_class=error.fault_class,
                    )
                continue
            if self.supervisor is not None:
                self.supervisor.record_success(worker, ready)
            result.attempts = attempt
            if attempt_errors.get(position):
                # succeeded after retries: keep the failure history around
                result.error = "; ".join(attempt_errors[position])
            if cycles:
                completion = start + result.sim_cycles
                result.arrival_cycle = request.arrival_cycle
                result.start_cycle = start
                result.completion_cycle = completion
                if (
                    request.deadline_cycle is not None
                    and completion > request.deadline_cycle
                ):
                    result.status = "timed_out"
            else:
                completion = ready
            if cycles:
                self.free_at[worker] = completion
                dispatched_starts.append(start)
            self.events.append(ServingEvent(ready, DISPATCH, rid, worker))
            heapq.heappush(completions, (completion, position, rid, worker))
            results[position] = result
        while completions:
            cycle, _, crid, worker = heapq.heappop(completions)
            self.events.append(ServingEvent(cycle, COMPLETION, crid, worker))
        # positions whose attempts raised at least one corrupted-class
        # failure; the engine maps these back to requests for the
        # report's detection/recovery accounting
        self.corrupted_positions = sorted(corrupted_level)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _record_failure(
        self,
        request: InferenceRequest,
        worker: int,
        cycle: int,
        attempt: int,
        error: ServingError,
        history: List[str],
    ) -> None:
        """Log one failed attempt: event, class tally, recovery diagnostic,
        supervision (quarantine rebuilds the worker's system)."""
        self.events.append(ServingEvent(
            cycle, FAIL, request.request_id, worker,
            fault_class=error.fault_class, injected=error.injected,
        ))
        history.append(f"attempt {attempt} on worker {worker}: {error}")
        recovery = self.workers[worker].last_recovery
        if recovery and recovery.get("error"):
            history.append(
                f"worker {worker} rebuilt after reset failure: {recovery['error']}"
            )
        by_class = self.tally["failed_attempts_by_class"]
        by_class[error.fault_class] = by_class.get(error.fault_class, 0) + 1
        if self.supervisor is not None:
            quarantined = self.supervisor.record_failure(worker, cycle, error)
            if quarantined and not isinstance(error, WorkerCrashError):
                # a crash already rebuilt the worker at injection time
                self.workers[worker].rebuild()

    @property
    def makespan_cycles(self) -> int:
        """Simulated cycle at which the last dispatched request completes."""
        return max(self.free_at, default=0)

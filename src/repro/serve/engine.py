"""The request-level serving engine: many requests, a pool of ARCANE systems.

The :class:`ServingEngine` multiplexes independent inference requests
over a pool of long-lived, reusable
:class:`~repro.serve.worker.SystemWorker` instances, built on the
lifecycle guarantees of ``ArcaneSystem.reset_heap()``.  Both serving
modes take one path: a single runner drives the
:class:`~repro.serve.dispatch.DispatchCore`, and only the clock differs:

* **offline** (:meth:`ServingEngine.serve`) computes a request→worker
  assignment up front — balancing estimated service cost
  (``least_loaded``, by :func:`~repro.serve.dispatch.estimate_service_cycles`,
  the one cost estimate ``sjf`` admission also ranks by) or strictly
  round-robin — and runs the core on the dispatch-sequence
  clock (immediate retries, no simulated timeline);
* **online** (:meth:`ServingEngine.serve_online`) replays seeded request
  arrivals in simulated time on the cycle clock: admission-policy
  ordering (FIFO / priority / EDF / SJF), least-backlog dispatch,
  simulated retry backoff, deadlines and load shedding;
* **fault tolerance** works in both modes: the core draws each seeded
  fault itself (hashing ``(fault_seed, request_id, attempt)``) and
  applies the decision to the worker, so retry/failover/quarantine are
  deterministic for a fixed seed;
* **fleet replay sharing** — ``share_replay=True`` connects every
  worker's replay cache through a
  :class:`~repro.serve.fleet.FleetReplayCache`, so one worker's first
  launch warms the whole pool; results are bit-exact with the cache off;
* **aggregation** — per-request :class:`RunReport`s fold into a
  :class:`~repro.eval.serving.ServingReport` with throughput, latency
  percentiles, an availability section, the run's event log and
  per-worker replay-cache deltas.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import ArcaneConfig
from repro.eval.serving import ServingReport, build_serving_report
from repro.integrity.check import coerce_policy
from repro.integrity.check import covered as abft_covered
from repro.integrity.inject import CORRUPTION_KINDS
from repro.obs.metrics import build_timeline
from repro.obs.spans import build_spans
from repro.serve.dispatch import (
    CYCLE_CLOCK,
    SEQUENCE_CLOCK,
    AdmissionPolicy,
    DispatchCore,
    SerialPool,
    estimate_service_cycles,
)
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    WorkerSupervisor,
)
from repro.serve.fleet import FleetReplayCache
from repro.serve.golden import expected_output
from repro.serve.request import InferenceRequest, RequestResult
from repro.serve.traffic import TrafficSpec, stamp_arrivals
from repro.serve.worker import SystemWorker

POLICIES = ("least_loaded", "round_robin")


class ServingEngine:
    """Schedules independent requests over a pool of reusable systems."""

    def __init__(
        self,
        pool_size: int = 2,
        config: Optional[ArcaneConfig] = None,
        with_compiled: bool = True,
        policy: str = "least_loaded",
        admission: Union[str, AdmissionPolicy, None] = "fifo",
        share_replay: bool = False,
        integrity: Union[str, None] = "off",
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool needs at least one system")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.pool_size = pool_size
        self.config = config
        self.policy = policy
        self.admission = AdmissionPolicy.coerce(admission)
        self.share_replay = share_replay
        self.integrity = coerce_policy(integrity)
        fleet = FleetReplayCache() if share_replay else None
        self.pool = SerialPool([
            SystemWorker(
                i, config, with_compiled, fleet=fleet, integrity=self.integrity,
            )
            for i in range(pool_size)
        ])
        self.workers: List[SystemWorker] = self.pool.workers

    def close(self) -> None:
        """No-op: the in-process pool holds nothing to release.  Kept so
        callers that manage an engine's lifetime need no special case."""

    # -- scheduling -----------------------------------------------------------

    def _assign(self, requests: Sequence[InferenceRequest]) -> List[int]:
        """The preferred worker of every request, chosen before execution.

        ``least_loaded`` balances *estimated* service cost
        (:func:`~repro.serve.dispatch.estimate_service_cycles`; requests
        are assigned before they run, as a front-end load balancer
        would); ``round_robin`` ignores load entirely.
        """
        if self.policy == "round_robin":
            return [i % self.pool_size for i in range(len(requests))]
        load = [0] * self.pool_size
        assignment: List[int] = []
        for request in requests:
            worker = min(range(self.pool_size), key=lambda w: (load[w], w))
            load[worker] += estimate_service_cycles(request)
            assignment.append(worker)
        return assignment

    # -- serving --------------------------------------------------------------

    @staticmethod
    def _check_unique_ids(requests: Sequence[InferenceRequest]) -> None:
        seen_ids = set()
        for request in requests:
            if request.request_id in seen_ids:
                raise ValueError(f"duplicate request_id {request.request_id}")
            seen_ids.add(request.request_id)

    @staticmethod
    def _verify_outputs(
        requests: Sequence[InferenceRequest],
        results: Sequence[RequestResult],
        validate: str = "strict",
    ) -> bool:
        """Check every completed output against the golden model.

        Collects *all* mismatching requests (not just the first) and
        reports, per mismatch, how many elements differ and the max
        absolute difference.  Non-completed results (failed/shed) carry
        no output and are skipped.

        ``validate="strict"`` (the default) raises ``AssertionError`` on
        any mismatch.  ``validate="report"`` instead downgrades each
        mismatching result in place — ``status="corrupted"``,
        ``fault_class="corrupted"``, the mismatch detail on ``error`` —
        keeping the suspect output and the rest of the batch intact,
        and returns ``False``.  This is how undetected silent corruption
        is measured without aborting a serving run.
        """
        if validate not in ("strict", "report"):
            raise ValueError(
                f"validate must be 'strict' or 'report', got {validate!r}"
            )
        mismatches: List[str] = []
        for request, result in zip(requests, results):
            if not result.completed:
                continue
            expected = expected_output(request)
            actual = result.output
            if np.array_equal(actual, expected):
                continue
            if actual is None or actual.shape != expected.shape:
                got = "None" if actual is None else f"shape {actual.shape}"
                detail = (
                    f"request {request.request_id} ({request.kind}): expected "
                    f"shape {expected.shape}, got {got}"
                )
            else:
                diff = np.abs(
                    np.asarray(actual, dtype=np.int64)
                    - np.asarray(expected, dtype=np.int64)
                )
                detail = (
                    f"request {request.request_id} ({request.kind}): "
                    f"{int(np.count_nonzero(diff))}/{diff.size} elements differ, "
                    f"max |diff| = {int(diff.max())}"
                )
            mismatches.append(detail)
            if validate == "report":
                result.status = "corrupted"
                result.fault_class = "corrupted"
                result.error = (
                    f"{result.error}; {detail}" if result.error else detail
                )
        if mismatches:
            if validate == "report":
                return False
            raise AssertionError(
                f"{len(mismatches)} request(s) mismatch the golden model: "
                + "; ".join(mismatches)
            )
        return True

    def _replay_stats(self) -> Dict[int, Optional[Dict[str, int]]]:
        """Every worker's replay-cache counters (None with no cache)."""
        stats: Dict[int, Optional[Dict[str, int]]] = {}
        for worker in self.workers:
            cache = worker.system.llc.runtime.replay_cache
            stats[worker.index] = dict(cache.stats) if cache is not None else None
        return stats

    def _replay_delta(
        self, before: Dict[int, Optional[Dict[str, int]]]
    ) -> Optional[Dict]:
        """Per-worker replay-cache stat deltas over one serving run."""
        per_worker = {}
        for worker, now in sorted(self._replay_stats().items()):
            if now is None:
                continue
            base = before.get(worker) or {}
            per_worker[str(worker)] = {
                key: value - base.get(key, 0) for key, value in now.items()
            }
        if not per_worker:
            return None
        return {"shared": bool(self.share_replay), "per_worker": per_worker}

    def serve(
        self,
        requests: Sequence[InferenceRequest],
        verify: Union[bool, str] = False,
        faults: Optional[Union[str, FaultPlan]] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
    ) -> ServingReport:
        """Run every request as an offline batch, return the aggregate report.

        Each request goes first to the worker the engine's ``policy``
        assigned it, in submission order; the dispatch core runs the
        batch on the dispatch-sequence clock, so the report's event log
        counts dispatch steps rather than simulated cycles.

        Per-request results (with outputs) are kept on ``report.results``;
        with ``verify=True`` (or ``verify="strict"``) every completed
        output is checked against the numpy golden model and any mismatch
        raises with full detail.  ``verify="report"`` performs the same
        check but marks mismatching results ``status="corrupted"`` in
        place instead of raising — the batch survives, and the report's
        ``integrity`` section counts the misses as *undetected*
        corruption.

        A request that fails does **not** abort the batch: retryable
        failures are retried (immediately, failing over to a different
        worker) up to ``retry.max_attempts``, and exhausted or
        non-retryable failures become ``status="failed"`` results.  A
        ``faults`` spec (e.g. ``"kill:0.1"``, see
        :meth:`~repro.serve.faults.FaultPlan.parse`) injects seeded
        faults deterministically: fault decisions are drawn in the
        dispatch core, in dispatch order.
        """
        return self._run(requests, SEQUENCE_CLOCK, verify, faults, fault_seed, retry)

    @staticmethod
    def _validate_mode(verify: Union[bool, str]) -> Optional[str]:
        """Map the ``verify`` argument onto a ``_verify_outputs`` mode."""
        if verify is False or verify is None:
            return None
        if verify is True:
            return "strict"
        if verify in ("strict", "report"):
            return verify
        raise ValueError(
            f"verify must be a bool, 'strict' or 'report', got {verify!r}"
        )

    def _collect_integrity(
        self,
        injector: Optional[FaultInjector],
        core: DispatchCore,
        requests: Sequence[InferenceRequest],
        results: Sequence[RequestResult],
        validated: Optional[str],
    ) -> Optional[Dict]:
        """The report's ``integrity`` section (None when nothing to say).

        Emitted when an integrity policy is armed or the fault plan
        injects data corruption.  ``detected`` counts requests the
        running checks flagged (and escalated); ``corrected`` counts
        outputs ABFT repaired in place without a retry; ``undetected``
        (and detection ``recall``) need golden validation and are only
        present when ``verify="report"`` ran.  ``covered`` narrows the
        same accounting to ABFT-covered (gemm-family) requests — the
        kernels the acceptance gate holds to recall 1.0.
        """
        corrupts = injector is not None and injector.corrupts
        if self.integrity == "off" and not corrupts:
            return None
        injected = {}
        if injector is not None:
            injected = {
                kind: injector.injected[kind]
                for kind in CORRUPTION_KINDS
                if kind in injector.injected
            }
        positions = list(core.corrupted_positions)
        detected = len(positions)
        recovered = sum(
            1 for p in positions if p < len(results) and results[p].status == "ok"
        )
        corrected = sum(
            1
            for r in results
            if r.integrity is not None and r.integrity.get("corrected")
        )
        section: Dict = {
            "policy": self.integrity,
            "injected": injected,
            "detected": detected,
            "corrected": corrected,
            "recovered": recovered,
            "escalations": dict(core.corruption_tally),
        }
        if validated == "report":
            undetected = sum(1 for r in results if r.status == "corrupted")
            caught = detected + corrected
            total = caught + undetected
            section["undetected"] = undetected
            section["recall"] = (caught / total) if total else 1.0
            flags = [abft_covered(request) for request in requests]
            covered_caught = sum(
                1 for p in positions if p < len(flags) and flags[p]
            ) + sum(
                1
                for i, r in enumerate(results)
                if flags[i]
                and r.integrity is not None
                and r.integrity.get("corrected")
            )
            covered_undetected = sum(
                1
                for i, r in enumerate(results)
                if flags[i] and r.status == "corrupted"
            )
            covered_total = covered_caught + covered_undetected
            section["covered"] = {
                "requests": sum(flags),
                "undetected": covered_undetected,
                "recall": (
                    covered_caught / covered_total if covered_total else 1.0
                ),
            }
        return section

    def _collect_health(
        self,
        injector: Optional[FaultInjector],
        supervisor: WorkerSupervisor,
        tally: Dict,
        before: Sequence[Dict[str, int]],
    ) -> Dict:
        """Fold injector/supervisor/worker state into the report's health
        record; worker counters are deltas over this serving run."""
        workers = {}
        for index, (snapshot, worker) in enumerate(zip(before, self.workers)):
            now = worker.health_snapshot()
            workers[index] = {key: now[key] - snapshot[key] for key in now}
        return {
            "retries": tally["retries"],
            "failovers": tally["failovers"],
            "failed_attempts_by_class": dict(tally["failed_attempts_by_class"]),
            "injected": dict(injector.injected) if injector else {},
            "worker_events": [
                {"cycle": event.cycle, "worker": event.worker, "event": event.kind}
                for event in supervisor.events
                if event.source == "health"
            ],
            "workers": workers,
        }

    def serve_online(
        self,
        requests: Sequence[InferenceRequest],
        traffic: Optional[Union[str, TrafficSpec]] = None,
        seed: int = 0,
        verify: Union[bool, str] = False,
        faults: Optional[Union[str, FaultPlan]] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        queue_capacity: Optional[int] = None,
        observe: bool = False,
        metrics_interval: Optional[int] = None,
    ) -> ServingReport:
        """Serve requests as arrival-driven traffic in simulated time.

        With ``traffic`` (a spec string like ``"poisson:25"`` or a
        :class:`~repro.serve.traffic.TrafficSpec`), requests are stamped
        with seeded arrival cycles first; without it, each request's own
        ``arrival_cycle`` is replayed as-is.  The pool then runs the
        dispatch core on the cycle clock — admission-policy ordering
        (the engine's ``admission``: FIFO by default), least-backlog
        dispatch — and the report splits each request's end-to-end
        latency into ``queue_delay + service`` cycles, with per-worker
        utilization over the simulated makespan.

        Failure machinery rides the same loop: ``faults`` injects a
        seeded fault plan, retryable failures back off in simulated
        cycles and re-enter the admission queue (failing over to another
        worker), ``queue_capacity`` bounds the admission queue (excess
        arrivals are shed), per-request ``deadline_cycle`` stamps cause
        deadline-aware shedding and ``timed_out`` statuses, and workers
        that fail repeatedly are quarantined then reinstated after
        probation.  Results are deterministic for a fixed ``(traffic,
        seed, fault_seed)``: the event loop runs in one simulated-time
        domain, and every per-request result is order- and
        worker-independent by the reset-to-cold contract.

        ``observe=True`` builds the observability layer (:mod:`repro.obs`)
        from the run's event log after the run: per-request span trees
        (``report.spans``, exportable to Perfetto via
        :func:`repro.obs.export.write_chrome_trace`) and a rolling-metrics
        ``timeline`` (window width ``metrics_interval`` cycles, auto when
        ``None``).  The run executes the same code either way: outputs,
        cycles, the event log and launch records are bit-identical.
        """
        spec: Optional[TrafficSpec] = None
        if traffic is not None:
            spec = traffic if isinstance(traffic, TrafficSpec) else TrafficSpec.parse(traffic)
        return self._run(
            requests, CYCLE_CLOCK, verify, faults, fault_seed, retry,
            traffic=spec, seed=seed, queue_capacity=queue_capacity,
            observe=observe, metrics_interval=metrics_interval,
        )

    def _run(
        self,
        requests: Sequence[InferenceRequest],
        clock: str,
        verify: Union[bool, str],
        faults: Optional[Union[str, FaultPlan]],
        fault_seed: int,
        retry: Optional[RetryPolicy],
        traffic: Optional[TrafficSpec] = None,
        seed: int = 0,
        queue_capacity: Optional[int] = None,
        observe: bool = False,
        metrics_interval: Optional[int] = None,
    ) -> ServingReport:
        """The one serving path: run the dispatch core on ``clock``, report.

        Offline (:data:`SEQUENCE_CLOCK`) passes the engine's precomputed
        assignment as each request's preferred worker; online
        (:data:`CYCLE_CLOCK`) first stamps ``traffic`` arrivals, if given.
        """
        requests = list(requests)
        self._check_unique_ids(requests)
        validated = self._validate_mode(verify)
        online = clock == CYCLE_CLOCK
        if traffic is not None:
            requests = stamp_arrivals(requests, traffic, seed)
        preferred = None if online else self._assign(requests)
        plan = FaultPlan.coerce(faults)
        injector = FaultInjector(plan, fault_seed) if plan else None
        supervisor = WorkerSupervisor(self.pool_size)
        health_before = [worker.health_snapshot() for worker in self.workers]
        replay_before = self._replay_stats()
        core = DispatchCore(
            self.pool, clock=clock, admission=self.admission,
            injector=injector, retry=retry, supervisor=supervisor,
            queue_capacity=queue_capacity,
        )
        # wall time covers serving on a ready pool, built in __init__
        start = time.perf_counter()
        results = core.run(requests, preferred=preferred)
        wall = time.perf_counter() - start

        verified: Optional[bool] = None
        if validated is not None:
            verified = self._verify_outputs(requests, results, validate=validated)
        health = self._collect_health(injector, supervisor, core.tally, health_before)
        arrivals = traffic.describe() if traffic is not None else "replay"
        report = build_serving_report(
            results, self.pool_size, self.policy, wall, verified,
            mode="online" if online else "offline",
            traffic=arrivals if online else None,
            faults=plan.describe() if plan else None, health=health,
            admission=self.admission.kind,
        )
        report.results = results  # per-request detail rides along (not in JSON)
        report.event_log = core.events
        report.replay = self._replay_delta(replay_before)
        report.integrity = self._collect_integrity(
            injector, core, requests, results, validated
        )
        if observe:
            # after verification, so spans carry a request's final status
            report.spans = build_spans(results, core.events)
            report.timeline = build_timeline(
                results, core.events, self.pool_size,
                interval_cycles=metrics_interval,
            )
        return report

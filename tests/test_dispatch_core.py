"""Dispatch-core tests (``pytest -m dispatch``).

The core logs every offline request's arrival, dispatch and completion;
admission policies order the backlog; and a run with the shared fleet
replay cache produces exactly the cold-cache outputs while giving
workers replay hits on kernels they never launched first.
"""

import numpy as np
import pytest

from repro.core.config import ArcaneConfig
from repro.serve import (
    AdmissionPolicy,
    ServingEngine,
    estimate_service_cycles,
    gemm_request,
)

pytestmark = pytest.mark.dispatch

CFG = ArcaneConfig(n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=512)


def gemm_batch(rng, count, shape=(6, 8, 5)):
    m, k, n = shape
    return [
        gemm_request(
            rid,
            rng.integers(-5, 5, (m, k)).astype(np.int16),
            rng.integers(-5, 5, (k, n)).astype(np.int16),
        )
        for rid in range(count)
    ]


def repeated_gemm_batch(count, shape=(6, 8, 5)):
    """Identical payloads under distinct ids: every request replays one kernel."""
    rng = np.random.default_rng(11)
    m, k, n = shape
    a = rng.integers(-5, 5, (m, k)).astype(np.int16)
    b = rng.integers(-5, 5, (k, n)).astype(np.int16)
    return [gemm_request(rid, a, b) for rid in range(count)]


class TestOfflineDispatch:
    def test_offline_batch_logs_every_event(self, rng):
        """A no-fault offline batch runs through the dispatch core, which
        logs an arrival, a dispatch and a completion per request."""
        report = ServingEngine(pool_size=3, config=CFG).serve(
            gemm_batch(rng, 6), verify=True,
        )
        assert len(report.events()) == 18

    def test_processes_option_is_gone(self):
        """The pool is in-process only: there is no process-count option."""
        removed = {"processes": 2}
        with pytest.raises(TypeError):
            ServingEngine(pool_size=2, **removed)


class TestFleetReplayCache:
    def test_serial_fleet_hits_are_bit_exact(self):
        requests = repeated_gemm_batch(4)
        cold_engine = ServingEngine(pool_size=2, config=CFG)
        shared_engine = ServingEngine(pool_size=2, config=CFG, share_replay=True)
        # one leading launch: the fleet sees the key once on worker 0, so
        # the batch's first launch records it (its second sighting)
        for engine in (cold_engine, shared_engine):
            engine.serve_online(repeated_gemm_batch(1))
        cold = cold_engine.serve_online(requests)
        shared = shared_engine.serve_online(requests)
        for a, b in zip(cold.results, shared.results):
            assert np.array_equal(a.output, b.output)
            assert a.sim_cycles == b.sim_cycles
            assert (a.worker, a.start_cycle, a.completion_cycle) \
                == (b.worker, b.start_cycle, b.completion_cycle)
        assert cold.makespan_cycles == shared.makespan_cycles
        # worker 1 never launched the kernel first, yet replays it from
        # the fleet store seeded by worker 0
        assert shared.replay is not None and shared.replay["shared"]
        assert shared.replay["per_worker"]["1"]["fleet_hits"] >= 1
        assert cold.replay is None or not cold.replay["shared"]


class TestAdmissionPolicies:
    def serve_order(self, requests, admission):
        engine = ServingEngine(pool_size=1, config=CFG, admission=admission)
        report = engine.serve_online(requests)
        started = sorted(report.results, key=lambda r: r.start_cycle)
        return [r.request_id for r in started]

    def test_priority_orders_simultaneous_arrivals(self, rng):
        requests = gemm_batch(rng, 3)
        for request, priority in zip(requests, (2, 0, 1)):
            request.priority = priority
        assert self.serve_order(requests, "priority") == [1, 2, 0]

    def test_edf_orders_by_deadline(self, rng):
        requests = gemm_batch(rng, 3)
        for request, deadline in zip(requests, (30_000_000, 10_000_000, 20_000_000)):
            request.deadline_cycle = deadline
        assert self.serve_order(requests, "edf") == [1, 2, 0]

    def test_sjf_orders_by_estimated_cost(self, rng):
        small = gemm_batch(rng, 1, shape=(4, 4, 4))[0]
        big = gemm_batch(rng, 1, shape=(12, 12, 12))[0]
        big.request_id, small.request_id = 0, 1
        assert self.serve_order([big, small], "sjf") == [1, 0]
        assert estimate_service_cycles(big) > estimate_service_cycles(small)

    def test_fifo_is_the_default(self):
        engine = ServingEngine(pool_size=1, config=CFG)
        assert engine.admission == AdmissionPolicy.coerce("fifo")
        assert engine.admission.immediate

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            ServingEngine(pool_size=1, config=CFG, admission="lifo")

    def test_admission_recorded_in_report(self, rng):
        engine = ServingEngine(pool_size=1, config=CFG, admission="edf")
        report = engine.serve_online(gemm_batch(rng, 2))
        assert report.admission == "edf"
        assert report.as_dict()["admission"] == "edf"

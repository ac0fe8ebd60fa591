#!/usr/bin/env python3
"""Wall-clock simulation-throughput benchmark: the fast path vs. the slow path.

Measures what the hot-path overhaul actually buys in *host seconds* (not
simulated cycles — those are bit-exact between modes by contract):

* **repeated-kernel serving** — one long-lived worker replays the *same*
  request content N >= 50 times (the canonical serving pattern the kernel
  replay cache exists for), once with the fast path disabled
  (``fastpath=False``, the pre-replay slow interpreter) and once enabled;
* **online serving** — a pool of workers serves the same repeated
  workload through the arrival-driven dispatcher;
* **distinct operands** — a pool of 2 serves the serving mix of
  ``bench_serving.make_workload`` (fresh operands on every request).
  Replay recordings are keyed on geometry, not data, so the mix's few
  geometries replay; the benchmark fails unless at least
  ``DISTINCT_HIT_FLOOR`` of the launches are replay hits (a
  deterministic counter, unlike the wall-clock ratio).

For every workload the two modes are cross-checked to be bit-exact
(outputs, per-request simulated cycles, stats counters, phase
breakdowns) — a speedup that changed results would be a bug, and the
benchmark fails hard on any mismatch.  Reported metrics: wall seconds,
simulated cycles/second, kernel launches/second and (online) requests/
second, plus the replay-cache hit counters.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py --smoke
    PYTHONPATH=src python benchmarks/bench_perf.py --repeats 120 --size 32

``--smoke`` is the CI configuration (a few seconds).  The JSON perf
record lands at ``benchmarks/results/BENCH_perf.json``; this file starts
the repo's wall-clock performance trajectory, tracked per commit next to
``BENCH_serving.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from bench_serving import make_workload
from repro.core.config import ArcaneConfig
from repro.serve import (
    ServingEngine,
    SystemWorker,
    conv_layer_request,
    gemm_request,
)

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_perf.json"

#: share of distinct_mix launches that must replay (one recording per
#: kernel geometry, so only each geometry's first two sightings miss)
DISTINCT_HIT_FLOOR = 0.9


def assert_bit_exact(slow_results, fast_results, label: str) -> None:
    for slow, fast in zip(slow_results, fast_results):
        if not np.array_equal(slow.output, fast.output):
            raise AssertionError(f"{label}: outputs diverge between modes")
        if slow.sim_cycles != fast.sim_cycles:
            raise AssertionError(
                f"{label}: simulated cycles diverge "
                f"({slow.sim_cycles} vs {fast.sim_cycles})"
            )
        for slow_report, fast_report in zip(slow.reports, fast.reports):
            if slow_report.stats != fast_report.stats:
                raise AssertionError(f"{label}: stats counters diverge")
            if slow_report.breakdown.cycles != fast_report.breakdown.cycles:
                raise AssertionError(f"{label}: phase breakdowns diverge")


def run_repeated(config: ArcaneConfig, make_request, repeats: int, label: str) -> dict:
    """Serve the same request content ``repeats`` times in both modes."""
    measurements = {}
    for fastpath in (False, True):
        worker = SystemWorker(0, config.with_fastpath(fastpath))
        requests = [make_request(rid) for rid in range(repeats)]
        start = time.perf_counter()
        results = [worker.run(request) for request in requests]
        wall = time.perf_counter() - start
        measurements[fastpath] = (wall, results)

    slow_wall, slow_results = measurements[False]
    fast_wall, fast_results = measurements[True]
    assert_bit_exact(slow_results, fast_results, label)

    sim_cycles = sum(result.sim_cycles for result in slow_results)
    launches = sum(
        report.stats.get("scheduler.kernels", 0)
        for result in slow_results
        for report in result.reports
    )
    replay = {}
    for result in fast_results:
        for report in result.reports:
            for key, value in report.replay.items():
                replay[key] = replay.get(key, 0) + value
    return {
        "label": label,
        "repeats": repeats,
        "kernel_launches": launches,
        "sim_cycles": sim_cycles,
        "slow_seconds": round(slow_wall, 4),
        "fast_seconds": round(fast_wall, 4),
        "speedup": round(slow_wall / fast_wall, 2),
        "slow_sim_cycles_per_sec": round(sim_cycles / slow_wall),
        "fast_sim_cycles_per_sec": round(sim_cycles / fast_wall),
        "slow_launches_per_sec": round(launches / slow_wall, 1),
        "fast_launches_per_sec": round(launches / fast_wall, 1),
        "replay": replay,
        "bit_exact": True,
    }


def run_online(config: ArcaneConfig, requests_factory, n_requests: int,
               trace: str, seed: int) -> dict:
    """Arrival-driven serving of a repeated workload over a pool of 2."""
    measurements = {}
    for fastpath in (False, True):
        engine = ServingEngine(pool_size=2, config=config.with_fastpath(fastpath))
        requests = [requests_factory(rid) for rid in range(n_requests)]
        start = time.perf_counter()
        report = engine.serve_online(requests, traffic=trace, seed=seed)
        wall = time.perf_counter() - start
        measurements[fastpath] = (wall, report)

    slow_wall, slow_report = measurements[False]
    fast_wall, fast_report = measurements[True]
    assert_bit_exact(slow_report.results, fast_report.results, "online")
    for slow, fast in zip(slow_report.results, fast_report.results):
        if (slow.arrival_cycle, slow.start_cycle, slow.completion_cycle) != (
            fast.arrival_cycle, fast.start_cycle, fast.completion_cycle
        ):
            raise AssertionError("online: event timeline diverges between modes")
    return {
        "label": "online_poisson",
        "requests": n_requests,
        "trace": trace,
        "slow_seconds": round(slow_wall, 4),
        "fast_seconds": round(fast_wall, 4),
        "speedup": round(slow_wall / fast_wall, 2),
        "slow_requests_per_sec": round(n_requests / slow_wall, 1),
        "fast_requests_per_sec": round(n_requests / fast_wall, 1),
        "bit_exact": True,
    }


def run_distinct(config: ArcaneConfig, n_requests: int, size: int, seed: int) -> dict:
    """Offline serving of a distinct-operand mix over a pool of 2."""
    measurements = {}
    for fastpath in (False, True):
        engine = ServingEngine(pool_size=2, config=config.with_fastpath(fastpath))
        requests = make_workload(n_requests, size, seed)
        start = time.perf_counter()
        report = engine.serve(requests)
        wall = time.perf_counter() - start
        measurements[fastpath] = (wall, report)

    slow_wall, slow_report = measurements[False]
    fast_wall, fast_report = measurements[True]
    assert_bit_exact(slow_report.results, fast_report.results, "distinct")
    replay = {}
    for stats in fast_report.replay["per_worker"].values():
        for key, value in stats.items():
            replay[key] = replay.get(key, 0) + value
    launches = replay["hits"] + replay["misses"] + replay["bypassed"]
    if replay["hits"] < DISTINCT_HIT_FLOOR * launches:
        raise AssertionError(
            f"distinct: {replay['hits']} replay hits of {launches} launches, "
            f"below the {DISTINCT_HIT_FLOOR:.0%} floor (recordings are keyed "
            "on geometry, so fresh operands must replay)"
        )
    return {
        "label": "distinct_mix",
        "requests": n_requests,
        "size": size,
        "slow_seconds": round(slow_wall, 4),
        "fast_seconds": round(fast_wall, 4),
        "speedup": round(slow_wall / fast_wall, 2),
        "slow_requests_per_sec": round(n_requests / slow_wall, 1),
        "fast_requests_per_sec": round(n_requests / fast_wall, 1),
        "replay": replay,
        "bit_exact": True,
    }


def summary_line(section: dict) -> str:
    return (
        f"{section['label']:<14} fastpath off {section['slow_seconds']:.2f}s"
        f" -> on {section['fast_seconds']:.2f}s  ({section['speedup']:.2f}x)"
        "  bit-exact"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=100,
                        help="times the identical request is replayed (>= 50)")
    parser.add_argument("--size", type=int, default=32, help="base operand size")
    parser.add_argument("--online-requests", type=int, default=60)
    parser.add_argument("--trace", default="poisson:25")
    parser.add_argument("--traffic-seed", type=int, default=7)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--lanes", type=int, default=4)
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: small sizes, a few seconds")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    if args.smoke:
        args.repeats, args.size, args.online_requests = 60, 24, 40
    if args.repeats < 50:
        parser.error("--repeats must be >= 50 (repeated-kernel workload contract)")

    config = ArcaneConfig(
        n_vpus=2, lanes=args.lanes, line_bytes=256, vpu_kib=8,
        main_memory_kib=1024,
    )
    rng = np.random.default_rng(args.seed)
    size = args.size

    a = rng.integers(-6, 6, (size, size)).astype(np.int16)
    b = rng.integers(-6, 6, (size, size)).astype(np.int16)
    c = rng.integers(-6, 6, (size, size)).astype(np.int16)
    gemm = lambda rid: gemm_request(rid, a, b, c, alpha=2, beta=-1)  # noqa: E731

    image = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
    filters = rng.integers(-2, 3, (9, 3)).astype(np.int8)
    conv = lambda rid: conv_layer_request(rid, image, filters)  # noqa: E731

    sections = [
        run_repeated(config, gemm, args.repeats, f"gemm_{size}x{size}"),
        run_repeated(config, conv, args.repeats, f"conv_layer_{size}"),
        run_online(config, gemm, args.online_requests, args.trace,
                   args.traffic_seed),
        run_distinct(config, 300, 12, args.seed),
    ]

    record = {
        "benchmark": "perf",
        "unix_time": int(time.time()),
        "python": platform.python_version(),
        "system": {"config": config.describe()},
        "workload": {
            "repeats": args.repeats,
            "base_size": size,
            "seed": args.seed,
            "trace": args.trace,
            "traffic_seed": args.traffic_seed,
        },
        "sections": sections,
        # headline: the repeated-kernel serving speedup the replay cache targets
        "headline_speedup": sections[0]["speedup"],
        "bit_exact": all(section["bit_exact"] for section in sections),
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print("== wall-clock fast-path benchmark (before/after) ==")
    for section in sections:
        print(summary_line(section))
    print(
        f"headline: {record['headline_speedup']:.2f}x on "
        f"{sections[0]['repeats']}x repeated {sections[0]['label']}"
        f" ({sections[0]['kernel_launches']} kernel launches,"
        f" {sections[0]['sim_cycles']} simulated cycles)"
    )
    distinct = sections[-1]["replay"]
    print(
        f"distinct_mix replay: hits={distinct['hits']} misses={distinct['misses']}"
        f" deferred={distinct['deferred']} recorded={distinct['recorded']}"
    )
    print(f"JSON perf record written to {args.output}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up is
repeated and timed on its own, then requests are served in batches until
``--seconds`` have passed.  ``--trace 1`` serves the workload's fixed
simulated sample twice, untraced and then traced through
:mod:`layers`, checks that both passes produced the same outputs,
simulated metrics and replay counters, and reports the per-layer metrics
of the traced pass.  Every output is checked against the numpy golden
models.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the run.  ``README.md`` beside this file defines every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_mix", "serve_templates", "paper_cnn")

#: set-ups per run; ``setup_s`` is their median
SERVE_SETUPS = 15
PAPER_SETUPS = 3
#: paper_cnn rounds whose simulated metrics are reported
PAPER_SIM_ROUNDS = 4


@contextmanager
def span(clock, layer: str):
    """Attribute a block of the benchmark's own code to ``layer``."""
    if clock is None:
        yield
        return
    clock.enter(layer)
    try:
        yield
    finally:
        clock.leave()


def digest(array) -> str:
    if array is None:
        return "none"
    h = hashlib.blake2b(f"{array.dtype}{array.shape}".encode(), digest_size=16)
    h.update(array.tobytes())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def add_stats(total: dict, stats: dict) -> None:
    for name, value in stats.items():
        total[name] = total.get(name, 0) + value


def sim_counters(n: int, phases: dict, stats: dict) -> dict:
    """Per-request means of the simulated counters of ``n`` requests."""
    out = {
        f"phase.{p}_kcycles": phases.get(p, 0) / n / 1e3
        for p in ("preamble", "allocation", "compute", "writeback")
    }
    vpu_cycles = sum(v for k, v in stats.items() if k.startswith("vpu") and k.endswith(".cycles"))
    hazards = sum(v for k, v in stats.items() if k.startswith("llc.hazard_"))
    out.update({
        "sim.vpu.busy_kcycles": vpu_cycles / n / 1e3,
        "sim.vpu.ops": stats.get("dispatch.ops", 0) / n,
        "sim.llc.hits": stats.get("llc.hits", 0) / n,
        "sim.llc.misses": stats.get("llc.misses", 0) / n,
        "sim.llc.refills": stats.get("llc.refills", 0) / n,
        "sim.llc.lock_acquired": stats.get("llc.lock_acquired", 0) / n,
        "sim.llc.hazard_stalls": hazards / n,
        "sim.alloc.load_kcycles": stats.get("alloc.load_cycles", 0) / n / 1e3,
        "sim.requests": n,
    })
    return out


def replay_counters(replay: dict) -> dict:
    hits, misses = replay.get("hits", 0), replay.get("misses", 0)
    return {
        "runtime.replay.hits": hits,
        "runtime.replay.misses": misses,
        "runtime.replay.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.replay.recorded": replay.get("recorded", 0),
        "runtime.replay.fleet_hits": replay.get("fleet_hits", 0),
    }


@dataclasses.dataclass
class Batch:
    """One timed unit of work: a serve_online call or a paper_cnn round."""

    wall: float
    sent: int
    statuses: dict
    digests: list
    payload: object  # ServingReport, or the round's per-layer records


# -- serve workloads -------------------------------------------------------------


class ServeRun:
    """A ServingEngine serving one of the serve workloads."""

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.engine = None

    def setup(self) -> None:
        """Engine and worker pool, and one warm-up request."""
        from repro.serve import ServingEngine
        from workloads import SERVE_CONFIG, WARM_STREAM, stamp_poisson

        spec = self.spec
        self.engine = ServingEngine(
            pool_size=spec.pool, config=SERVE_CONFIG, share_replay=spec.share_replay,
        )
        warm = stamp_poisson([spec.warm(self.seed)], spec.rate, WARM_STREAM)
        report = self.engine.serve_online(warm, verify="strict")
        if report.results[0].status != "ok":
            raise RuntimeError(f"warm-up request failed: {report.results[0].error}")

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def requests(self, index: int) -> list:
        from workloads import stamp_poisson

        spec = self.spec
        return stamp_poisson(spec.make(self.seed, index, spec.batch), spec.rate, index)

    def batch(self, requests) -> Batch:
        start = time.perf_counter()
        report = self.engine.serve_online(requests, verify="strict")
        wall = time.perf_counter() - start
        results = sorted(report.results, key=lambda r: r.request_id)
        statuses: dict = {}
        for r in results:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        digests = [digest(r.output) for r in results]
        return Batch(wall, len(requests), statuses, digests, report)

    def sim(self, batches) -> dict:
        """Simulated metrics over the given batches' ServingReports."""
        reports = [b.payload for b in batches]
        done = [r for rep in reports for r in rep.results if r.status == "ok"]
        n = len(done)
        latency = [r.latency_cycles for r in done]
        queue = [r.queue_delay_cycles for r in done]
        phases: dict = {}
        stats: dict = {}
        replay: dict = {}
        for r in done:
            add_stats(phases, r.breakdown.cycles)
            for run_report in r.reports:
                add_stats(stats, run_report.stats)
        for rep in reports:
            for counters in (rep.replay or {}).get("per_worker", {}).values():
                add_stats(replay, counters)
        sent = sum(len(rep.results) for rep in reports)
        last_arrival = sum(max(r.arrival_cycle for r in rep.results) for rep in reports)
        makespan = sum(rep.makespan_cycles for rep in reports)
        util = [
            statistics.fmean(rep.per_worker[w]["utilization"] for rep in reports)
            for w in range(self.spec.pool)
        ]
        out = {
            "sim_latency_p50_kcycles": percentile(latency, 50) / 1e3,
            "sim_latency_p99_kcycles": percentile(latency, 99) / 1e3,
            "sim_req_per_mcycle": sent / makespan * 1e6,
            "sim_kcycles_per_req": statistics.fmean(r.sim_cycles for r in done) / 1e3,
            "sim.offered_req_per_mcycle": sent / last_arrival * 1e6,
            "sim.queue_delay_p50_kcycles": percentile(queue, 50) / 1e3,
            "sim.queue_delay_p99_kcycles": percentile(queue, 99) / 1e3,
            "sim.worker_util_mean": statistics.fmean(util),
            "sim.worker_util_max": max(util),
            "sim.drain_kcycles_max": max(
                rep.makespan_cycles - max(r.arrival_cycle for r in rep.results)
                for rep in reports
            ) / 1e3,
        }
        out["sim.worker_util"] = util
        out.update(sim_counters(n, phases, stats))
        out.update(replay_counters(replay))
        return out


# -- paper_cnn -------------------------------------------------------------------


def fit_baselines() -> None:
    """Fit the CV32E40X and CV32E40PX int8 cycle models on the ISS."""
    from repro.baselines import models

    for arch in ("scalar", "pulp"):
        # the fit is cached per process; drop it so each set-up pays it
        models._MODEL_CACHE.pop((arch, 1), None)
        models.fit_conv_model(arch, 1)


def run_paper_layers(seed: int, index: int, clock=None, layers=None) -> list:
    """Run one round of paper layers on fresh systems; verify each output."""
    import numpy as np
    from repro.baselines.reference import ref_conv_layer
    from repro.core.system import ArcaneSystem
    from workloads import PAPER_LAYERS, paper_config, paper_layers

    records = []
    for k, multi, image, filters in paper_layers(seed, index, layers or PAPER_LAYERS):
        system = ArcaneSystem(paper_config(multi))
        output, report = system.run_conv_layer(image, filters)
        with span(clock, "baselines.reference.verify"):
            ok = bool(np.array_equal(output, ref_conv_layer(image, filters)))
        records.append({
            "k": k, "multi": multi, "ok": ok, "digest": digest(output),
            "cycles": report.total_cycles, "breakdown": dict(report.breakdown.cycles),
            "stats": report.stats, "replay": report.replay,
        })
    return records


class PaperRun:
    """The paper's headline conv layers on bare ArcaneSystems."""

    def __init__(self, seed: int, clock=None) -> None:
        self.seed = seed
        self.clock = clock

    def setup(self) -> None:
        fit_baselines()

    def close(self) -> None:
        pass

    def requests(self, index: int) -> int:
        return index

    def batch(self, index: int) -> Batch:
        start = time.perf_counter()
        records = run_paper_layers(self.seed, index, self.clock)
        wall = time.perf_counter() - start
        statuses = {"ok": sum(r["ok"] for r in records)}
        statuses["failed"] = len(records) - statuses["ok"]
        return Batch(wall, len(records), statuses, [r["digest"] for r in records], records)

    def sim(self, batches) -> dict:
        records = [r for b in batches for r in b.payload]
        cycles = [r["cycles"] for r in records]
        phases: dict = {}
        stats: dict = {}
        replay: dict = {}
        for r in records:
            add_stats(phases, r["breakdown"])
            add_stats(stats, r["stats"])
            add_stats(replay, r["replay"])
        # one bare system per layer: no queue, latency is the layer's cycles
        out = {
            "sim_latency_p50_kcycles": percentile(cycles, 50) / 1e3,
            "sim_latency_p99_kcycles": percentile(cycles, 99) / 1e3,
            "sim_req_per_mcycle": len(cycles) / sum(cycles) * 1e6,
            "sim_kcycles_per_req": statistics.fmean(cycles) / 1e3,
        }
        out.update(sim_counters(len(records), phases, stats))
        out.update(replay_counters(replay))
        return out


def anchor_error(records: list) -> tuple:
    """Geometric-mean factor between measured and paper headline speedups.

    ``records`` holds the 3x3, 7x7 and 3x3 multi-instance layers of one
    paper round; baseline cycles come from the fitted ISS models.
    """
    from repro.baselines.models import pulp_conv_layer_cycles, scalar_conv_layer_cycles
    from repro.baselines.scalar_kernels import ConvLayerShape
    from workloads import (
        PAPER_SIZE, PAPER_SPEEDUP_3X3, PAPER_SPEEDUP_7X7, PAPER_SPEEDUP_MULTI,
        PAPER_SPEEDUP_PULP,
    )

    cycles = {(r["k"], r["multi"]): r["cycles"] for r in records}
    shape = {k: ConvLayerShape(PAPER_SIZE, PAPER_SIZE, k) for k in (3, 7)}
    scalar = {k: scalar_conv_layer_cycles(shape[k], 1) for k in (3, 7)}
    pulp3 = pulp_conv_layer_cycles(shape[3], 1)
    measured = {
        "3x3": (scalar[3] / cycles[(3, False)], PAPER_SPEEDUP_3X3),
        "7x7": (scalar[7] / cycles[(7, False)], PAPER_SPEEDUP_7X7),
        "cv32e40px": (scalar[3] / pulp3, PAPER_SPEEDUP_PULP),
        "multi": (scalar[3] / cycles[(3, True)], PAPER_SPEEDUP_MULTI),
    }
    factors = [max(m / p, p / m) for m, p in measured.values()]
    return math.prod(factors) ** (1 / len(factors)), measured


# -- the two modes ---------------------------------------------------------------


def make_run(workload: str, seed: int, clock=None):
    from workloads import SERVE_MIX, SERVE_TEMPLATES

    if workload == "paper_cnn":
        return PaperRun(seed, clock)
    spec = SERVE_MIX if workload == "serve_mix" else SERVE_TEMPLATES
    return ServeRun(spec, seed)


def sim_batches(run) -> int:
    return PAPER_SIM_ROUNDS if isinstance(run, PaperRun) else run.spec.sim_batches


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fmt(values) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def tally(batches) -> dict:
    statuses: dict = {}
    for b in batches:
        add_stats(statuses, b.statuses)
    sent = sum(b.sent for b in batches)
    return {"sent": sent, **{s: statuses.get(s, 0) for s in
            ("ok", "failed", "shed", "timed_out", "corrupted")}}


def check_capacity(run, sim: dict, problems: list) -> None:
    """An open loop is only meaningful below the simulated capacity."""
    if isinstance(run, PaperRun):
        return
    offered = sim["sim.offered_req_per_mcycle"]
    ratio = sim["sim_req_per_mcycle"] / offered
    print(f"capacity: sustained {sim['sim_req_per_mcycle']:.2f} req/Mcycle vs "
          f"offered {offered:.2f} (nominal {run.spec.rate:g}), ratio {ratio:.4f}; "
          f"drain after last arrival <= {sim['sim.drain_kcycles_max']:.1f} kcycles; "
          f"worker utilisation {[round(u, 4) for u in sim['sim.worker_util']]}")
    if ratio < 0.95:
        problems.append(f"sustained rate is {ratio:.3f} of the offered rate: "
                        "the backlog grows, the workload is above capacity")


def timed(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics, tracing off.

    The reference kernel is timed before the first set-up and after every
    set-up and batch; each unit's host time is rescaled by the mean of the
    two kernel times around it (see :mod:`calibrate`).
    """
    from calibrate import REFERENCE_S, kernel_seconds

    def settled_kernel_seconds() -> float:
        # collect the unit's cyclic garbage (simulated systems hold cycles)
        # so that the peak RSS is one unit's, not the collector's timing
        gc.collect()
        return kernel_seconds()

    run = make_run(workload, seed)
    setups = []
    batches = []
    kernel = [settled_kernel_seconds()]
    try:
        for i in range(PAPER_SETUPS if isinstance(run, PaperRun) else SERVE_SETUPS):
            if i:
                run.close()
            start = time.perf_counter()
            run.setup()
            setups.append(time.perf_counter() - start)
            kernel.append(settled_kernel_seconds())
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(batches) < sim_batches(run):
            batches.append(run.batch(run.requests(len(batches))))
            if len(batches) > sim_batches(run):
                batches[-1].payload = None  # keep the heap the size of one batch
            kernel.append(settled_kernel_seconds())
        elapsed = time.perf_counter() - start
    finally:
        run.close()
    rss = peak_rss_mb()
    # host slowdown against the reference host around each unit of work
    slowdown = [(a + b) / 2 / REFERENCE_S for a, b in zip(kernel, kernel[1:])]

    sim = run.sim(batches[: sim_batches(run)])
    problems: list = []
    check_capacity(run, sim, problems)
    if isinstance(run, PaperRun):
        anchor_records = batches[0].payload
    else:
        fit_baselines()
        from workloads import PAPER_LAYERS

        anchor_records = run_paper_layers(seed, 0, layers=PAPER_LAYERS[:3])
        if not all(r["ok"] for r in anchor_records):
            problems.append("an anchor conv layer mismatches ref_conv_layer")
    anchor, measured = anchor_error(anchor_records)

    counts = tally(batches)
    raw_rates = [b.statuses.get("ok", 0) / b.wall for b in batches]
    rates = [r * f for r, f in zip(raw_rates, slowdown[len(setups):])]
    # a serve set-up lasts tens of milliseconds, too short for the kernel
    # times on its edges to describe it: rescale every set-up by the median
    # kernel time of the whole set-up phase
    setup_slowdown = statistics.median(kernel[: len(setups) + 1]) / REFERENCE_S
    setup_ref = [t / setup_slowdown for t in setups]
    print(f"setup: {len(setups)} runs, host s {fmt(setups)}; at reference speed {fmt(setup_ref)}")
    print(f"timed: {len(batches)} batches in {elapsed:.2f} s; host req/s per batch "
          f"{fmt(quartiles(raw_rates))} (p25 p50 p75), at reference speed "
          f"{fmt(quartiles(rates))}; host slowdown {fmt(quartiles(slowdown))}")
    print(f"per batch: host req/s {fmt(raw_rates)}; slowdown {fmt(slowdown[len(setups):])}")
    print("requests: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"replay (simulated sample): hits={sim['runtime.replay.hits']} "
          f"misses={sim['runtime.replay.misses']} recorded={sim['runtime.replay.recorded']} "
          f"fleet_hits={sim['runtime.replay.fleet_hits']}")
    print("anchors: " + ", ".join(f"{k} {m:.1f}x (paper {p:g}x)"
                                  for k, (m, p) in measured.items()))
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "host_req_per_s": (statistics.median(rates), "req/s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_latency_p50_kcycles": (sim["sim_latency_p50_kcycles"], "kcycles"),
        "sim_latency_p99_kcycles": (sim["sim_latency_p99_kcycles"], "kcycles"),
        "sim_req_per_mcycle": (sim["sim_req_per_mcycle"], "req/Mcycle"),
        "sim_kcycles_per_req": (sim["sim_kcycles_per_req"], "kcycles"),
        "anchor_err_x": (anchor, "factor"),
        "ok_frac": (counts["ok"] / counts["sent"], "ratio"),
    }
    failed = counts["sent"] - counts["ok"]
    if failed:
        problems.append(f"{failed} request(s) did not complete ok")
    return metrics, counts["sent"], failed, problems


def region(workload: str, seed: int, clock=None) -> tuple:
    """Set up and serve the simulated sample once; return wall and results."""
    run = make_run(workload, seed, clock)
    try:
        start = time.perf_counter()
        run.setup()
        batches = [run.batch(run.requests(i)) for i in range(sim_batches(run))]
        wall = time.perf_counter() - start
    finally:
        run.close()
    return run, wall, batches


def traced(workload: str, seed: int) -> tuple:
    """Per-layer metrics of a traced pass, checked against an untraced one."""
    import layers

    # one untimed set-up first, so that neither pass pays the lazy imports
    warm = make_run(workload, seed)
    try:
        warm.setup()
    finally:
        warm.close()
    run, plain_wall, plain = region(workload, seed)
    clock = layers.LayerClock()
    uninstall = layers.install(clock)
    try:
        _, wall, batches = region(workload, seed, clock)
    finally:
        uninstall()

    problems: list = []
    sim = run.sim(batches)
    if [b.digests for b in batches] != [b.digests for b in plain]:
        problems.append("traced outputs differ from untraced outputs")
    plain_sim = run.sim(plain)
    if plain_sim != sim:
        diff = sorted(k for k in sim if sim[k] != plain_sim.get(k))
        problems.append(f"traced simulated metrics differ from untraced: {diff}")
    check_capacity(run, sim, problems)
    counts = tally(batches)
    print("requests (traced pass): " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"trace check: outputs, simulated metrics and replay counters "
          f"{'differ' if problems else 'identical'} between untraced "
          f"({plain_wall:.3f} s) and traced ({wall:.3f} s) passes")

    metrics = {}
    for layer, name in layers.SELF_METRICS.items():
        metrics[name] = (clock.self_s.get(layer, 0.0), "s")
    metrics["other_s"] = (wall - sum(clock.self_s.values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_x"] = (wall / plain_wall, "x")
    runs = clock.samples.get("serve.worker.run_s", [])
    metrics["serve.worker.runs"] = (clock.counts.get("serve.worker.runs", 0), "count")
    metrics["serve.worker.run_ms_p50"] = (percentile(runs, 50) * 1e3 if runs else 0.0, "ms")
    metrics["serve.worker.run_ms_p99"] = (percentile(runs, 99) * 1e3 if runs else 0.0, "ms")
    for name, unit in (("vpu.execute_calls", "count"), ("mem.dma.bytes", "bytes"),
                       ("cache.controller.route_bytes", "bytes")):
        metrics[name] = (clock.counts.get(name, 0), unit)
    iss_s = clock.self_s.get("cpu.iss", 0.0)
    metrics["cpu.iss_instr_per_s"] = (
        clock.counts.get("cpu.instret", 0) / iss_s if iss_s else 0.0, "instr/s"
    )
    for name, unit in PER_LAYER_SIM.items():
        metrics[name] = (sim.get(name, 0.0), unit)
    failed = counts["sent"] - counts["ok"]
    if failed:
        problems.append(f"{failed} request(s) did not complete ok")
    return metrics, counts["sent"], failed, problems


#: simulated per-layer counters reported by the traced run, with units
PER_LAYER_SIM = {
    **{f"phase.{p}_kcycles": "kcycles"
       for p in ("preamble", "allocation", "compute", "writeback")},
    "sim.vpu.busy_kcycles": "kcycles", "sim.vpu.ops": "count",
    **{f"sim.llc.{c}": "count"
       for c in ("hits", "misses", "refills", "lock_acquired", "hazard_stalls")},
    "sim.alloc.load_kcycles": "kcycles",
    "sim.queue_delay_p50_kcycles": "kcycles", "sim.queue_delay_p99_kcycles": "kcycles",
    "sim.worker_util_mean": "ratio", "sim.worker_util_max": "ratio",
    "sim.requests": "count",
    "runtime.replay.hits": "count", "runtime.replay.misses": "count",
    "runtime.replay.hit_ratio": "ratio", "runtime.replay.recorded": "count",
    "runtime.replay.fleet_hits": "count",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "ARCANE_NO_FASTPATH" in os.environ:
        print("perfbench: ARCANE_NO_FASTPATH is set; it silently switches the "
              "replay fast path off and changes the program measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from repro.runtime.replay import fastpath_enabled
    from workloads import SERVE_CONFIG, paper_config

    config = paper_config(False) if args.workload == "paper_cnn" else SERVE_CONFIG
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"config: {dataclasses.asdict(config)} "
          f"(effective fastpath {fastpath_enabled(config.fastpath)})")
    try:
        if args.trace:
            metrics, attempted, failed, problems = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, problems = timed(
                args.workload, args.seed, args.seconds
            )
    except AssertionError as error:  # strict verification raises on a mismatch
        metrics, attempted, failed, problems = {}, 1, 1, [f"golden check: {error}"]
    for problem in problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

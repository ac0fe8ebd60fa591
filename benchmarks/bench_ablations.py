"""Ablations — design choices of the ARCANE model (README.md, "Architecture").

A1.1  VPU selection policy (fewest-dirty vs round-robin vs first-free):
      the paper motivates fewest-dirty as minimising eviction write-backs.
A1.2  eCPU issue overhead: the software-decoded dispatch loop is the
      price of ISA flexibility; sweeping it shows when kernels become
      issue-bound vs lane-bound.
A1.3  Off-chip latency: how external-memory speed moves the allocation
      overhead (the 'optimized DMA transfers' remark of section V-C).
A1.4  Multi-instance (multi-VPU sharding) scaling.
"""

import dataclasses

import pytest

from conftest import publish
from repro.core.config import ArcaneConfig
from repro.eval.figures import measure_conv_layer
from repro.eval.tables import render_table

SIZE = 64


def _run(config: ArcaneConfig, **kwargs):
    return measure_conv_layer(SIZE, 3, config=config, **kwargs)


def test_ablation_vpu_policy(benchmark):
    results = {}
    for policy in ("fewest_dirty", "round_robin", "first_free"):
        config = ArcaneConfig(vpu_policy=policy)
        point = _run(config, dtype="int8", lanes=4)
        results[policy] = point
    benchmark.pedantic(
        lambda: _run(ArcaneConfig(vpu_policy="fewest_dirty"), dtype="int8", lanes=4),
        rounds=2, iterations=1,
    )
    rows = [[policy, p.arcane_cycles, f"{p.speedup_vs_scalar:.1f}x"]
            for policy, p in results.items()]
    publish("ablation_vpu_policy", render_table(
        ["policy", "cycles", "speedup"], rows,
        title="A1.1 - VPU selection policy (single kernel: identical by design)"))
    # with a single kernel stream all policies must be functionally identical
    cycles = {p.arcane_cycles for p in results.values()}
    assert len(cycles) == 1


def test_ablation_issue_overhead(benchmark):
    rows = []
    points = {}
    for issue in (4, 12, 24, 48, 96):
        config = dataclasses.replace(ArcaneConfig(), issue_cycles=issue)
        point = _run(config, dtype="int8", lanes=8)
        points[issue] = point
        rows.append([issue, point.arcane_cycles, f"{point.speedup_vs_scalar:.1f}x",
                     f"{100 * point.breakdown.overhead_fraction():.0f}%"])
    benchmark.pedantic(
        lambda: _run(ArcaneConfig(), dtype="int8", lanes=8), rounds=2, iterations=1)
    publish("ablation_issue_overhead", render_table(
        ["issue cycles", "total cycles", "speedup", "overhead"], rows,
        title="A1.2 - eCPU dispatch overhead sweep (int8, 8 lanes, 64x64)"))
    # monotone: softer dispatch loops always help
    cycles = [points[i].arcane_cycles for i in (4, 12, 24, 48, 96)]
    assert cycles == sorted(cycles)
    # int8 @ 8 lanes is issue-bound: doubling issue cost ~doubles compute
    assert points[96].breakdown.cycles["compute"] > 1.7 * points[48].breakdown.cycles["compute"]


def test_ablation_offchip_latency(benchmark):
    rows = []
    points = {}
    for latency in (10, 40, 80, 160):
        config = dataclasses.replace(ArcaneConfig(), offchip_latency=latency)
        point = _run(config, dtype="int8", lanes=8)
        points[latency] = point
        rows.append([latency, point.arcane_cycles,
                     f"{point.breakdown.fraction('allocation') * 100:.0f}%"])
    benchmark.pedantic(
        lambda: _run(ArcaneConfig(), dtype="int8", lanes=8), rounds=2, iterations=1)
    publish("ablation_offchip_latency", render_table(
        ["off-chip latency", "total cycles", "allocation share"], rows,
        title="A1.3 - external memory latency sweep (int8, 8 lanes, 64x64)"))
    assert points[160].breakdown.fraction("allocation") > \
        points[10].breakdown.fraction("allocation")


def test_ablation_multi_instance_scaling(benchmark):
    single = _run(ArcaneConfig(lanes=8), dtype="int8", lanes=8)
    multi = _run(ArcaneConfig(lanes=8, multi_vpu=True), dtype="int8",
                 lanes=8, multi_vpu=True)
    benchmark.pedantic(
        lambda: _run(ArcaneConfig(lanes=8, multi_vpu=True), dtype="int8",
                     lanes=8, multi_vpu=True),
        rounds=2, iterations=1)
    gain = single.arcane_cycles / multi.arcane_cycles
    publish("ablation_multi_instance", render_table(
        ["mode", "cycles", "speedup vs scalar"],
        [["single VPU", single.arcane_cycles, f"{single.speedup_vs_scalar:.1f}x"],
         ["multi-instance (4 VPUs)", multi.arcane_cycles,
          f"{multi.speedup_vs_scalar:.1f}x"],
         ["gain", "-", f"{gain:.2f}x"]],
        title="A1.4 - multi-instance sharding (int8, 8 lanes, 64x64)"))
    assert 1.2 < gain < 4.0  # sub-linear: the bus and decode are shared

"""Seeded inputs for the three benchmark workloads.

Every generator here belongs to the benchmark, so that edits to the
repository's own traffic helpers (``benchmarks/bench_serving.py``,
``repro.serve.traffic``) cannot change what is measured.  Operands are a
pure function of ``(seed, batch)``; the program only ever sees the
generated requests.

Arrival times are the one input that does not follow ``--seed``: each
serve workload replays a fixed Poisson schedule (seeded by
``ARRIVAL_SEED`` and the batch index).  At the serve_mix load, the p99
latency of 1000 requests was 47.7, 60.3 and 70.7 kcycles over three
arrival seeds; a queue model fed with serve_mix's service times puts the
interquartile range at 17% of the median (7% at 8000 requests), which
would hide any regression smaller than that.  With the schedule fixed,
the simulated metrics move only when the operands or the modelled
machine change.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from repro.compiler import FUNC5_CGEMM, FUNC5_EWISE_ADD, FUNC5_FC, FUNC5_ROWSUM
from repro.core.config import ArcaneConfig
from repro.serve import (
    GraphNode,
    InferenceRequest,
    conv_layer_request,
    gemm_request,
    graph_request,
    kernel_request,
)

#: Seed of the fixed per-batch Poisson arrival schedule (see module doc).
ARRIVAL_SEED = 7

#: Simulated machine behind every serve workload: a small ARCANE whose
#: 2 KiB registers make the base-16 operands strip-mine.
SERVE_CONFIG = ArcaneConfig(
    n_vpus=2, lanes=4, line_bytes=256, vpu_kib=8, main_memory_kib=1024
)

#: Operand stream of the warm-up request (no batch index reaches it).
WARM_STREAM = 1 << 30

#: Distinct payloads cycled by serve_templates.
TEMPLATES = 12

#: Paper headline speedups over the scalar CV32E40X (section V-C / VI).
PAPER_SPEEDUP_3X3 = 30.0
PAPER_SPEEDUP_7X7 = 84.0
PAPER_SPEEDUP_PULP = 5.0
PAPER_SPEEDUP_MULTI = 120.0

#: paper_cnn layers: (filter size, multi-instance).  The first three are
#: the paper's anchors; the 7x7 multi-instance layer completes the grid.
PAPER_LAYERS: Tuple[Tuple[int, bool], ...] = ((3, False), (7, False), (3, True), (7, True))
PAPER_SIZE = 256
PAPER_LANES = 8


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload: pool layout, offered load and request source."""

    name: str
    pool: int  # in-process workers
    share_replay: bool
    rate: float  # offered load, requests per simulated Mcycle
    batch: int  # requests per serve_online call
    sim_batches: int  # batches whose simulated metrics are reported
    make: Callable[[int, int, int], List[InferenceRequest]]  # (seed, batch, n)
    warm: Callable[[int], InferenceRequest]  # seed -> warm-up request


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng([int(w) for w in words])


def stamp_poisson(
    requests: List[InferenceRequest], rate: float, batch: int
) -> List[InferenceRequest]:
    """Give the requests the fixed Poisson arrival cycles of ``batch``."""
    gaps = _rng(ARRIVAL_SEED, batch).exponential(1e6 / rate, len(requests))
    cycles = np.floor(np.cumsum(gaps)).astype(np.int64)
    return [
        dataclasses.replace(request, arrival_cycle=int(cycle))
        for request, cycle in zip(requests, cycles)
    ]


# -- serve_mix: distinct operands on every request ------------------------------


def _mix_request(rid: int, rng: np.random.Generator, size: int = 16) -> InferenceRequest:
    """40% conv_layer, 30% gemm, 20% fc, 10% 3-node graph, by ``rid % 10``."""
    slot = rid % 10
    if slot < 4:
        x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
        f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
        return conv_layer_request(rid, x, f)
    if slot < 7:
        m, k, n = size, size + 4, size - 2
        a = rng.integers(-6, 6, (m, k)).astype(np.int16)
        b = rng.integers(-6, 6, (k, n)).astype(np.int16)
        c = rng.integers(-6, 6, (m, n)).astype(np.int16)
        return gemm_request(rid, a, b, c, alpha=2, beta=-1)
    if slot < 9:
        xv = rng.integers(-8, 8, (1, 4 * size)).astype(np.int16)
        w = rng.integers(-8, 8, (4 * size, size)).astype(np.int16)
        bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
        return kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, size))
    m = size // 2
    a = rng.integers(-4, 4, (m, m)).astype(np.int16)
    b = rng.integers(-4, 4, (m, m)).astype(np.int16)
    c = np.zeros((m, m), dtype=np.int16)
    d = rng.integers(-4, 4, (m, m)).astype(np.int16)
    nodes = [
        GraphNode("prod", FUNC5_CGEMM, ("a", "b", "c"), (m, m), params=(1, 0)),
        GraphNode("sum", FUNC5_EWISE_ADD, ("prod", "d"), (m, m)),
        GraphNode("row", FUNC5_ROWSUM, ("sum",), (m, 1)),
    ]
    return graph_request(rid, {"a": a, "b": b, "c": c, "d": d}, nodes)


def mix_batch(seed: int, batch: int, n: int) -> List[InferenceRequest]:
    rng = _rng(seed, batch)
    return [_mix_request(batch * n + i, rng) for i in range(n)]


def mix_warm(seed: int) -> InferenceRequest:
    """A conv layer on its own operand stream; id -1 is no batch's."""
    rng = _rng(seed, WARM_STREAM)
    x = rng.integers(-8, 8, (48, 16)).astype(np.int8)
    f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
    return conv_layer_request(-1, x, f)


# -- serve_templates: a few payloads, cycled ------------------------------------


def _templates(seed: int) -> list:
    """``TEMPLATES`` conv / gemm / fc payloads of varying shape."""
    rng = _rng(seed)
    templates = []
    for t in range(TEMPLATES):
        slot = t % 3
        if slot == 0:
            size = 8 + 2 * (t % 4)
            x = rng.integers(-8, 8, (3 * size, size)).astype(np.int8)
            f = rng.integers(-2, 3, (9, 3)).astype(np.int8)
            templates.append(("conv", (x, f)))
        elif slot == 1:
            m, k, n = 6 + 2 * (t % 4), 8, 6
            a = rng.integers(-6, 6, (m, k)).astype(np.int16)
            b = rng.integers(-6, 6, (k, n)).astype(np.int16)
            templates.append(("gemm", (a, b)))
        else:
            size = 8 + 4 * (t % 3)
            xv = rng.integers(-8, 8, (1, 2 * size)).astype(np.int16)
            w = rng.integers(-8, 8, (2 * size, size)).astype(np.int16)
            bias = rng.integers(-8, 8, (1, size)).astype(np.int16)
            templates.append(("fc", (xv, w, bias)))
    return templates


def _template_request(rid: int, template) -> InferenceRequest:
    kind, data = template
    if kind == "conv":
        return conv_layer_request(rid, *data)
    if kind == "gemm":
        return gemm_request(rid, *data)
    xv, w, bias = data
    return kernel_request(rid, FUNC5_FC, [xv, w, bias], (1, w.shape[1]))


def templates_batch(seed: int, batch: int, n: int) -> List[InferenceRequest]:
    templates = _templates(seed)
    return [
        _template_request(rid, templates[rid % TEMPLATES])
        for rid in range(batch * n, (batch + 1) * n)
    ]


def templates_warm(seed: int) -> InferenceRequest:
    return _template_request(-1, _templates(seed)[0])


SERVE_MIX = ServeSpec(
    "serve_mix", pool=2, share_replay=False, rate=60.0,
    batch=100, sim_batches=10, make=mix_batch, warm=mix_warm,
)
SERVE_TEMPLATES = ServeSpec(
    "serve_templates", pool=4, share_replay=True, rate=250.0,
    batch=250, sim_batches=12, make=templates_batch, warm=templates_warm,
)


# -- paper_cnn: the headline conv layers ----------------------------------------


def paper_config(multi: bool) -> ArcaneConfig:
    """The default (paper section V-A) instance with 8 lanes."""
    return ArcaneConfig().with_lanes(PAPER_LANES).with_multi_vpu(multi)


def paper_layers(seed: int, round_index: int, layers=PAPER_LAYERS) -> list:
    """One round of 256x256x3 int8 layers: ``(k, multi, image, filters)``."""
    rng = _rng(seed, round_index)
    out = []
    for k, multi in layers:
        image = rng.integers(-8, 8, (3 * PAPER_SIZE, PAPER_SIZE)).astype(np.int8)
        filters = rng.integers(-2, 3, (3 * k, k)).astype(np.int8)
        out.append((k, multi, image, filters))
    return out

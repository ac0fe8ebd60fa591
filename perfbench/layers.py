"""Per-layer host-time attribution for the traced benchmark run.

:func:`install` wraps the public entry point of each layer (a class
method or a module function) so that every call, or every resumption of
a generator-based simulation process, becomes a span on one
:class:`LayerClock`.  A layer's *self* time is its spans' duration minus
the part covered by nested spans of other layers, so the self times of
all layers plus the unattributed remainder add up to the wall time of
the traced region.

The wrappers only time and count: they call the original function with
the original arguments and return its result, so the traced run executes
the same code, with the same outputs and simulated cycles, as the
untraced one (``run.py`` checks this on every traced run).

Only in-process pools are traced: with ``processes > 1`` the workers run
in shard processes, whose spans this clock does not see.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class LayerClock:
    """Self time, counters and per-call samples, keyed by layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._stack: List[list] = []  # [layer, start, seconds in nested spans]

    @property
    def current(self):
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> float:
        """Close the innermost span; return its inclusive duration."""
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed


class _TimedGenerator:
    """Iterator that times each resumption of a wrapped generator."""

    __slots__ = ("_inner", "_clock", "_layer")

    def __init__(self, inner, clock: LayerClock, layer: str) -> None:
        self._inner = inner
        self._clock = clock
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._clock.enter(self._layer)
        try:
            return self._inner.send(value)
        finally:
            self._clock.leave()

    def throw(self, *args):
        self._clock.enter(self._layer)
        try:
            return self._inner.throw(*args)
        finally:
            self._clock.leave()

    def close(self) -> None:
        self._inner.close()


def _plain(clock: LayerClock, layer: str, calls: str = "") -> Callable:
    """Wrap a function; each call bumps the counter ``calls`` if named."""

    def make(func):
        def wrapper(*args, **kwargs):
            if calls:
                clock.counts[calls] += 1
            clock.enter(layer)
            try:
                return func(*args, **kwargs)
            finally:
                clock.leave()

        return wrapper

    return make


def _generator(clock: LayerClock, layer: str) -> Callable:
    def make(func):
        def wrapper(*args, **kwargs):
            return _TimedGenerator(func(*args, **kwargs), clock, layer)

        return wrapper

    return make


def _route(clock: LayerClock, nbytes: Callable) -> Callable:
    """LLC routing; bytes moved by the allocator's DMA count as DMA bytes."""

    def make(func):
        def wrapper(*args, **kwargs):
            moved = nbytes(args)
            clock.counts["cache.controller.route_bytes"] += moved
            if clock.current == "mem.dma":
                clock.counts["mem.dma.bytes"] += moved
            clock.enter("cache.controller.route")
            try:
                return func(*args, **kwargs)
            finally:
                clock.leave()

        return wrapper

    return make


def _worker_run(clock: LayerClock) -> Callable:
    """Worker attempts: self time plus every attempt's inclusive duration."""

    def make(func):
        def wrapper(*args, **kwargs):
            clock.enter("serve.worker")
            try:
                return func(*args, **kwargs)
            finally:
                clock.samples["serve.worker.run_s"].append(clock.leave())
                clock.counts["serve.worker.runs"] += 1

        return wrapper

    return make


def _cpu_run(clock: LayerClock) -> Callable:
    def make(func):
        def wrapper(cpu, *args, **kwargs):
            before = cpu.instret
            clock.enter("cpu.iss")
            try:
                return func(cpu, *args, **kwargs)
            finally:
                clock.leave()
                clock.counts["cpu.instret"] += cpu.instret - before

        return wrapper

    return make


def _targets(clock: LayerClock) -> List[Tuple[Any, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced entry point."""
    from repro.cache.controller import LlcController
    from repro.cpu.core import Cpu
    from repro.runtime import scheduler as scheduler_module
    from repro.runtime.allocator import MatrixAllocator
    from repro.runtime.decoder import KernelDecoder
    from repro.runtime.replay import ReplayCache
    from repro.runtime.scheduler import KernelScheduler
    from repro.serve.dispatch import DispatchCore, SerialPool
    from repro.serve.engine import ServingEngine
    from repro.serve.worker import SystemWorker
    from repro.sim.kernel import Simulator
    from repro.vpu.vpu import Vpu
    from repro.xbridge.bridge import Bridge

    dma = _generator(clock, "mem.dma")
    return [
        (ServingEngine, "serve_online", _plain(clock, "serve.engine")),
        (ServingEngine, "_verify_outputs", _plain(clock, "serve.golden.verify")),
        (DispatchCore, "run", _plain(clock, "serve.dispatch")),
        (SerialPool, "execute", _plain(clock, "serve.pool")),
        (SystemWorker, "run", _worker_run(clock)),
        (Simulator, "run", _plain(clock, "sim.kernel")),
        (Bridge, "offload", _generator(clock, "xbridge.offload")),
        (KernelDecoder, "decode", _generator(clock, "runtime.decoder")),
        (KernelScheduler, "execute", _generator(clock, "runtime.scheduler")),
        # multi-instance shards run the kernel body in simulation processes
        (KernelScheduler, "_shard_wrapper", _generator(clock, "runtime.scheduler")),
        (ReplayCache, "key_for", _plain(clock, "runtime.replay.key")),
        (scheduler_module, "replay_kernel", _generator(clock, "runtime.replay.replay")),
        (MatrixAllocator, "load_rows", dma),
        (MatrixAllocator, "load_row_set", dma),
        (MatrixAllocator, "load_packed", dma),
        (MatrixAllocator, "store_rows", dma),
        (Vpu, "execute", _plain(clock, "vpu.execute", "vpu.execute_calls")),
        (LlcController, "route_read", _route(clock, lambda args: args[2])),
        (LlcController, "route_write", _route(clock, lambda args: len(args[2]))),
        (Cpu, "run", _cpu_run(clock)),
    ]


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap every traced entry point; return a function that unwraps them.

    Install before any system or engine is created:
    objects built earlier may hold references to the unwrapped methods.
    """
    originals = []
    for owner, name, make in _targets(clock):
        original = vars(owner)[name]
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        wrapped = functools.wraps(func)(make(func))
        setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
        originals.append((owner, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    return uninstall


#: metric name of each layer's self time
SELF_METRICS = {
    "serve.engine": "serve.engine.self_s",
    "serve.golden.verify": "serve.golden.verify_s",
    "serve.dispatch": "serve.dispatch.self_s",
    "serve.pool": "serve.pool.ipc_s",
    "serve.worker": "serve.worker.self_s",
    "baselines.reference.verify": "baselines.reference.verify_s",
    "sim.kernel": "sim.kernel.run_s",
    "xbridge.offload": "xbridge.offload_s",
    "runtime.decoder": "runtime.decoder.decode_s",
    "runtime.scheduler": "runtime.scheduler.execute_s",
    "runtime.replay.key": "runtime.replay.key_s",
    "runtime.replay.replay": "runtime.replay.replay_s",
    "mem.dma": "mem.dma.transfer_s",
    "vpu.execute": "vpu.execute_s",
    "cache.controller.route": "cache.controller.route_s",
    "cpu.iss": "cpu.iss_s",
}

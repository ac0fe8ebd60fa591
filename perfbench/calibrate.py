"""A fixed reference kernel that measures how fast the host runs right now.

The hosts this benchmark runs on share their cores, and the same
CPU-bound code can run 1.6x slower from one second to the next (a fixed
pure-Python loop took 69 to 111 ms over 40 samples on a 2-core x86-64
virtual machine).
Host-time metrics are therefore rescaled by this kernel, timed before
and after every measured unit of work: a metric reads as it would on a
host where the kernel takes :data:`REFERENCE_S`.

The kernel does what the simulator spends its host time on (generator
resumption, heap scheduling, dict counters and small numpy operations)
and calls no repository code, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: kernel time on the reference host: the median of 40 samples on a
#: 2-core x86-64 virtual machine
REFERENCE_S = 0.037

#: a working set larger than the core's private caches, touched the way
#: the simulator touches its heap: rows of a memory image, and objects
_MEMORY = np.random.default_rng(0).integers(0, 256, 2 << 20, dtype=np.uint8).tobytes()
_ROWS = len(_MEMORY) // 256


class _Record:
    __slots__ = ("tag", "hits")

    def __init__(self, index: int) -> None:
        self.tag = str(index)
        self.hits = 0


_RECORDS = [_Record(i) for i in range(20000)]


def _process(steps: int, counters: dict, salt: int):
    acc = np.zeros(64, dtype=np.int32)
    for i in range(steps):
        offset = ((i * 2654435761 + salt * 97) % _ROWS) * 256
        acc += np.frombuffer(_MEMORY, dtype=np.int32, count=64, offset=offset) * (i & 3)
        record = _RECORDS[(i * 7919 + salt) % len(_RECORDS)]
        record.hits += 1
        counters[record.tag] = counters.get(record.tag, 0) + 1
        yield 1 + (i & 3)
    return int(acc.sum())


def kernel_seconds() -> float:
    """Host seconds one run of the reference kernel takes now.

    The collector is off while the kernel runs: a collection would charge
    it for the size of the caller's heap, not for the host's speed.
    """
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        gc.enable()


def _timed_kernel() -> float:
    start = time.perf_counter()
    heap = []
    counters: dict = {}
    for seq in range(24):
        heapq.heappush(heap, (0, seq, _process(300, counters, seq)))
    seq = 24
    while heap:
        now, _, process = heapq.heappop(heap)
        try:
            delay = next(process)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, process))
        seq += 1
    return time.perf_counter() - start

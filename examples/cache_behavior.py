#!/usr/bin/env python3
"""ARCANE as a plain cache + the hazard protocol, made visible.

Demonstrates paper section III-A:

1. normal cache mode — hits resolve in one cycle, misses fill from
   external memory, dirty lines write back on replacement (approximate
   LRU chooses victims);
2. hazard management — a host load of a kernel's destination (RAW) and a
   host store to a kernel's source (WAR) stall exactly until the C-RT
   releases the operand regions, and the values prove the ordering.

Usage:  python examples/cache_behavior.py
"""

import numpy as np

from repro import ArcaneConfig, ArcaneSystem
from repro.baselines.reference import ref_leaky_relu


def cache_mode_demo() -> None:
    print("=== 1. normal cache functioning mode ===")
    system = ArcaneSystem(ArcaneConfig(lanes=2))
    data = np.arange(64 * 64, dtype=np.int32).reshape(64, 64)
    matrix = system.place_matrix(data, "data")

    with system.program() as prog:
        prog.load(matrix, 0, 0)   # cold miss
        prog.load(matrix, 0, 1)   # same line: hit
        prog.load(matrix, 0, 2)   # hit
        prog.store(matrix, 0, 3, -5)  # hit, marks line dirty
    stats = system.last_report.stats
    print(f"  accesses: 4  hits: {stats['llc.hits']}  misses: {stats['llc.misses']}")
    occupancy = system.llc.cache_table.occupancy()
    print(f"  lines valid: {occupancy['valid']}, dirty: {occupancy['dirty']} "
          "(write-back policy: the store has not reached memory yet)")
    in_memory = system.memory.read_u32(matrix.element_address(0, 3))
    print(f"  memory still holds the old value: {in_memory}")
    system.llc.controller.flush()
    flushed = np.frombuffer(
        system.memory.read_block(matrix.element_address(0, 3), 4), np.int32
    )[0]
    print(f"  after flush it holds: {flushed}")


def hazard_demo() -> None:
    print("\n=== 2. cache locking and hazards management ===")
    system = ArcaneSystem(ArcaneConfig(lanes=2))
    x = np.full((8, 16), -7, dtype=np.int32)
    mx = system.place_matrix(x, "x")
    out = system.alloc_matrix(x.shape, np.int32, "out")

    with system.program() as prog:
        prog.xmr(0, mx).xmr(1, out)
        prog.leaky_relu(dest=1, src=0, alpha=0)
        # RAW: issued by the host immediately after the offload handshake,
        # long before the kernel finishes — must return the computed value.
        prog.load(out, 7, 15)
        # WAR: a store to the kernel's *source* — must not corrupt the
        # input the kernel is still reading.
        prog.store(mx, 0, 0, 12345)

    report = system.last_report
    raw_value = report.load_values[0]
    expected = int(ref_leaky_relu(x, 0)[7, 15])
    print(f"  RAW-guarded load returned {raw_value} (expected {expected}) "
          f"{'OK' if raw_value == expected else 'WRONG'}")
    print(f"  RAW stalls observed: {report.stats.get('llc.hazard_raw_stalls', 0)}, "
          f"WAR stalls observed: {report.stats.get('llc.hazard_war_stalls', 0)}")
    assert np.array_equal(system.read_matrix(out), ref_leaky_relu(x, 0))
    assert system.read_matrix(mx)[0, 0] == 12345  # the store did land, after release
    print("  kernel output unaffected by the racing store: verified")

    print("\n  where the cycles went:")
    for kernel_id, phases in sorted(report.per_kernel.items()):
        split = "  ".join(f"{name}={cycles}" for name, cycles in phases.as_dict().items())
        print(f"    kernel {kernel_id}: {split}  (total {phases.total})")
    print(f"    host program: {report.host_cycles} cycles "
          f"(the stalled load and store included); run total: {report.total_cycles}")


def main() -> None:
    cache_mode_demo()
    hazard_demo()


if __name__ == "__main__":
    main()

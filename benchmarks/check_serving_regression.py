#!/usr/bin/env python3
"""Gate serving-performance regressions against the committed baseline.

Compares a freshly generated ``BENCH_serving.json`` against the committed
one and fails (exit 1) when a *simulated* throughput metric regresses by
more than the threshold (default 20%).  Only simulated-time metrics are
gated — ``requests_per_megacycle``, ``cycles_per_request``, p99 queue
delay — because they are seeded-deterministic: a regression means the
dispatch core, the scheduler, or the replay cache actually got worse,
not that CI drew a slow machine.  Wall-clock metrics are never compared.

The offline/online sections are compared only when their
workload/system configuration matches between the two records (request
count, pool size, traffic spec, seeds); a mismatched one is skipped with
a note.  The fresh ``scale`` section is compared against whichever
committed scale section has its configuration: ``scale`` (the
full-scale record) or ``scale_bounded`` (the CI run's ``--scale-requests
300 --scale-pool 8``).  A scale section that matches neither fails.

The committed baseline itself is validated: its ``scale`` section must
report ``pool_size >= 32`` and ``requests >= 10000`` (the scale
acceptance bar), so the full-scale record cannot silently rot into a
bounded one.

When the fresh record carries an ``integrity`` section (the bench ran
with ``--integrity``), it is gated on its own terms, no baseline
needed: the drill must have manifested at least 30 corruptions (caught
plus undetected; a recall over a tiny sample proves nothing), and the
Wilson 95% lower bound of caught / manifested is printed.  The ``abft``
policy must report detection recall 1.0 over the ABFT-covered
gemm-family kernels, and the clean-run overhead of the policy must stay bounded
(ABFT adds host-side checks only, so its simulated-cycle ratio is
pinned at ~1.0).

Usage::

    PYTHONPATH=src python benchmarks/check_serving_regression.py \
        --baseline benchmarks/baselines/BENCH_serving.json \
        --current benchmarks/results/BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

#: (metric path, direction) gated per serving section; "higher" means a
#: drop is a regression, "lower" means a rise is.
SECTION_METRICS = (
    (("requests_per_megacycle",), "higher"),
    (("cycles_per_request",), "lower"),
    (("queue_delay_cycles", "p99"), "lower"),
)
SCALE_METRICS = (
    (("requests_per_megacycle",), "higher"),
    (("cycles_per_request",), "lower"),
    (("queue_delay_p99_cycles",), "lower"),
)
#: Queue-delay p99 below this many cycles is noise-level queueing; a
#: relative gate on it would flag 0 -> 500 as infinite regression.
ABS_FLOOR_CYCLES = 2000.0

MIN_SCALE_POOL = 32
MIN_SCALE_REQUESTS = 10000
#: Committed scale sections a fresh ``scale`` section may be compared to.
SCALE_BASELINES = ("scale", "scale_bounded")

#: Fewest manifested corruptions (caught + undetected) for a drill's
#: recall to mean something.
MIN_MANIFESTED = 30

#: Integrity-drill bounds.  ABFT checksums run host-side, so the clean
#: run must cost no extra simulated cycles; the wall-clock bound is
#: generous because CI smoke runs are sub-second and noisy.
ABFT_MAX_CLEAN_CYCLES_RATIO = 1.01
MAX_CLEAN_WALL_RATIO = 3.0


def dig(record: dict, path: tuple) -> float | None:
    value = record
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return float(value) if isinstance(value, (int, float)) else None


def section_config(record: dict, section: dict) -> tuple:
    """What must match for two records' sections to be comparable."""
    workload = record.get("workload", {})
    return (
        workload.get("requests"), workload.get("base_size"),
        workload.get("seed"), workload.get("trace"),
        workload.get("traffic_seed"), workload.get("faults"),
        workload.get("fault_seed"),
        section.get("n_requests"), section.get("pool_size"),
        section.get("policy"), section.get("admission"),
    )


def scale_config(scale: dict, section: dict) -> tuple:
    return (
        scale.get("pool_size"), scale.get("requests"), scale.get("seed"),
        scale.get("traffic_seed"), section.get("trace"),
    )


def compare(name: str, base: dict, curr: dict, metrics, threshold: float):
    """Yield (metric, base, curr, failed) rows for one comparable section."""
    for path, direction in metrics:
        label = ".".join(path)
        base_value = dig(base, path)
        curr_value = dig(curr, path)
        if base_value is None or curr_value is None:
            print(f"  {name}.{label}: missing on one side, skipped")
            continue
        if "queue_delay" in label and base_value < ABS_FLOOR_CYCLES \
                and curr_value < ABS_FLOOR_CYCLES:
            print(f"  {name}.{label}: {base_value:g} -> {curr_value:g} "
                  f"(below {ABS_FLOOR_CYCLES:g}-cycle floor, not gated)")
            continue
        if base_value == 0:
            print(f"  {name}.{label}: baseline is 0, skipped")
            continue
        change = (curr_value - base_value) / base_value
        regressed = change < -threshold if direction == "higher" \
            else change > threshold
        status = "FAIL" if regressed else "ok"
        print(f"  {name}.{label}: {base_value:g} -> {curr_value:g} "
              f"({change:+.1%}) [{status}]")
        yield regressed


def wilson_lower_bound(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower end of the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0
    p = successes / trials
    z2 = z * z
    centre = p + z2 / (2 * trials)
    margin = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (centre - margin) / (1 + z2 / trials)


def check_integrity(section: dict) -> int:
    """Gate the fresh record's integrity drill; returns failure count.

    Self-contained (no baseline comparison): the drill's fault plan and
    seeds live in the section itself, so its claims — recall over
    manifested corruption, detection overhead — are checked absolutely.
    """
    failures = 0
    policy = section.get("policy")
    injected = sum((section.get("injected") or {}).values())
    caught = section.get("detected", 0) + section.get("corrected", 0)
    undetected = section.get("undetected", 0)
    covered = section.get("covered") or {}
    print(f"integrity (policy={policy}, faults={section.get('faults')}):")

    manifested = caught + undetected
    if manifested < MIN_MANIFESTED:
        print(f"  sample: injected={injected} caught={caught} "
              f"undetected={undetected} [FAIL] — fewer than {MIN_MANIFESTED} "
              f"manifested corruptions, recall is not meaningful; raise the "
              f"drill's corruption rate")
        failures += 1
    else:
        print(f"  sample: injected={injected} caught={caught} "
              f"undetected={undetected} [ok]")
        print(f"  recall: {caught}/{manifested} = {caught / manifested:.3f}, "
              f"Wilson 95% lower bound "
              f"{wilson_lower_bound(caught, manifested):.3f}")

    if policy == "abft":
        recall = covered.get("recall")
        if recall is None or recall < 1.0:
            print(f"  covered.recall: {recall} [FAIL] — ABFT must catch every "
                  f"manifested corruption on gemm-family kernels")
            failures += 1
        else:
            print(f"  covered.recall: {recall:.2f} over "
                  f"{covered.get('requests')} covered request(s) [ok]")
        for path, bound in (
            (("overhead", "clean_cycles_ratio"), ABFT_MAX_CLEAN_CYCLES_RATIO),
            (("overhead", "clean_wall_ratio"), MAX_CLEAN_WALL_RATIO),
        ):
            label = ".".join(path)
            value = dig(section, path)
            if value is None:
                print(f"  {label}: missing, skipped")
                continue
            status = "FAIL" if value > bound else "ok"
            print(f"  {label}: {value:g} (bound {bound:g}) [{status}]")
            failures += value > bound
    return failures


def check_scale(baseline: dict, current: dict, threshold: float) -> int:
    """Gate each fresh scale section against the committed scale section
    with the same configuration; returns failure count."""
    curr_scale = current.get("scale")
    if curr_scale is None:
        print("scale: absent in current record, skipped")
        return 0
    failures = 0
    for name, curr in (curr_scale.get("sections") or {}).items():
        wanted = scale_config(curr_scale, curr)
        match = None
        for key in SCALE_BASELINES:
            base_scale = baseline.get(key) or {}
            base = (base_scale.get("sections") or {}).get(name)
            if base is not None and scale_config(base_scale, base) == wanted:
                match = key, base
                break
        if match is None:
            print(f"scale.{name}: no committed {'/'.join(SCALE_BASELINES)} "
                  f"section matches configuration {wanted} [FAIL]")
            failures += 1
            continue
        key, base = match
        print(f"scale.{name} (vs baseline {key}):")
        failures += sum(
            compare(f"scale.{name}", base, curr, SCALE_METRICS, threshold)
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=pathlib.Path, required=True,
                        help="committed BENCH_serving.json")
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="freshly generated BENCH_serving.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated relative regression (0.20 = 20%%)")
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    failures = 0

    base_scale = baseline.get("scale") or {}
    if base_scale.get("pool_size", 0) < MIN_SCALE_POOL \
            or base_scale.get("requests", 0) < MIN_SCALE_REQUESTS:
        print(f"FAIL: committed baseline scale section must report "
              f"pool_size >= {MIN_SCALE_POOL} and requests >= "
              f"{MIN_SCALE_REQUESTS}, got pool_size="
              f"{base_scale.get('pool_size')} "
              f"requests={base_scale.get('requests')}")
        failures += 1

    for name in ("offline", "online", "online_faults"):
        base = baseline.get(name)
        curr = current.get(name)
        if base is None or curr is None:
            print(f"{name}: absent on one side, skipped")
            continue
        if section_config(baseline, base) != section_config(current, curr):
            print(f"{name}: configuration differs from baseline, skipped")
            continue
        print(f"{name}:")
        failures += sum(
            compare(name, base, curr, SECTION_METRICS, args.threshold)
        )

    integrity = current.get("integrity")
    if integrity is None:
        print("integrity: absent in current record, skipped")
    else:
        failures += check_integrity(integrity)

    failures += check_scale(baseline, current, args.threshold)

    if failures:
        print(f"\n{failures} serving regression check(s) failed "
              f"(threshold {args.threshold:.0%})")
        return 1
    print("\nserving regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

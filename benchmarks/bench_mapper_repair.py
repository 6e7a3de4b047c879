"""Incremental repair vs full re-solve — the fault-path mapping speedup.

On the pinned 64-queue / 8-device acceptance instance (two device classes,
seed 217, device ``d2`` failed), the incremental repair in
:mod:`repro.core.constraints` must be at least **5x** faster than a fresh
:func:`~repro.core.device_mapper.optimal_mapping` over the degraded pool,
while migrating only the dead device's queues and matching or beating the
fresh greedy makespan.  Both halves run as a test (CI smoke via the
``repair-smoke`` job) and as a standalone table; ``run_perf_baseline.py``
times the same instance as its ``mapper_repair`` bench.

Run standalone:  PYTHONPATH=src python benchmarks/bench_mapper_repair.py
"""

import random
import statistics
import time

from repro.core.constraints import repair_mapping
from repro.core.device_mapper import optimal_mapping

QUEUES = 64
DEVICES = 8
SEED = 217
DEAD = "d2"
REPEATS = 30
MIN_SPEEDUP = 5.0


def pinned_instance():
    """The acceptance instance: two device classes with per-pair noise.

    Returns the healthy pool ``(queues, devices, cost)``.
    """
    rng = random.Random(SEED)
    queues = [f"q{i}" for i in range(QUEUES)]
    devices = [f"d{j}" for j in range(DEVICES)]
    speed = {d: (1.0 if j < 4 else 2.5) for j, d in enumerate(devices)}
    cost = {
        q: {d: rng.uniform(1.0, 10.0) * speed[d] for d in devices}
        for q in queues
    }
    return queues, devices, cost


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run() -> dict:
    queues, devices, cost = pinned_instance()
    prev = optimal_mapping(queues, devices, cost)
    degraded = [d for d in devices if d != DEAD]
    cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}

    solve_s, fresh = _median_time(lambda: optimal_mapping(queues, degraded, cost2))
    repair_s, repaired = _median_time(
        lambda: repair_mapping(prev, queues, degraded, cost2)
    )
    orphans = {q for q, d in prev.mapping.items() if d == DEAD}
    return {
        "solve_ms": solve_s * 1e3,
        "repair_ms": repair_s * 1e3,
        "speedup": solve_s / repair_s,
        "repaired": repaired.repaired,
        "migrated": len(repaired.migrated_queues),
        "orphans": len(orphans),
        "repair_makespan": repaired.makespan,
        "solve_makespan": fresh.makespan,
    }


def test_repair_beats_full_resolve():
    row = run()
    assert row["repaired"], "pinned instance must take the repair path"
    assert row["migrated"] == row["orphans"], (
        "repair must migrate exactly the dead device's queues"
    )
    assert row["repair_makespan"] <= row["solve_makespan"] * (1 + 1e-9), (
        "repair must not be worse than a fresh solve on the degraded pool"
    )
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"repair speedup {row['speedup']:.1f}x below the {MIN_SPEEDUP}x floor "
        f"(repair {row['repair_ms']:.3f} ms vs solve {row['solve_ms']:.3f} ms)"
    )


if __name__ == "__main__":
    row = run()
    print(f"{'pool':>12s}  {QUEUES} queues x {DEVICES} devices, {DEAD} failed")
    print(f"{'full solve':>12s}  {row['solve_ms']:8.3f} ms  "
          f"makespan {row['solve_makespan']:.4f}")
    print(f"{'repair':>12s}  {row['repair_ms']:8.3f} ms  "
          f"makespan {row['repair_makespan']:.4f}  "
          f"({row['migrated']}/{row['orphans']} orphans migrated)")
    print(f"{'speedup':>12s}  {row['speedup']:8.1f}x  (floor {MIN_SPEEDUP}x)")

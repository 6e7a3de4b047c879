"""Fault recovery — makespan degradation vs failed-device fraction.

A four-GPU node runs the same iterative doubling workload while a
:class:`~repro.sim.faults.FaultPlan` permanently kills 0 %, 25 %, 50 % or
75 % of the devices mid-run.  Recovery (requeue + profile invalidation +
degraded-pool rescheduling) must keep the run correct at every point, and
the makespan must grow monotonically as survivors shrink — the work is
fixed, the pool is not.

Run standalone for the full table:  python benchmarks/bench_fault_recovery.py
"""

import tempfile

import numpy as np
from dataclasses import replace

from repro.core.runtime import MultiCL
from repro.hardware.presets import TESLA_C2050
from repro.hardware.specs import LinkSpec, NodeSpec
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.sim.faults import FaultPlan

PROGRAM = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}
"""

N = 1 << 20
GPUS = 4
EPOCHS = 6
WARMUP_EPOCHS = 2
FRACTIONS = (0.0, 0.25, 0.5, 0.75)

#: One shared on-disk device-profile cache: only the first sweep point pays
#: for the (simulated) device microbenchmarks.
_CACHE = tempfile.mkdtemp(prefix="multicl-fault-bench-")


def quad_gpu_node() -> NodeSpec:
    names = [f"gpu{i}" for i in range(GPUS)]
    return NodeSpec(
        name="quad-gpu",
        devices=tuple(replace(TESLA_C2050, name=n, socket=0) for n in names),
        host_links={
            n: LinkSpec(name=f"pcie-{n}", latency_s=15e-6, bandwidth_gbs=6.0)
            for n in names
        },
    )


def _run_point(fraction: float) -> dict:
    mcl = MultiCL(
        node_spec=quad_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=_CACHE,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    queues, kernels, bufs = [], [], []
    for i in range(GPUS):
        buf = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name=f"a{i}")
        k = program.create_kernel("scale")
        k.set_arg(0, buf)
        k.set_arg(1, N)
        k.set_host_function(lambda args: args["a"].__imul__(2.0))
        queues.append(mcl.queue(flags=flags, name=f"q{i}"))
        kernels.append(k)
        bufs.append(buf)

    def epoch() -> None:
        for q, k in zip(queues, kernels):
            q.enqueue_nd_range_kernel(k, (N,), (128,))
        for q in queues:
            q.finish()

    t0 = mcl.now
    for _ in range(WARMUP_EPOCHS):
        epoch()

    failed = round(fraction * GPUS)
    if failed:
        plan = FaultPlan()
        for i in range(failed):
            # Stagger the deaths so each lands mid-kernel of the next epoch.
            plan.fail_device(f"gpu{GPUS - 1 - i}", at=mcl.now + (i + 1) * 2e-4)
        injector = mcl.inject_faults(plan)
    else:
        injector = None
    for _ in range(EPOCHS - WARMUP_EPOCHS):
        epoch()

    makespan = mcl.now - t0
    stats = mcl.stats_between(t0, mcl.now)
    correct = all(bool(np.all(b.array == float(2**EPOCHS))) for b in bufs)
    return {
        "fraction": fraction,
        "failed_devices": failed,
        "makespan_s": makespan,
        "replayed": injector.replayed_commands if injector else 0,
        "remapped": injector.remapped_queues if injector else 0,
        "downtime_s": stats.downtime_seconds,
        "correct": correct,
    }


def run_fault_sweep(fractions=FRACTIONS):
    return [_run_point(f) for f in fractions]


def test_fault_recovery_sweep(run_once):
    rows = run_once(run_fault_sweep)
    assert [r["fraction"] for r in rows] == list(FRACTIONS)
    # Recovery keeps every point correct (exactly-once numerics).
    assert all(r["correct"] for r in rows)
    # Makespan grows monotonically as the survivor pool shrinks.
    spans = [r["makespan_s"] for r in rows]
    for a, b in zip(spans, spans[1:]):
        assert b > a, (a, b)
    # Every degraded point actually exercised the recovery path.
    for r in rows[1:]:
        assert r["replayed"] >= 1 and r["downtime_s"] > 0.0, r
    # Each GPU hosts one queue, so every dead GPU moves exactly one queue.
    for r in rows:
        assert r["remapped"] == r["failed_devices"], r
    assert rows[0]["replayed"] == 0 and rows[0]["downtime_s"] == 0.0


if __name__ == "__main__":
    print(f"{'failed':>8} {'makespan':>12} {'replayed':>9} "
          f"{'remapped':>9} {'downtime':>11} {'correct':>8}")
    for r in run_fault_sweep():
        print(
            f"{r['fraction']:>7.0%} {r['makespan_s'] * 1e3:>9.2f} ms "
            f"{r['replayed']:>9d} {r['remapped']:>9d} "
            f"{r['downtime_s'] * 1e3:>8.2f} ms {str(r['correct']):>8}"
        )

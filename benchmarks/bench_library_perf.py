"""Performance benchmarks of the library itself (real wall time).

Unlike the figure benches (which regenerate simulated results once), these
measure the *Python* cost of the hot paths — the numbers a user of this
library actually waits on: discrete-event throughput, mapper solve time,
a full scheduled epoch, and the vectorised NPB generator.
"""

import math
import time

import pytest

from repro.core.device_mapper import optimal_mapping
from repro.sim.engine import SimEngine
from repro.sim.resources import FifoResource
from repro.sim.trace import Trace
from repro.workloads.npb import numerics


def test_engine_event_throughput(benchmark):
    """Throughput of the event engine: 10k chained FIFO tasks."""

    def run():
        engine = SimEngine()
        resources = [FifoResource(engine, f"r{i}") for i in range(4)]
        for i in range(10_000):
            engine.task(f"t{i}", 1e-6, resource=resources[i % 4])
        engine.run_until_idle()
        return engine.now

    result = benchmark(run)
    assert result == pytest.approx(2.5e-3)


def test_mapper_solve_8_queues_4_devices(benchmark):
    """Exact mapping for a paper-scale pool (8 queues, 4 devices)."""
    queues = [f"q{i}" for i in range(8)]
    devices = ["cpu", "gpu0", "gpu1", "gpu2"]
    cost = {
        q: {d: 1.0 + ((i * 7 + j * 3) % 5) * 0.37 for j, d in enumerate(devices)}
        for i, q in enumerate(queues)
    }

    result = benchmark(optimal_mapping, queues, devices, cost)
    assert math.isfinite(result.makespan)
    loads = result.device_loads(cost)
    assert max(loads.values()) == pytest.approx(result.makespan)


def test_mapper_solve_32_queues_8_devices(benchmark):
    """Large-pool mapping (32 queues, 8 devices): the greedy fallback path.

    Exact search is exponential at this scale; the documented fallback must
    keep the solve in the low milliseconds.
    """
    queues = [f"q{i}" for i in range(32)]
    devices = [f"d{j}" for j in range(8)]
    cost = {
        q: {d: 1.0 + ((i * 13 + j * 5) % 7) * 0.29 for j, d in enumerate(devices)}
        for i, q in enumerate(queues)
    }

    t0 = time.perf_counter()
    result = benchmark(optimal_mapping, queues, devices, cost)
    elapsed = time.perf_counter() - t0
    assert not result.exact  # above the exact-search threshold
    assert math.isfinite(result.makespan)
    loads = result.device_loads(cost)
    assert max(loads.values()) == pytest.approx(result.makespan)
    # Generous ceiling (covers warmup + all benchmark rounds): a single
    # solve is sub-millisecond, and the acceptance bar is < 100 ms.
    assert elapsed < 5.0


def test_trace_query_throughput(benchmark):
    """Indexed trace queries over a 24k-interval trace.

    Measures the record -> first-query index build plus the per-query cost
    of the category/resource filters and aggregates.
    """
    resources = [f"dev:{i}" for i in range(8)]
    categories = ("kernel", "transfer", "migration")

    def run():
        trace = Trace()
        t = 0.0
        for i in range(24_000):
            r = resources[i % 8]
            c = categories[i % 3]
            trace.record(r, f"t{i}", c, t, t + 1e-6)
            t += 5e-7
        total = 0.0
        for c in categories:
            total += trace.total_time(category=c)
            total += len(trace.filter(category=c)) + trace.count(category=c)
        for r in resources:
            total += trace.total_time(resource=r)
        total += sum(trace.by_resource(category="kernel").values())
        total += sum(trace.counts_by_resource().values())
        return total

    total = benchmark(run)
    assert total > 0


def test_full_scheduled_epoch(benchmark, tmp_path_factory):
    """End-to-end cost of one AUTO_FIT epoch: build, profile, map, issue."""
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    profile_dir = str(tmp_path_factory.mktemp("perf-profile"))
    src = (
        "// @multicl flops_per_item=100 bytes_per_item=16 writes=1\n"
        "__kernel void k(__global float* a, __global float* b, int n) { }"
    )

    def run():
        mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
        prog = mcl.context.create_program(src).build()
        n = 1 << 16
        queues = []
        for i in range(4):
            kern = prog.create_kernel("k")
            a = mcl.context.create_buffer(4 * n)
            b = mcl.context.create_buffer(4 * n)
            kern.set_arg(0, a)
            kern.set_arg(1, b)
            kern.set_arg(2, n)
            q = mcl.queue(
                flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
            )
            for _ in range(8):
                q.enqueue_nd_range_kernel(kern, (n,), (64,))
            queues.append(q)
        for q in queues:
            q.finish()
        return mcl.now

    result = benchmark(run)
    assert result > 0


def test_issue_pool_wide(benchmark, tmp_path_factory):
    """Wide-pool issue: 24 auto queues with cross-queue wait events
    (the pool issuer's FIFO ready heap, behind ``Context.issue_pool``)."""
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    profile_dir = str(tmp_path_factory.mktemp("perf-wide"))
    src = (
        "// @multicl flops_per_item=50 bytes_per_item=8 writes=1\n"
        "__kernel void k(__global float* a, int n) { }"
    )

    def run():
        n = 1 << 12
        mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
        prog = mcl.context.create_program(src).build()
        queues, events = [], []
        for i in range(24):
            kern = prog.create_kernel("k")
            buf = mcl.context.create_buffer(4 * n)
            kern.set_arg(0, buf)
            kern.set_arg(1, n)
            q = mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
            for j in range(12):
                waits = [events[-1]] if events and (i + j) % 3 == 0 else []
                events.append(
                    q.enqueue_nd_range_kernel(kern, (n,), (64,), wait_events=waits)
                )
            queues.append(q)
        for q in queues:
            q.finish()
        return mcl.now

    result = benchmark(run)
    assert result > 0


def test_overlap_issue(benchmark, tmp_path_factory):
    """Overlap-aware issue of a double-buffered streaming pool under
    ``SCHED_OVERLAP`` (the pool issuer's relaxed branch: graph build,
    conflict restoration and its safety check, ranked ready heap), and its
    makespan win over FIFO issue."""
    import numpy as np

    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    profile_dir = str(tmp_path_factory.mktemp("perf-overlap"))
    src = (
        "// @multicl flops_per_item=200 bytes_per_item=8 writes=1\n"
        "__kernel void s(__global float* a, __global float* b, int n) { }"
    )

    def run(overlap=True):
        n = 1 << 18
        mcl = MultiCL(
            policy=ContextScheduler.AUTO_FIT,
            profile_dir=profile_dir,
            overlap=overlap,
        )
        ctx = mcl.context
        kern = ctx.create_program(src).build().create_kernel("s")
        q = ctx.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
        )
        chunks = [
            ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
            for _ in range(2)
        ]
        outs = [
            ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
            for _ in range(2)
        ]
        data = np.ones(n, np.float32)
        res = np.empty(n, np.float32)
        for i in range(8):
            a, b = chunks[i % 2], outs[i % 2]
            q.enqueue_write_buffer(a, data)
            kern.set_arg(0, a)
            kern.set_arg(1, b)
            kern.set_arg(2, n)
            q.enqueue_nd_range_kernel(kern, (n,), (64,))
            q.enqueue_read_buffer(b, res)
        q.finish()
        return mcl.now

    run()  # warm the on-disk profile cache so both variants skip profiling
    overlapped = benchmark(run)
    assert 0 < overlapped < run(overlap=False)


def test_split_epoch(benchmark, tmp_path_factory):
    """SCHED_SPLIT epoch: plan + issue of kernel epochs partitioned across
    all three stock devices, merging join included."""
    import numpy as np

    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    profile_dir = str(tmp_path_factory.mktemp("perf-split"))
    src = (
        "// @multicl flops_per_item=400 bytes_per_item=8 writes=1\n"
        "__kernel void w(__global float* a, __global float* b, int n) { }"
    )

    def run():
        n = 1 << 18
        mcl = MultiCL(
            policy=ContextScheduler.AUTO_FIT,
            profile_dir=profile_dir,
            split=True,
        )
        ctx = mcl.context
        kern = ctx.create_program(src).build().create_kernel("w")
        q = ctx.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
        )
        a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
        b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
        q.enqueue_write_buffer(a, np.ones(n, np.float32))
        kern.set_arg(0, a)
        kern.set_arg(1, b)
        kern.set_arg(2, n)
        for _ in range(4):
            q.enqueue_nd_range_kernel(kern, (n,), (64,))
        q.finish()
        split_joins = sum(
            1 for iv in mcl.engine.trace if iv.task.startswith("split-join:")
        )
        return mcl.now if split_joins else -1.0

    result = benchmark(run)
    assert result > 0  # split engaged and the epochs completed


def test_vectorised_lcg_throughput(benchmark):
    """The O(n log n) NPB generator on a 256k stream."""
    uniforms, _ = benchmark(numerics.vranlc_fast, 1 << 18, 271828183.0)
    assert len(uniforms) == 1 << 18

"""Whole-stack property tests.

These generate random task-parallel workloads and drive them through the
*entire* stack — source generation, build, deferred enqueue, profiling,
mapping, issue, simulated execution — asserting the paper's headline
claims as properties:

* **near-optimality**: an AUTO_FIT run (including all of its profiling
  overhead) is never worse than the *worst* manual mapping and, once the
  per-run profiling cost is accounted for, competitive with sampled manual
  mappings;
* **consistency**: residency bookkeeping and event ordering hold for any
  interleaving the generator produces.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.memory import HOST

DYN = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH

#: Small palette of kernel personalities with genuinely different affinities.
_KERNEL_POOL = [
    ("k_gpuish", "flops_per_item=500 bytes_per_item=8"),
    ("k_cpuish", "flops_per_item=30 bytes_per_item=64 divergence=0.7 "
     "irregularity=0.85 gpu_eff=0.1"),
    ("k_stream", "flops_per_item=4 bytes_per_item=32 irregularity=0.1"),
    ("k_mixed", "flops_per_item=120 bytes_per_item=24 divergence=0.3 "
     "irregularity=0.4 gpu_eff=0.4"),
]

_SOURCE = "\n".join(
    f"// @multicl {annot} writes=1\n"
    f"__kernel void {name}(__global float* a, __global float* b, int n) {{ }}\n"
    for name, annot in _KERNEL_POOL
)


def _build_workload(mcl: MultiCL, layout, flags, events=None):
    """layout: list per queue of (kernel_index, log2_items, launches);
    ``events`` (a list), when given, collects every enqueue's event."""
    ctx = mcl.context
    program = ctx.create_program(_SOURCE).build()
    queues = []
    for qi, (kidx, logn, launches) in enumerate(layout):
        name = _KERNEL_POOL[kidx][0]
        n = 1 << logn
        k = program.create_kernel(name)
        a = ctx.create_buffer(4 * n)
        b = ctx.create_buffer(4 * n)
        a.mark_valid(HOST)
        k.set_arg(0, a)
        k.set_arg(1, b)
        k.set_arg(2, n)
        if flags == SchedFlag.SCHED_OFF:
            q = mcl.queue(device=None, flags=flags, name=f"q{qi}")
        else:
            q = mcl.queue(flags=flags, name=f"q{qi}")
        for _ in range(launches):
            ev = q.enqueue_nd_range_kernel(k, (n,), (64,))
            if events is not None:
                events.append(ev)
        queues.append(q)
    return queues


def _run(node_layout, mode, devices=None, profile_dir=None):
    policy = None if mode == "manual" else ContextScheduler.AUTO_FIT
    mcl = MultiCL(policy=policy, profile_dir=profile_dir)
    flags = SchedFlag.SCHED_OFF if mode == "manual" else DYN
    queues = _build_workload(mcl, node_layout, flags)
    if mode == "manual":
        for q, d in zip(queues, devices):
            q.rebind(d)
    t0 = mcl.now
    for q in queues:
        q.finish()
    return mcl.now - t0, {q.name: q.device for q in queues}


@st.composite
def workloads(draw):
    n_queues = draw(st.integers(min_value=1, max_value=4))
    return [
        (
            draw(st.integers(min_value=0, max_value=len(_KERNEL_POOL) - 1)),
            draw(st.integers(min_value=14, max_value=19)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        for _ in range(n_queues)
    ]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(layout=workloads(), data=st.data())
def test_autofit_never_loses_to_sampled_manual_mappings(
    layout, data, profile_dir
):
    auto_seconds, bindings = _run(layout, "auto", profile_dir=profile_dir)
    devices = ["cpu", "gpu0", "gpu1"]
    # Replay AUTO_FIT's own mapping manually: auto pays only profiling on top.
    replay, _ = _run(
        layout, "manual",
        devices=[bindings[f"q{i}"] for i in range(len(layout))],
        profile_dir=profile_dir,
    )
    # Note: auto can come out faster than its own replay — profiling's data
    # caching prepays the execution migrations (staged copies stay
    # resident, Section V.C.3) — so no lower bound is asserted; the
    # property of interest is the upper bound below.
    # Sample a few random manual mappings; AUTO_FIT (minus its measured
    # profiling premium) must not lose to any of them.
    premium = max(auto_seconds - replay, 0.0)
    for _ in range(3):
        assignment = [
            data.draw(st.sampled_from(devices)) for _ in range(len(layout))
        ]
        manual_seconds, _ = _run(
            layout, "manual", devices=assignment, profile_dir=profile_dir
        )
        assert auto_seconds - premium <= manual_seconds * 1.01, (
            assignment,
            auto_seconds,
            premium,
            manual_seconds,
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(layout=workloads())
def test_autofit_beats_exhaustive_worst_small_pools(layout, profile_dir):
    """For small pools, enumerate *all* manual mappings: AUTO_FIT with its
    profiling overhead included still beats the worst one (unless every
    mapping is equivalent)."""
    if len(layout) > 2:
        layout = layout[:2]
    auto_seconds, _ = _run(layout, "auto", profile_dir=profile_dir)
    devices = ["cpu", "gpu0", "gpu1"]
    manual_times = []
    for assignment in itertools.product(devices, repeat=len(layout)):
        secs, _ = _run(
            layout, "manual", devices=list(assignment), profile_dir=profile_dir
        )
        manual_times.append(secs)
    worst, best = max(manual_times), min(manual_times)
    if worst > best * 1.5:  # meaningful spread exists
        assert auto_seconds < worst


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(layout=workloads())
def test_residency_and_event_consistency(layout, profile_dir):
    """After a fully synchronised auto run: every event is complete, every
    queue is empty, every written buffer is resident exactly where its
    final writer ran, and per-queue kernel intervals never overlap."""
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    events = []
    queues = _build_workload(mcl, layout, DYN, events)
    # Every event is a deferred command.
    assert events == [c for q in queues for c in q.pending]
    for q in queues:
        q.finish()
    assert all(e.complete for e in events)
    assert all(not q.pending for q in queues)
    # In-order property per queue: application kernel intervals on the
    # same queue do not overlap.
    for q in queues:
        ivs = [
            iv
            for iv in mcl.engine.trace.filter(category="kernel")
            if iv.meta.get("queue") == q.name
        ]
        ivs.sort(key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            assert b.start >= a.end - 1e-12
    # Every kernel in a queue ran on that queue's final binding (bindings
    # were frozen after the single scheduling epoch).
    for q in queues:
        for iv in mcl.engine.trace.filter(category="kernel"):
            if iv.meta.get("queue") == q.name:
                assert iv.meta["device"] == q.device


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(layout=workloads())
def test_simulation_fully_deterministic(layout, profile_dir):
    """Same workload, two fresh platforms: identical traces and timings."""
    a_secs, a_bind = _run(layout, "auto", profile_dir=profile_dir)
    b_secs, b_bind = _run(layout, "auto", profile_dir=profile_dir)
    assert a_secs == b_secs
    assert a_bind == b_bind


def test_out_of_order_queue_composes_with_autofit(profile_dir):
    from repro.ocl.enums import ContextScheduler

    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    ctx = mcl.context
    prog = ctx.create_program(_SOURCE).build()
    k = prog.create_kernel("k_gpuish")
    n = 1 << 16
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q = ctx.create_queue(sched_flags=DYN, out_of_order=True)
    e1 = q.enqueue_nd_range_kernel(k, (n,), (64,))
    e2 = q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert e1.complete and e2.complete
    assert q.device in ("gpu0", "gpu1")

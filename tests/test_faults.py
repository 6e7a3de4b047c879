"""Fault injection and degraded-pool recovery.

The acceptance scenario of the fault subsystem: kill one of two GPUs
mid-run under AUTO_FIT, the run completes on the survivors, every command
executes exactly once, and :class:`~repro.core.runtime.RunStats` reports
nonzero remap/replay counts.  Plus the edge paths: failure during the
profiling pass, all devices failed, replay-budget exhaustion, transient
slowdowns and link outages, and the trace/export plumbing.
"""

import numpy as np
import pytest

from repro.core.baselines import KERNEL_GRANULARITY_POLICY
from repro.core.device_mapper import MapperError
from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.hardware.presets import cpu_only_node, symmetric_dual_gpu_node
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.errors import InvalidDevice
from repro.sim.export import to_chrome_trace
from repro.sim.faults import FaultEvent, FaultKind, FaultPlan, FaultPolicy
from repro.sim.trace import FAULT_CATEGORY, RECOVERY_CATEGORY

PROGRAM = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale_a(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}

// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale_b(__global float* b, int n) {
  int i = get_global_id(0);
  b[i] = b[i] * 2.0f;
}
"""

N = 1 << 20
AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def _dual_gpu(
    profile_dir, policy=ContextScheduler.AUTO_FIT, flags=AUTO, config=None
):
    """Two doubling kernels on two auto queues over a 2×GPU node."""
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=policy,
        config=config,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf_a = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    buf_b = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="b")
    counts = {"a": 0, "b": 0}

    ka = program.create_kernel("scale_a")
    ka.set_arg(0, buf_a)
    ka.set_arg(1, N)
    kb = program.create_kernel("scale_b")
    kb.set_arg(0, buf_b)
    kb.set_arg(1, N)

    def host_a(args):
        counts["a"] += 1
        args["a"][:] = args["a"] * 2.0

    def host_b(args):
        counts["b"] += 1
        args["b"][:] = args["b"] * 2.0

    ka.set_host_function(host_a)
    kb.set_host_function(host_b)
    q1 = mcl.queue(flags=flags, name="q1")
    q2 = mcl.queue(flags=flags, name="q2")
    return mcl, (q1, q2), (ka, kb), (buf_a, buf_b), counts


def _epoch(queues, kernels):
    for q, k in zip(queues, kernels):
        q.enqueue_nd_range_kernel(k, (N,), (128,))
    for q in queues:
        q.finish()


def _kill_one_gpu_mid_run(profile_dir, policy=ContextScheduler.AUTO_FIT):
    """Warm up two epochs, kill the GPU serving q2 mid-kernel, run three
    more epochs.  Returns everything a test could want to assert on."""
    mcl, queues, kernels, bufs, counts = _dual_gpu(profile_dir, policy)
    for _ in range(2):
        _epoch(queues, kernels)
    dead = queues[1].device
    assert dead is not None
    # ~0.2 ms after now lands inside the next ~0.43 ms kernel execution.
    t_fault = mcl.now + 2e-4
    injector = mcl.inject_faults(FaultPlan().fail_device(dead, at=t_fault))
    for _ in range(3):
        _epoch(queues, kernels)
    return mcl, queues, bufs, counts, dead, t_fault, injector


# ---------------------------------------------------------------------------
# The acceptance scenario
# ---------------------------------------------------------------------------
def test_autofit_survives_mid_run_device_loss(profile_dir):
    mcl, queues, bufs, counts, dead, t_fault, injector = _kill_one_gpu_mid_run(
        profile_dir
    )
    survivor = next(d for d in ("gpu0", "gpu1") if d != dead)

    # The run completed on the degraded pool.
    assert not mcl.platform.is_available(dead)
    assert mcl.platform.available_device_names == [survivor]
    assert queues[0].device == survivor and queues[1].device == survivor

    # Recovery actually happened and was accounted.
    assert injector.failures == 1
    assert injector.replayed_commands >= 1
    assert injector.remapped_queues >= 1
    stats = mcl.stats_between(0.0, mcl.now)
    assert stats.remap_count >= 1
    assert stats.replayed_commands >= 1
    assert stats.downtime_seconds > 0.0

    # No application kernel touched the dead device after the fault.
    for iv in mcl.engine.trace:
        if iv.category == "kernel" and iv.resource == f"dev:{dead}":
            assert iv.start < t_fault, iv


def test_every_command_executes_exactly_once_after_replay(profile_dir):
    """Exactly-once regression: 5 doubling epochs must yield 2**5 even when
    one epoch's kernel is aborted mid-execution and replayed elsewhere."""
    mcl, queues, bufs, counts, dead, t_fault, injector = _kill_one_gpu_mid_run(
        profile_dir
    )
    assert counts == {"a": 5, "b": 5}
    assert float(bufs[0].array[0]) == 32.0
    assert float(bufs[1].array[-1]) == 32.0
    # 10 enqueued kernels -> exactly 10 completed kernel intervals; the
    # aborted partial execution is traced under "fault", not "kernel".
    stats = mcl.stats_between(0.0, mcl.now)
    assert sum(stats.kernel_count_by_device.values()) == 10
    lost = [
        iv
        for iv in mcl.engine.trace
        if iv.category == FAULT_CATEGORY and iv.task.startswith("lost:")
    ]
    assert lost, "aborted partial execution should be traced as fault/lost"


def test_failure_during_profiling_pass(profile_dir):
    """A device dying while the kernel profiler measures it must not wedge
    the scheduling pass; the run completes on the survivor."""
    mcl, queues, kernels, bufs, counts = _dual_gpu(profile_dir)
    t_fault = mcl.now + 2e-4  # inside the first cold profiling pass
    injector = mcl.inject_faults(FaultPlan().fail_device("gpu1", at=t_fault))
    for _ in range(2):
        _epoch(queues, kernels)
    assert injector.failures == 1
    assert counts == {"a": 2, "b": 2}
    assert float(bufs[0].array[0]) == 4.0
    assert queues[0].device == "gpu0" and queues[1].device == "gpu0"
    for iv in mcl.engine.trace:
        if iv.category == "kernel" and iv.resource == "dev:gpu1":
            assert iv.start < t_fault, iv


@pytest.mark.parametrize(
    "policy, flags, step_name, n_steps",
    [
        (ContextScheduler.AUTO_FIT, AUTO, "device-map", 3),
        (ContextScheduler.AUTO_FIT, AUTO | SchedFlag.SCHED_SPLIT, "device-map", 3),
        (KERNEL_GRANULARITY_POLICY, AUTO, "per-kernel-map", 6),
    ],
    ids=["map", "split", "per-kernel"],
)
def test_failure_during_mapping_step(profile_dir, policy, flags, step_name, n_steps):
    """A device dying inside the mapping step itself (the host interval
    charged after the mapping is computed, after the whole pool's split
    plans are, or after a kernel's profile is looked up) must not leave
    queues or split shares bound to it: the run re-maps over the
    survivors, every payload runs exactly once, every event completes,
    and no kernel lands on the dead device afterwards."""

    def run(fault=None):
        mcl, queues, kernels, bufs, counts = _dual_gpu(profile_dir, policy, flags)
        if fault is not None:
            mcl.inject_faults(FaultPlan().fail_device(*fault))
        events = []
        for _ in range(3):
            for q, k in zip(queues, kernels):
                events.append(q.enqueue_nd_range_kernel(k, (N,), (128,)))
            for q in queues:
                q.finish()
        return mcl, bufs, counts, events

    run()  # warm the device-profile cache: both runs below start alike
    clean, _, _, _ = run()
    steps = [
        iv for iv in clean.engine.trace
        if iv.category == "schedule" and iv.task == step_name
    ]
    assert len(steps) == n_steps
    for dead in ("gpu0", "gpu1"):
        for step in steps:
            t_fault = (step.start + step.end) / 2
            mcl, bufs, counts, events = run((dead, t_fault))
            assert not mcl.platform.is_available(dead)
            assert counts == {"a": 3, "b": 3}
            assert float(bufs[0].array[0]) == float(bufs[1].array[-1]) == 8.0
            assert all(e.complete for e in events)
            for iv in mcl.engine.trace:
                if iv.category == "kernel" and iv.resource == f"dev:{dead}":
                    assert iv.start < t_fault, iv


def test_all_devices_failed_raises_mapper_error(profile_dir):
    mcl = MultiCL(
        node_spec=cpu_only_node(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    k = program.create_kernel("scale_a")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(flags=AUTO, name="q1")
    mcl.inject_faults(FaultPlan().fail_device("cpu", at=mcl.now + 1e-4))
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    with pytest.raises(MapperError, match="no feasible device"):
        q.finish()


def test_replay_budget_exhaustion_raises(profile_dir):
    """With a zero-attempt policy the first replay already busts the cap."""
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    k = program.create_kernel("scale_a")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(device="gpu1", name="manual")
    mcl.inject_faults(
        FaultPlan().fail_device("gpu1", at=mcl.now + 2e-4),
        FaultPolicy(max_attempts=0),
    )
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    with pytest.raises(MapperError, match="replay attempts"):
        q.finish()


def test_two_faults_one_epoch_snapshot_accounting(profile_dir):
    """Regression: a second device failing inside the first failure's
    backoff window runs a full scheduling pass that already moves the first
    fault's queues.  The first fault's remap accounting must therefore use
    the queue→device snapshot captured at *injection* time — a late
    snapshot under-counts the remaps and names the wrong origin device."""
    from repro.hardware.presets import aji_cluster15_node

    mcl = MultiCL(
        node_spec=aji_cluster15_node(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf_a = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    buf_b = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="b")
    ka = program.create_kernel("scale_a")
    ka.set_arg(0, buf_a)
    ka.set_arg(1, N)
    kb = program.create_kernel("scale_b")
    kb.set_arg(0, buf_b)
    kb.set_arg(1, N)
    q1 = mcl.queue(flags=AUTO, name="q1")
    q2 = mcl.queue(flags=AUTO, name="q2")
    for _ in range(2):
        _epoch((q1, q2), (ka, kb))

    d1, d2 = q1.device, q2.device
    assert d1 != d2, "need both queues on distinct devices for this scenario"
    # Fault 1 lands mid-kernel; fault 2 lands 0.1 ms later — inside fault
    # 1's 1 ms replay backoff, while q1's kernel is still in flight.
    t1 = mcl.now + 2e-4
    injector = mcl.inject_faults(
        FaultPlan().fail_device(d2, at=t1).fail_device(d1, at=t1 + 1e-4)
    )
    for _ in range(3):
        _epoch((q1, q2), (ka, kb))

    assert injector.failures == 2
    survivor = q1.device
    assert survivor not in (d1, d2)
    metas = [
        iv.meta
        for iv in mcl.engine.trace
        if iv.category == RECOVERY_CATEGORY and iv.meta.get("op") == "remap"
    ]
    # Both queues' remaps are recorded, each naming its true origin.
    assert injector.remapped_queues >= 2
    assert any(m["queue"] == "q2" and m["from"] == d2 for m in metas), metas
    assert any(m["queue"] == "q1" and m["from"] == d1 for m in metas), metas
    # No remap may claim a queue came from a device it never held.
    for m in metas:
        assert m["from"] in (d1, d2), m


# ---------------------------------------------------------------------------
# Scheduler-specific recovery paths
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy",
    [ContextScheduler.ROUND_ROBIN, KERNEL_GRANULARITY_POLICY],
    ids=["round-robin", "kernel-granularity"],
)
def test_roundrobin_reassigns_after_device_loss(profile_dir, policy):
    mcl, queues, bufs, counts, dead, t_fault, injector = _kill_one_gpu_mid_run(
        profile_dir, policy=policy
    )
    survivor = next(d for d in ("gpu0", "gpu1") if d != dead)
    assert counts == {"a": 5, "b": 5}
    assert float(bufs[0].array[0]) == 32.0
    assert float(bufs[1].array[0]) == 32.0
    assert queues[1].device == survivor
    assert injector.failures == 1


@pytest.mark.parametrize("after", [1e-6, 5e-5, 2e-4, 4e-4, 8e-4])
@pytest.mark.parametrize("dead", ["gpu0", "gpu1"])
@pytest.mark.parametrize(
    "policy",
    [
        ContextScheduler.ROUND_ROBIN,
        ContextScheduler.AUTO_FIT,
        KERNEL_GRANULARITY_POLICY,
    ],
    ids=["round-robin", "auto-fit", "kernel-granularity"],
)
def test_per_kernel_trigger_device_loss(profile_dir, policy, dead, after):
    """A device dying at any point of a run that triggers the scheduler on
    every kernel folds into the running trigger's pass, as it does for a
    sync trigger: no policy places work on the dead device, none schedules
    a pool twice, and the run completes on the survivor with every payload
    run exactly once.  Holds whatever the split and overlap switches say."""
    config = SchedulerConfig.from_env().with_(per_kernel_trigger=True)
    mcl, queues, kernels, bufs, counts = _dual_gpu(
        profile_dir, policy, config=config
    )
    t_fault = mcl.now + after
    mcl.inject_faults(FaultPlan().fail_device(dead, at=t_fault))
    events = []
    for _ in range(3):
        for q, k in zip(queues, kernels):
            events.append(q.enqueue_nd_range_kernel(k, (N,), (128,)))
        for q in queues:
            q.finish()
    assert not mcl.platform.is_available(dead)
    assert counts == {"a": 3, "b": 3}
    assert float(bufs[0].array[0]) == float(bufs[1].array[-1]) == 8.0
    assert all(e.complete for e in events)
    for iv in mcl.engine.trace:
        if iv.category == "kernel" and iv.resource == f"dev:{dead}":
            assert iv.start < t_fault, iv
    if policy != ContextScheduler.ROUND_ROBIN and (dead, after) == ("gpu1", 2e-4):
        # The failure lands while the first trigger profiles: that trigger
        # finishes on the survivor without a nested pass, so each kernel
        # is profiled there once and each of the six kernels maps once.
        profiled = [
            iv.task
            for iv in mcl.engine.trace
            if iv.category == "profile-kernel" and iv.resource == "dev:gpu0"
        ]
        assert sorted(profiled) == ["prof:scale_a@gpu0", "prof:scale_b@gpu0"]
        assert len(mcl.context.scheduler.mapping_history) == 6


def test_scheduler_less_failover(profile_dir):
    """Without a context scheduler the injector fails the queue over to the
    first surviving device directly."""
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    counts = {"a": 0}
    k = program.create_kernel("scale_a")
    k.set_arg(0, buf)
    k.set_arg(1, N)

    def host(args):
        counts["a"] += 1
        args["a"][:] = args["a"] * 2.0

    k.set_host_function(host)
    q = mcl.queue(device="gpu1", name="manual")
    injector = mcl.inject_faults(FaultPlan().fail_device("gpu1", at=mcl.now + 2e-4))
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    q.finish()
    assert q.device == "gpu0"
    assert counts == {"a": 1}
    assert float(buf.array[0]) == 2.0
    assert injector.replayed_commands == 1


# ---------------------------------------------------------------------------
# Transient faults
# ---------------------------------------------------------------------------
def _manual_kernel_run(mcl, program_kernel, q):
    q.enqueue_nd_range_kernel(program_kernel, (N,), (128,))
    q.finish()
    kernels = [
        iv
        for iv in mcl.engine.trace
        if iv.category == "kernel" and iv.resource == "dev:gpu0"
    ]
    return kernels[-1].duration


def test_slowdown_stretches_kernels_then_restores(profile_dir):
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    buf = ctx.create_buffer(4 * N, host_array=np.ones(N, np.float32), name="a")
    k = program.create_kernel("scale_a")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(device="gpu0", name="manual")

    d_baseline = _manual_kernel_run(mcl, k, q)
    mcl.inject_faults(
        FaultPlan().slow_device("gpu0", at=mcl.now, duration=0.05, factor=4.0)
    )
    mcl.engine.elapse(1e-6)  # let the slowdown event fire
    d_slow = _manual_kernel_run(mcl, k, q)
    assert d_slow == pytest.approx(4.0 * d_baseline, rel=1e-3)

    mcl.engine.elapse(0.06)  # wait out the window
    d_after = _manual_kernel_run(mcl, k, q)
    assert d_after == pytest.approx(d_baseline, rel=1e-3)

    windows = [
        iv
        for iv in mcl.engine.trace
        if iv.category == FAULT_CATEGORY and iv.meta.get("kind") == "slowdown"
    ]
    assert len(windows) == 1
    assert windows[0].duration == pytest.approx(0.05, rel=1e-3)


def test_overlapping_slowdowns_compound_and_recover_once(profile_dir):
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
    )
    device = mcl.context.platform.node.device("gpu0")
    recoveries = []
    mcl.context.scheduler.on_device_recovery = recoveries.append
    t0 = mcl.now
    mcl.inject_faults(
        FaultPlan()
        .slow_device("gpu0", at=t0 + 1.0, duration=9.0, factor=3.0)
        .slow_device("gpu0", at=t0 + 5.0, duration=2.0, factor=2.0)
    )
    seen = []
    for offset in (0.5, 2.0, 6.0, 8.0, 11.0):
        mcl.engine.run_until_time(t0 + offset)
        seen.append(device.slowdown)
        if offset == 8.0:
            assert recoveries == []  # the x3 window is still open
    assert seen == [1.0, 3.0, 6.0, 3.0, 1.0]
    assert recoveries == ["gpu0"]
    windows = sorted(
        (iv.meta["factor"], iv.duration)
        for iv in mcl.engine.trace
        if iv.category == FAULT_CATEGORY and iv.meta.get("kind") == "slowdown"
    )
    assert windows == [(2.0, pytest.approx(2.0)), (3.0, pytest.approx(9.0))]


def test_link_outage_delays_transfers(profile_dir):
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    buf = mcl.context.create_buffer(4 * N, name="blob")
    q = mcl.queue(device="gpu0", name="manual")

    # Baseline: one h2d write without an outage.
    t0 = mcl.now
    q.enqueue_write_buffer(buf)
    q.finish()
    d_baseline = mcl.now - t0
    assert d_baseline < 0.02

    outage = 0.02
    mcl.inject_faults(FaultPlan().cut_link("gpu0", at=mcl.now, duration=outage))
    mcl.engine.elapse(1e-6)  # outage blocker takes the link
    t1 = mcl.now
    q.enqueue_write_buffer(buf)
    q.finish()
    assert mcl.now - t1 >= outage


# ---------------------------------------------------------------------------
# Trace/export plumbing
# ---------------------------------------------------------------------------
def test_chrome_trace_renders_fault_and_recovery(profile_dir):
    mcl, *_ = _kill_one_gpu_mid_run(profile_dir)
    doc = to_chrome_trace(mcl.engine.trace)
    by_cat = {}
    for ev in doc["traceEvents"]:
        by_cat.setdefault(ev.get("cat"), []).append(ev)
    assert FAULT_CATEGORY in by_cat and RECOVERY_CATEGORY in by_cat
    assert {e["cname"] for e in by_cat[FAULT_CATEGORY]} == {"black"}
    assert {e["cname"] for e in by_cat[RECOVERY_CATEGORY]} == {"olive"}
    ops = {
        e.get("args", {}).get("op")
        for e in by_cat[RECOVERY_CATEGORY]
        if isinstance(e.get("args"), dict)
    }
    assert "replay" in ops and "remap" in ops


# ---------------------------------------------------------------------------
# Plan / policy / platform units
# ---------------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, FaultKind.DEVICE_FAIL, "gpu0")
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.LINK_OUTAGE, "gpu0", duration=-0.1)
    with pytest.raises(ValueError):
        FaultEvent(0.0, FaultKind.DEVICE_SLOWDOWN, "gpu0", factor=0.0)


@pytest.mark.parametrize(
    "at, duration, factor",
    [
        (float("nan"), 1.0, 2.0),
        (float("inf"), 1.0, 2.0),
        (0.0, float("nan"), 2.0),
        (0.0, 1.0, float("nan")),
        (0.0, 1.0, float("inf")),
        (float("nan"), float("nan"), float("nan")),
    ],
)
def test_fault_event_rejects_non_finite_values(at, duration, factor):
    with pytest.raises(ValueError):
        FaultPlan().slow_device("gpu0", at=at, duration=duration, factor=factor)


def test_fault_plan_chains_and_sorts():
    plan = (
        FaultPlan()
        .fail_device("gpu1", at=0.5)
        .slow_device("gpu0", at=0.1, duration=0.2, factor=3.0)
        .cut_link("cpu", at=0.3, duration=0.05)
    )
    assert len(plan) == 3
    assert [e.time for e in plan.events] == [0.1, 0.3, 0.5]
    assert plan.events[0].kind is FaultKind.DEVICE_SLOWDOWN


def test_fault_policy_backoff_grows_exponentially():
    policy = FaultPolicy(max_attempts=3, backoff_s=1e-3, backoff_growth=2.0)
    assert policy.backoff_seconds(1) == pytest.approx(1e-3)
    assert policy.backoff_seconds(2) == pytest.approx(2e-3)
    assert policy.backoff_seconds(3) == pytest.approx(4e-3)


def test_platform_failed_device_bookkeeping(profile_dir):
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    platform = mcl.platform
    assert platform.available_device_names == ["gpu0", "gpu1"]
    with pytest.raises(InvalidDevice):
        platform.mark_device_failed("nope")
    platform.mark_device_failed("gpu1")
    assert not platform.is_available("gpu1")
    assert platform.is_available("gpu0")
    assert platform.available_device_names == ["gpu0"]
    assert mcl.context.active_device_names == ["gpu0"]


def test_buffer_drops_to_host_shadow(profile_dir):
    mcl = MultiCL(node_spec=symmetric_dual_gpu_node(), profile_dir=profile_dir)
    buf = mcl.context.create_buffer(1 << 12, host_array=np.ones(1 << 10, np.float32))
    q = mcl.queue(device="gpu1", name="manual")
    q.enqueue_write_buffer(buf)
    q.finish()
    assert "gpu1" in buf.valid_on
    dropped = buf.drop_device("gpu1")
    assert "gpu1" not in buf.valid_on
    assert buf.valid_on  # never empty: host shadow remains valid
    assert dropped in (True, False)

"""Contexts, platforms, events, and the flat C-style API."""

import gc

import numpy as np
import pytest

from repro.hardware.presets import cpu_only_node, symmetric_dual_gpu_node
from repro.ocl import api
from repro.ocl.enums import (
    ContextProperty,
    ContextScheduler,
    DeviceType,
    EventStatus,
    SchedFlag,
)
from repro.ocl.errors import (
    InvalidDevice,
    InvalidEventWaitList,
    InvalidOperation,
)
from repro.ocl.queue import wait_for_events
from repro.ocl.platform import Platform, get_platforms

SRC = """
// @multicl flops_per_item=50 bytes_per_item=16 writes=1
__kernel void f(__global float* in, __global float* out, int n) { }
"""


# ---------------------------------------------------------------------------
# Platform
# ---------------------------------------------------------------------------
def test_default_platform_is_paper_testbed(bare_platform):
    assert bare_platform.device_names == ["cpu", "gpu0", "gpu1"]
    assert "aji-cluster15" in bare_platform.name


def test_get_platforms_returns_one(profile_dir):
    platforms = get_platforms(profile=True, profile_dir=profile_dir)
    assert len(platforms) == 1


def test_device_type_filtering(bare_platform):
    gpus = bare_platform.get_devices(DeviceType.GPU)
    assert [d.name for d in gpus] == ["gpu0", "gpu1"]
    cpus = bare_platform.get_devices(DeviceType.CPU)
    assert [d.name for d in cpus] == ["cpu"]


def test_device_type_no_match_rejected():
    p = Platform(symmetric_dual_gpu_node(), profile=False)
    with pytest.raises(InvalidDevice):
        p.get_devices(DeviceType.CPU)


def test_custom_node_spec():
    p = Platform(cpu_only_node(), profile=False)
    assert p.device_names == ["cpu"]


def test_each_platform_has_fresh_engine(profile_dir):
    p1 = Platform(profile=True, profile_dir=profile_dir)
    p2 = Platform(profile=True, profile_dir=profile_dir)
    p1.engine.elapse(1.0)
    assert p2.engine.now < 1.0


def test_device_profile_cached_across_platforms(profile_dir):
    p1 = Platform(profile=True, profile_dir=profile_dir)
    # Warm cache: the second platform reads the profile, charging no time.
    p2 = Platform(profile=True, profile_dir=profile_dir)
    assert p2.engine.now == 0.0
    assert p1.device_profile.gflops == p2.device_profile.gflops


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------
def test_context_device_subset(bare_platform):
    ctx = bare_platform.create_context(["gpu0", "gpu1"])
    assert ctx.device_names == ("gpu0", "gpu1")


def test_platform_forgets_dropped_contexts(bare_platform):
    keep = bare_platform.create_context()
    for _ in range(3):
        bare_platform.create_context()
    gc.collect()
    assert bare_platform.contexts == [keep]
    assert len(bare_platform._contexts) == 1  # dead references pruned
    # Dropped contexts still count: sub-devices must precede every context.
    with pytest.raises(InvalidDevice, match="before creating contexts"):
        bare_platform.create_sub_devices("cpu", 2)


def test_context_rejects_unknown_devices(bare_platform):
    with pytest.raises(InvalidDevice):
        bare_platform.create_context(["gpu7"])
    with pytest.raises(InvalidDevice):
        bare_platform.create_context([])


def test_context_without_policy_has_no_scheduler(manual_context):
    assert manual_context.scheduler is None


def test_context_with_policy_builds_scheduler(profile_dir):
    from repro.core.scheduler import AutoFitScheduler, RoundRobinScheduler

    platform = Platform(profile=True, profile_dir=profile_dir)
    ctx = platform.create_context(
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    )
    assert isinstance(ctx.scheduler, AutoFitScheduler)
    ctx2 = platform.create_context(
        properties={
            ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.ROUND_ROBIN
        }
    )
    assert isinstance(ctx2.scheduler, RoundRobinScheduler)


def test_pending_queues_lists_only_nonempty(autofit):
    q1 = autofit.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    q2 = autofit.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    q1.enqueue_marker()
    assert autofit.context.pending_queues() == [q1]
    q1.finish()
    assert autofit.context.pending_queues() == []
    del q2


def test_finish_all(manual_context):
    q1 = manual_context.create_queue("cpu")
    q2 = manual_context.create_queue("gpu0")
    q1.enqueue_marker()
    q2.enqueue_marker()
    manual_context.finish_all()
    assert q1.epoch_index == 1 and q2.epoch_index == 1


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------
def test_event_status_lifecycle(autofit, profile_dir):
    ctx = autofit.context
    prog = ctx.create_program(SRC).build()
    n = 1 << 10
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    k = prog.create_kernel("f")
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q = autofit.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH)
    ev = q.enqueue_nd_range_kernel(k, (n,), (64,))
    assert ev.status is EventStatus.QUEUED  # deferred on the auto queue
    ev.wait()  # blocking wait triggers the scheduler
    assert ev.status is EventStatus.COMPLETE
    assert ev.profile_end >= ev.profile_start


def test_event_profiling_before_completion_rejected(manual_context):
    q = manual_context.create_queue()
    buf = manual_context.create_buffer(1 << 26)
    ev = q.enqueue_write_buffer(buf)
    ev2 = q.enqueue_write_buffer(buf)
    # ev2 is submitted but we query before running the engine.
    with pytest.raises(InvalidOperation):
        _ = ev2.profile_start if not ev2.complete else None
    q.finish()


def test_wait_for_events_empty_rejected():
    with pytest.raises(InvalidEventWaitList):
        wait_for_events([])


def test_wait_for_events_cross_context_rejected(bare_platform):
    ctx1 = bare_platform.create_context()
    ctx2 = bare_platform.create_context()
    e1 = ctx1.create_queue().enqueue_marker()
    e2 = ctx2.create_queue().enqueue_marker()
    with pytest.raises(InvalidEventWaitList):
        wait_for_events([e1, e2])


def test_wait_for_events_rejects_a_non_event(manual_context):
    ev = manual_context.create_queue().enqueue_marker()
    with pytest.raises(InvalidEventWaitList):
        wait_for_events([ev, 42])


def test_an_event_is_its_command(manual_context):
    import repro
    from repro.ocl import api
    from repro.ocl.queue import Command

    assert repro.Event is repro.ocl.Event is Command
    q = manual_context.create_queue()
    ev = q.enqueue_marker()
    assert ev.queue is q and q._inflight == [ev]
    api.clWaitForEvents([ev])
    assert ev.complete and ev.issued


def test_wait_for_events_completes_all(manual_context):
    q1 = manual_context.create_queue("cpu")
    q2 = manual_context.create_queue("gpu0")
    evs = [q1.enqueue_marker(), q2.enqueue_marker()]
    wait_for_events(evs)
    assert all(e.complete for e in evs)


# ---------------------------------------------------------------------------
# Flat C-style API
# ---------------------------------------------------------------------------
def test_c_style_api_full_flow(profile_dir):
    platforms = api.clGetPlatformIDs(profile_dir=profile_dir)
    devices = api.clGetDeviceIDs(platforms[0])
    ctx = api.clCreateContext(
        platforms[0],
        devices,
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT},
    )
    q = api.clCreateCommandQueue(
        ctx, devices[0],
        properties=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH,
    )
    prog = api.clBuildProgram(api.clCreateProgramWithSource(ctx, SRC))
    kern = api.clCreateKernel(prog, "f")
    n = 1 << 10
    data = np.arange(n, dtype=np.float32)
    buf_in = api.clCreateBuffer(ctx, size=4 * n, host_ptr=data.copy())
    buf_out = api.clCreateBuffer(ctx, size=4 * n, host_ptr=np.zeros(n, np.float32))
    api.clSetKernelArg(kern, 0, buf_in)
    api.clSetKernelArg(kern, 1, buf_out)
    api.clSetKernelArg(kern, 2, n)
    for dev in devices:
        api.clSetKernelWorkGroupInfo(kern, dev, (n,), (64,))
    api.clEnqueueWriteBuffer(q, buf_in, data)
    ev = api.clEnqueueNDRangeKernel(q, kern, (n,), (64,))
    api.clWaitForEvents([ev])
    out = np.empty(n, np.float32)
    api.clEnqueueReadBuffer(q, buf_out, out)
    api.clFinish(q)
    api.clFlush(q)
    api.clReleaseCommandQueue(q)
    assert q.released


def test_api_surface_matches_table1():
    """Table I: the proposed extension entry points all exist."""
    assert callable(api.clSetCommandQueueSchedProperty)
    assert callable(api.clSetKernelWorkGroupInfo)
    assert ContextProperty.CL_CONTEXT_SCHEDULER is not None
    assert ContextScheduler.ROUND_ROBIN and ContextScheduler.AUTO_FIT
    for flag in (
        "SCHED_OFF",
        "SCHED_AUTO_STATIC",
        "SCHED_AUTO_DYNAMIC",
        "SCHED_KERNEL_EPOCH",
        "SCHED_EXPLICIT_REGION",
        "SCHED_ITERATIVE",
        "SCHED_COMPUTE_BOUND",
        "SCHED_IO_BOUND",
        "SCHED_MEMORY_BOUND",
    ):
        assert hasattr(SchedFlag, flag), flag


def test_sched_flags_are_bitfield():
    combo = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    assert combo.is_auto and combo.is_dynamic and not combo.is_static
    assert SchedFlag.SCHED_AUTO_STATIC.is_static
    assert not SchedFlag.SCHED_OFF.is_auto

"""The trace is recorded in time order.

An interval is recorded when it ends: ``Trace.record`` and the engine's
inlined completion append both stamp ``end == engine.now``, and simulated
time never goes back, so interval ends are nondecreasing in recording
order.  These tests pin both properties on runs that record through every
path: kernels, transfers and migrations, a split kernel and its gathers,
overlap joins, a device slowdown window, a link outage, a device failure
with its lost intervals and replays, and a small fair-share service run.
"""

import numpy as np

from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.service import SchedulingService
from repro.sim.faults import FaultPlan

SOURCE = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale(__global float* src, __global float* dst, float s) {
  int i = get_global_id(0);
  dst[i] = src[i] * s;
}
"""

N = 1 << 16
AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
FLAGS = {
    "fifo": AUTO,
    "overlap": AUTO | SchedFlag.SCHED_OVERLAP,
    "split": AUTO | SchedFlag.SCHED_SPLIT,
}


class _ClockCheckedIntervals(list):
    """A trace's interval list that notes every append whose ``end`` is not
    the engine's current time."""

    def __init__(self, engine, intervals):
        super().__init__(intervals)
        self.engine = engine
        self.off_clock = []

    def append(self, interval):
        if interval.end != self.engine.now:
            self.off_clock.append((interval, self.engine.now))
        super().append(interval)


def _check_clock(engine):
    trace = engine.trace
    checked = _ClockCheckedIntervals(engine, trace._intervals)
    trace._intervals = checked
    return checked


def _assert_recorded_in_time_order(checked):
    assert checked.off_clock == []
    ends = [iv.end for iv in checked]
    assert all(a <= b for a, b in zip(ends, ends[1:]))


def test_runtime_trace_is_recorded_in_time_order(profile_dir):
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    checked = _check_clock(mcl.engine)
    ctx = mcl.context
    program = ctx.create_program(SOURCE).build()
    streams = []
    for name, flags in FLAGS.items():
        kernel = program.create_kernel("scale")
        streams.append((
            mcl.queue(flags=flags, name=name),
            kernel,
            ctx.create_buffer(4 * N, host_array=np.zeros(N, np.float32)),
            ctx.create_buffer(4 * N, host_array=np.zeros(N, np.float32)),
        ))
    fault_plan = None
    for r in range(6):
        for q, kernel, src, dst in streams:
            q.enqueue_write_buffer(src, np.full(N, r, np.float32))
            kernel.set_arg(0, src)
            kernel.set_arg(1, dst)
            kernel.set_arg(2, 2.0)
            q.enqueue_nd_range_kernel(kernel, (N,), (64,))
            q.enqueue_read_buffer(dst, np.empty(N, np.float32))
        if fault_plan is None:
            # Faults land inside the next rounds: a slowdown window, a
            # link outage, then a failure of the fifo queue's device.
            fifo = streams[0][0].device
            other = next(d for d in ctx.device_names if d != fifo)
            fault_plan = (
                FaultPlan()
                .slow_device(other, at=mcl.now, duration=2e-4, factor=3.0)
                .cut_link(other, at=mcl.now + 1e-5, duration=1e-4)
                .fail_device(fifo, at=mcl.now + 5e-5)
            )
            injector = mcl.inject_faults(fault_plan)
        for q, *_ in streams:
            q.finish()
    mcl.engine.run_until_idle()

    names = [iv.task for iv in checked]
    assert any(n.startswith("slowdown:") for n in names)
    assert any(n.startswith("outage:") for n in names)
    assert any(n.startswith("fail:") for n in names)
    assert any(n.startswith("split-join:") for n in names)
    assert any(n.startswith("overlap-join@") for n in names)
    assert injector.failures == 1
    _assert_recorded_in_time_order(checked)


def test_service_trace_is_recorded_in_time_order(profile_dir):
    svc = SchedulingService(max_sessions=2, profile_dir=profile_dir)
    checked = _check_clock(svc.platform.engine)
    tenants = []
    for name, weight in (("alpha", 2.0), ("beta", 1.0)):
        session = svc.create_session(name, weight=weight)
        kernel = session.create_program(SOURCE).build().create_kernel("scale")
        tenants.append((
            session.create_queue(sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC),
            kernel,
            session.create_buffer(4 * N, host_array=np.ones(N, np.float32)),
            session.create_buffer(4 * N),
        ))
    for r in range(8):
        for q, kernel, src, dst in tenants:
            kernel.set_arg(0, src)
            kernel.set_arg(1, dst)
            kernel.set_arg(2, float(r))
            q.enqueue_nd_range_kernel(kernel, (N,), (64,))
        svc.trigger()
    svc.drain()
    svc.run_until_idle()

    assert {iv.meta.get("tenant") for iv in checked} >= {"alpha", "beta"}
    _assert_recorded_in_time_order(checked)

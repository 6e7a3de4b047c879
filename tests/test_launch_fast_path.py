"""The kernel-launch fast path of ``CommandQueue.enqueue_nd_range_kernel``
against the general ``_enqueue`` → ``issue`` path.

A resident launch on a queue that is not deferring, with no wait list,
issues in one pass; every other launch falls back.  Random programs run
twice on identical contexts: once through the public API, once with every
launch forced through ``queue._enqueue``.  Traces, functional outputs,
residency, the queues' issue bookkeeping and the fault injector's replay
counts must all match.
"""

from typing import Any, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cost import KernelCost, kernel_time
from repro.ocl.context import TENANT_PROPERTY_KEY
from repro.core.split import plan_split
from repro.ocl.enums import CommandKind, MemFlag, SchedFlag
from repro.ocl.errors import InvalidContext
from repro.ocl.kernel import WorkGroupConfig
from repro.ocl.platform import Platform
from repro.ocl.queue import COMMAND_KINDS, Command, CommandQueue
from repro.sim.faults import FaultInjector, FaultPlan

N = 1 << 10
SRC = """
// @multicl flops_per_item=40 bytes_per_item=8 writes=1
__kernel void axpy(__global float* x, __global float* y, int n) { }

// @multicl flops_per_item=90 bytes_per_item=12 writes=1
__kernel void scale(__global float* x, __global float* y, int n) { }
"""
BUFFERS = 3
KERNELS = ("axpy", "scale")


def _axpy(args):
    args["y"][:] = args["y"] * np.float32(0.5) + args["x"]


def _scale(args):
    args["y"][:] = args["x"] * np.float32(1.25) - np.float32(1.0)


def general_launch(queue, kernel, global_size, local_size=None, wait_events=()):
    """``enqueue_nd_range_kernel`` with the fast path taken out."""
    queue._check_alive()
    kernel.check_args_set()
    args, buffers, written = kernel.snapshot()
    return queue._enqueue(Command(
        kind=CommandKind.NDRANGE_KERNEL,
        wait_events=tuple(wait_events),
        kernel=kernel,
        launch=WorkGroupConfig.normalize(global_size, local_size),
        args_snapshot=args,
        arg_buffers=buffers,
        written_buffers=written,
    ))


@st.composite
def programs(draw):
    queues = draw(st.lists(
        st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3
    ))
    nq = len(queues)
    # Which buffers start valid on the host (their first launch migrates).
    on_host = draw(st.lists(st.booleans(), min_size=BUFFERS, max_size=BUFFERS))
    # Wait-list entry: an index into the events so far, or -1 for an
    # empty wait list (about two launches in three).
    wait = st.one_of(st.just(-1), st.just(-1), st.integers(0, 40))
    launch = st.tuples(st.just("launch"), st.integers(0, nq - 1),
                       st.integers(0, len(KERNELS) - 1), wait)
    step = st.one_of(
        launch, launch, launch,
        st.tuples(st.just("set_arg"), st.integers(0, len(KERNELS) - 1),
                  st.integers(0, 1), st.integers(0, BUFFERS - 1)),
        st.tuples(st.sampled_from(("write", "read")),
                  st.integers(0, nq - 1), st.integers(0, BUFFERS - 1)),
        st.tuples(st.sampled_from(("barrier", "marker", "finish")),
                  st.integers(0, nq - 1)),
        st.tuples(st.just("slow"), st.integers(0, 2),
                  st.sampled_from((1.0, 2.0, 3.5))),
    )
    steps = draw(st.lists(step, min_size=10, max_size=50))
    tenant = draw(st.none() | st.just("tenant-a"))
    # (device index, fraction of the fault-free makespan) of a failure
    fault = draw(st.none() | st.tuples(st.integers(0, 2),
                                       st.floats(0.05, 0.95)))
    return queues, on_host, steps, tenant, fault


def _task(task):
    if task is None:
        return None
    return (task.name, task.state, task.start_time, task.end_time)


def _queue_state(queue: CommandQueue):
    return (
        queue.device,
        _task(queue._tail),
        _task(queue._barrier),
        [_task(t) for t in queue._outstanding],
        [(c.kind, c.issued, c.attempts, _task(c.task)) for c in queue._inflight],
        len(queue.pending),
    )


def run(program, launch, fail_at=None):
    """Run ``program`` with ``launch`` as the kernel-launch call; return
    everything the two paths must agree on."""
    queue_specs, on_host, steps, tenant, fault = program
    properties = {TENANT_PROPERTY_KEY: tenant} if tenant is not None else None
    ctx = Platform(profile=False).create_context(properties=properties)
    devices = ctx.device_names
    prog = ctx.create_program(SRC).build()
    kernels = [prog.create_kernel(name) for name in KERNELS]
    for kernel, fn in zip(kernels, (_axpy, _scale)):
        kernel.set_host_function(fn)
    arrays = [np.arange(N, dtype=np.float32) + i for i in range(BUFFERS)]
    buffers = [
        ctx.create_buffer(
            4 * N,
            flags=MemFlag.COPY_HOST_PTR if host else MemFlag.READ_WRITE,
            host_array=arrays[i],
            name=f"b{i}",
        )
        for i, host in enumerate(on_host)
    ]
    for i, kernel in enumerate(kernels):
        kernel.set_arg(0, buffers[i % BUFFERS])
        kernel.set_arg(1, buffers[(i + 1) % BUFFERS])
        kernel.set_arg(2, N)
    queues = [
        ctx.create_queue(devices[d], name=f"q{i}", out_of_order=ooo)
        for i, (d, ooo) in enumerate(queue_specs)
    ]
    injector = None
    if fail_at is not None:
        injector = FaultInjector(ctx).arm(
            FaultPlan().fail_device(devices[fault[0]], at=fail_at)
        )
    events: List[Any] = []
    log: List[Any] = []
    host = np.zeros(N, dtype=np.float32)
    try:
        for op in steps:
            kind = op[0]
            if kind == "launch":
                _, qi, ki, wait = op
                waits = [events[wait % len(events)]] if wait >= 0 and events else []
                events.append(launch(queues[qi], kernels[ki], (N,), (64,), waits))
            elif kind == "set_arg":
                _, ki, slot, bi = op
                kernels[ki].set_arg(slot, buffers[bi])
            elif kind == "write":
                events.append(queues[op[1]].enqueue_write_buffer(
                    buffers[op[2]], arrays[op[2]] + np.float32(1.0)
                ))
            elif kind == "read":
                events.append(queues[op[1]].enqueue_read_buffer(buffers[op[2]], host))
            elif kind == "barrier":
                events.append(queues[op[1]].enqueue_barrier())
            elif kind == "marker":
                events.append(queues[op[1]].enqueue_marker())
            elif kind == "finish":
                queues[op[1]].finish()
            else:
                ctx.platform.node.device(devices[op[1]]).slowdown = op[2]
            log.append((
                ctx.platform.engine.now,
                [_queue_state(q) for q in queues],
                [sorted(b.valid_on) for b in buffers],
            ))
        for q in queues:
            q.finish()
    except Exception as exc:  # both paths must fail alike
        log.append((type(exc).__name__, str(exc)))
    engine = ctx.platform.engine
    trace = [
        (iv.resource, iv.task, iv.category, iv.start, iv.end, dict(iv.meta))
        for iv in engine.trace
    ]
    replays = (
        None if injector is None
        else (injector.failures, injector.replayed_commands,
              injector.remapped_queues)
    )
    return {
        "log": log,
        "trace": trace,
        "marks": list(engine.trace.marks),
        "now": engine.now,
        "outputs": [b.array.tobytes() for b in buffers] + [host.tobytes()],
        "residency": [sorted(b.valid_on) for b in buffers],
        "replays": replays,
    }


def fast_launch(queue, kernel, global_size, local_size, wait_events):
    return queue.enqueue_nd_range_kernel(kernel, global_size, local_size,
                                         wait_events=wait_events)


@settings(max_examples=150, deadline=None)
@given(programs())
def test_fast_path_matches_general_path(program):
    fail_at = None
    if program[4] is not None:
        # Land the failure inside the fault-free run.
        fail_at = run(program, general_launch)["now"] * program[4][1]
    fast = run(program, fast_launch, fail_at)
    general = run(program, general_launch, fail_at)
    assert fast == general


SIMPLE = """
// @multicl flops_per_item=40 bytes_per_item=8 writes=1
__kernel void k(__global float* x, __global float* y, int n) { }
"""


@pytest.fixture
def launch_setup(manual_context):
    ctx = manual_context
    kernel = ctx.create_program(SIMPLE).build().create_kernel("k")
    x = ctx.create_buffer(4 * N, flags=MemFlag.COPY_HOST_PTR,
                          host_array=np.ones(N, np.float32))
    y = ctx.create_buffer(4 * N)
    kernel.set_arg(0, x)
    kernel.set_arg(1, y)
    kernel.set_arg(2, N)
    return ctx, kernel


def test_resident_launch_skips_the_general_path(launch_setup):
    ctx, kernel = launch_setup
    q = ctx.create_queue("gpu0")
    with mock.patch.object(CommandQueue, "issue", autospec=True,
                           side_effect=CommandQueue.issue) as issue:
        first = q.enqueue_nd_range_kernel(kernel, (N,))  # migrates x: general
        assert issue.call_count == 1
        second = q.enqueue_nd_range_kernel(kernel, (N,))
        assert issue.call_count == 1
        q.enqueue_nd_range_kernel(kernel, (N,), wait_events=[second])
        assert issue.call_count == 2
    assert second.task is q._outstanding[1] and q._inflight[1] is second
    q.finish()
    assert first.complete and second.profile_start == first.profile_end


def test_launch_falls_back_on_a_failed_device(launch_setup):
    """A launch on a failed device takes the general path, whose issue
    moves the queue to the context's first live device and records the
    remap there."""
    ctx, kernel = launch_setup
    q = ctx.create_queue("gpu0")
    q.enqueue_nd_range_kernel(kernel, (N,))
    ctx.platform.mark_device_failed("gpu0")
    with mock.patch.object(CommandQueue, "issue", autospec=True,
                           side_effect=CommandQueue.issue) as issue:
        cmd = q.enqueue_nd_range_kernel(kernel, (N,))
        assert issue.call_count == 1
    assert q.device == "cpu" and cmd.task.resource.name == "dev:cpu"
    remaps = [
        (iv.meta["queue"], iv.meta["from"], iv.meta["to"])
        for iv in ctx.platform.engine.trace
        if iv.meta.get("op") == "remap"
    ]
    assert remaps == [(q.name, "gpu0", "cpu")]


PRICED = """
// @multicl flops_per_item=4000 bytes_per_item=8 writes=1
__kernel void k(__global float* x, __global float* y, int n) { }
"""


def test_launch_price_follows_every_cost_edit(manual_context):
    """Each launch is priced as its kernel, configuration and device read
    at that launch: a per-device configuration, a custom cost model, an
    argument that model reads, a device slowdown and a rebind each change
    the next launch's duration."""
    ctx = manual_context
    n = 1 << 20
    kernel = ctx.create_program(PRICED).build().create_kernel("k")
    x = ctx.create_buffer(4 * n, flags=MemFlag.COPY_HOST_PTR,
                          host_array=np.ones(n, np.float32))
    y = ctx.create_buffer(4 * n)
    kernel.set_arg(0, x)
    kernel.set_arg(1, y)
    kernel.set_arg(2, n)
    q = ctx.create_queue("gpu0")
    q.enqueue_write_buffer(x, x.array)
    node = ctx.platform.node
    launch = WorkGroupConfig.normalize((n,), (64,))
    expected = []

    def launch_and_expect():
        q.enqueue_nd_range_kernel(kernel, (n,), (64,))
        device = node.device(q.device)
        config = kernel.effective_config(q.device, launch)
        expected.append(kernel_time(device.spec, kernel.config_cost(
            device.spec, config)) * device.slowdown)

    launch_and_expect()
    launch_and_expect()
    kernel.set_work_group_info("gpu0", (n // 4,), (64,))
    launch_and_expect()
    kernel.set_cost_model(lambda spec, cfg, args: KernelCost(
        flops=1000.0 * args[2] * cfg.work_items / n, bytes=0.0,
        work_items=cfg.work_items, workgroup_size=cfg.workgroup_size,
    ))
    launch_and_expect()
    kernel.set_arg(2, n // 2)
    launch_and_expect()
    node.device("gpu0").slowdown = 2.5
    launch_and_expect()
    q.finish()
    q.rebind("gpu1")
    launch_and_expect()
    q.finish()
    durations = [
        iv.end - iv.start for iv in ctx.platform.engine.trace
        if iv.category == "kernel"
    ]
    assert durations == pytest.approx(expected, rel=1e-12)
    assert len(set(durations)) == 6


def test_one_price_for_arbiter_launch_and_split_share(manual_context):
    """A kernel with a per-device configuration is charged one unscaled
    price on that device: the fair-share arbiter's ``COMMAND_KINDS`` price
    of a deferred launch, an unsplit launch and a split share of the same
    effective configuration all read it."""
    ctx = manual_context
    n = 1 << 20
    kernel = ctx.create_program(PRICED).build().create_kernel("k")
    x = ctx.create_buffer(4 * n, flags=MemFlag.COPY_HOST_PTR,
                          host_array=np.ones(n, np.float32))
    kernel.set_arg(0, x)
    kernel.set_arg(1, ctx.create_buffer(4 * n))
    kernel.set_arg(2, n)
    # gpu0 runs half the range in work-groups of 256: the configuration an
    # unsplit launch of (n,) uses there, and that of a [0, n/2) share.
    kernel.set_work_group_info("gpu0", (n // 2,), (256,))
    config = kernel.device_configs["gpu0"]
    launch = WorkGroupConfig.normalize((n,), (64,))
    plan = plan_split(kernel, launch, ["gpu0", "cpu"], {"gpu0": 1.0, "cpu": 1.0})
    assert (plan[0].device, plan[0].config) == ("gpu0", config)
    gpu0 = ctx.platform.node.device("gpu0")
    expected = kernel_time(gpu0.spec, kernel.config_cost(gpu0.spec, config))

    q = ctx.create_queue("gpu0")
    with mock.patch.object(gpu0, "submit_kernel", wraps=gpu0.submit_kernel) as submit:
        unsplit = q.enqueue_nd_range_kernel(kernel, (n,), (64,))
        args, buffers, written = kernel.snapshot()
        q._enqueue(Command(
            kind=CommandKind.NDRANGE_KERNEL, kernel=kernel, launch=launch,
            args_snapshot=args, arg_buffers=buffers, written_buffers=written,
            split_plan=plan,
        ))
    charged = [
        (c.kwargs.get("name") or c.args[0], c.kwargs.get("seconds") or c.args[1])
        for c in submit.call_args_list
    ]
    price = COMMAND_KINDS[CommandKind.NDRANGE_KERNEL.value][3]
    assert charged == [("k", expected), (plan[0].name, expected)]
    assert unsplit.task.duration == expected
    assert price(ctx.platform.node, gpu0, unsplit) == expected


@pytest.mark.parametrize("auto", (False, True), ids=("manual", "round-robin"))
def test_kernel_of_another_context_refused_at_enqueue(
    manual_context, roundrobin, auto
):
    """CL_INVALID_CONTEXT: a kernel built in another context is refused
    before any command exists, so neither context's trace, residency or
    queue lists change."""
    if auto:
        ctx = roundrobin.context
        q = roundrobin.queue("gpu0", flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    else:
        ctx = manual_context
        q = ctx.create_queue("gpu0")
    other = ctx.platform.create_context()
    kernel = other.create_program(PRICED).build().create_kernel("k")
    x = other.create_buffer(64, host_array=np.ones(16, np.float32))
    kernel.set_arg(0, x)
    kernel.set_arg(1, other.create_buffer(64))
    kernel.set_arg(2, 16)

    def state():
        return (
            len(ctx.platform.engine.trace), x.valid_on,
            dict(ctx.platform._resident_bytes),
            list(q.pending), list(q._inflight), list(q._outstanding),
        )

    before = state()
    with pytest.raises(InvalidContext, match="another context"):
        q.enqueue_nd_range_kernel(kernel, (16,), (16,))
    assert state() == before

"""Command queues: manual issue path, in-order semantics, migrations,
capacity checks, explicit regions."""

import numpy as np
import pytest

from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.errors import (
    InvalidCommandQueue,
    InvalidContext,
    InvalidEventWaitList,
    InvalidOperation,
    InvalidValue,
    MemAllocationFailure,
)
from repro.ocl.memory import HOST

SRC = """
// @multicl flops_per_item=50 bytes_per_item=16 writes=1
__kernel void f(__global float* in, __global float* out, int n) { }
"""


@pytest.fixture
def ctx(manual_context):
    return manual_context


@pytest.fixture
def prog(ctx):
    return ctx.create_program(SRC).build()


def _kernel(ctx, prog, n=1 << 12):
    a = ctx.create_buffer(4 * n, host_array=np.arange(n, dtype=np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, dtype=np.float32))
    k = prog.create_kernel("f")
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    return k, a, b


def test_default_device_is_first(ctx):
    q = ctx.create_queue()
    assert q.device == "cpu"


def test_unknown_device_rejected(ctx):
    with pytest.raises(InvalidValue):
        ctx.create_queue("npu")


def test_auto_flags_without_scheduler_rejected(ctx):
    with pytest.raises(InvalidOperation):
        ctx.create_queue(sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC)


def test_manual_queue_issues_immediately(ctx, prog):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    ev = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    assert ev.task is not None  # issued, not deferred
    q.finish()
    assert ev.complete


def test_write_read_roundtrip_functional(ctx, prog):
    n = 256
    q = ctx.create_queue("gpu0")
    buf = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    data = np.arange(n, dtype=np.float32)
    q.enqueue_write_buffer(buf, data)
    out = np.empty(n, dtype=np.float32)
    q.enqueue_read_buffer(buf, out)
    q.finish()
    assert np.array_equal(out, data)


def test_write_marks_residency(ctx):
    q = ctx.create_queue("gpu0")
    buf = ctx.create_buffer(1 << 20)
    q.enqueue_write_buffer(buf)
    assert buf.is_valid_on("gpu0") and buf.is_valid_on(HOST)


def test_kernel_write_invalidates_other_copies(ctx, prog):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    b.mark_valid(HOST)
    b.mark_valid("cpu")
    q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    assert b.valid_on == {"gpu0"}
    # Read-only arg 'a' keeps its copies and gains gpu0.
    assert a.is_valid_on("gpu0")


def test_in_order_queue_serialises_commands(ctx, prog):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    e1 = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    e2 = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    q.finish()
    assert e2.profile_start >= e1.profile_end


def test_implicit_migration_from_host(ctx, prog):
    q = ctx.create_queue("gpu1")
    k, a, b = _kernel(ctx, prog)
    a.mark_valid(HOST)
    q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    q.finish()
    migs = ctx.platform.engine.trace.filter(category="migration")
    assert any(iv.meta.get("direction") == "h2d" for iv in migs)


def test_implicit_migration_d2d_staged(ctx, prog):
    k, a, b = _kernel(ctx, prog)
    q0 = ctx.create_queue("gpu0")
    a.mark_exclusive("gpu0")
    b.mark_exclusive("gpu0")
    q1 = ctx.create_queue("gpu1")
    q1.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    q1.finish()
    migs = ctx.platform.engine.trace.filter(category="migration")
    directions = [iv.meta.get("direction") for iv in migs]
    assert "d2h" in directions and "h2d" in directions


def test_uninitialized_buffer_needs_no_migration(ctx, prog):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    assert not a.initialized and not b.initialized  # no COPY_HOST_PTR
    q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    q.finish()
    assert ctx.platform.engine.trace.count(category="migration") == 0


def test_capacity_check_rejects_oversized_buffers(ctx):
    q = ctx.create_queue("gpu0")  # 3 GB device
    big = ctx.create_buffer(4 * 10 ** 9)
    with pytest.raises(MemAllocationFailure):
        q.enqueue_write_buffer(big)


def test_capacity_counts_resident_set(ctx):
    q = ctx.create_queue("gpu0")
    first = ctx.create_buffer(2 * 10 ** 9)
    second = ctx.create_buffer(2 * 10 ** 9)
    q.enqueue_write_buffer(first)
    with pytest.raises(MemAllocationFailure):
        q.enqueue_write_buffer(second)


def test_copy_buffer_functional(ctx):
    n = 64
    q = ctx.create_queue("gpu0")
    src = ctx.create_buffer(8 * n, host_array=np.arange(n, dtype=np.float64))
    dst = ctx.create_buffer(8 * n, host_array=np.zeros(n))
    src.mark_valid(HOST)
    q.enqueue_copy_buffer(src, dst)
    q.finish()
    assert np.array_equal(dst.array, np.arange(n, dtype=np.float64))
    assert dst.valid_on == {"gpu0"}


def test_marker_waits_for_wait_list(ctx, prog):
    q0 = ctx.create_queue("gpu0")
    q1 = ctx.create_queue("gpu1")
    k, a, b = _kernel(ctx, prog)
    e = q0.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    m = q1.enqueue_marker(wait_events=[e])
    q1.finish()
    assert m.profile_start >= e.profile_end


ENQUEUES = ("write", "read", "fill", "copy", "kernel", "marker", "barrier")


def _enqueue_one(q, k, a, b, kind, wait_events):
    return {
        "write": lambda: q.enqueue_write_buffer(a, wait_events=wait_events),
        "read": lambda: q.enqueue_read_buffer(a, wait_events=wait_events),
        "fill": lambda: q.enqueue_fill_buffer(a, 1.0, wait_events=wait_events),
        "copy": lambda: q.enqueue_copy_buffer(a, b, wait_events=wait_events),
        "kernel": lambda: q.enqueue_nd_range_kernel(
            k, (1 << 12,), (64,), wait_events=wait_events
        ),
        "marker": lambda: q.enqueue_marker(wait_events=wait_events),
        "barrier": lambda: q.enqueue_barrier(wait_events=wait_events),
    }[kind]()


@pytest.mark.parametrize("kind", ENQUEUES)
def test_wait_list_rejects_a_non_event(ctx, prog, kind):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    with pytest.raises(InvalidEventWaitList):
        _enqueue_one(q, k, a, b, kind, [42])
    assert not q._inflight and not q.pending


@pytest.mark.parametrize("kind", ENQUEUES)
@pytest.mark.parametrize("deferred_waiter", [False, True])
@pytest.mark.parametrize("deferred_producer", [False, True])
def test_wait_list_rejects_an_event_of_another_context(
    profile_dir, kind, deferred_waiter, deferred_producer
):
    """CL_INVALID_CONTEXT at enqueue, whether either side defers."""

    def queue(mcl, deferred):
        flags = SchedFlag.SCHED_AUTO_DYNAMIC if deferred else SchedFlag.SCHED_OFF
        return mcl.queue("gpu0", flags=flags)

    home, away = (
        MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir)
        for _ in range(2)
    )
    foreign = queue(away, deferred_producer).enqueue_write_buffer(
        away.context.create_buffer(64), np.zeros(16, np.float32)
    )
    assert foreign.deferred == deferred_producer
    q = queue(home, deferred_waiter)
    k, a, b = _kernel(home.context, home.context.create_program(SRC).build())
    with pytest.raises(InvalidContext):
        _enqueue_one(q, k, a, b, kind, [foreign])
    assert not q._inflight and not q.pending


def test_empty_wait_list_is_the_shared_empty_tuple(ctx, prog):
    q = ctx.create_queue("gpu0")
    k, a, b = _kernel(ctx, prog)
    first = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    marker = q.enqueue_marker(wait_events=[])
    second = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,), wait_events=[first])
    empty = ()  # the interpreter's one empty tuple
    assert first.wait_events is empty and marker.wait_events is empty
    assert second.wait_events == (first,)


def test_cross_context_buffer_rejected(bare_platform):
    ctx1 = bare_platform.create_context()
    ctx2 = bare_platform.create_context()
    buf = ctx1.create_buffer(64)
    q = ctx2.create_queue()
    with pytest.raises(InvalidValue):
        q.enqueue_write_buffer(buf)


def test_released_queue_rejects_commands(ctx):
    q = ctx.create_queue()
    q.release()
    with pytest.raises(InvalidCommandQueue):
        q.enqueue_marker()
    q.release()  # idempotent


def test_finish_marks_epoch(ctx):
    q = ctx.create_queue()
    assert q.epoch_index == 0
    q.enqueue_marker()
    q.finish()
    assert q.epoch_index == 1


def test_set_sched_property_without_scheduler_rejected(ctx):
    q = ctx.create_queue()
    with pytest.raises(InvalidOperation):
        q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)


@pytest.mark.parametrize("created", [
    SchedFlag.SCHED_EXPLICIT_REGION,
    SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_EXPLICIT_REGION,
])
def test_sched_flag_bits_follow_their_writers(autofit, created):
    # A queue created without SCHED_AUTO_* gains it at region start: the
    # int copy auto_active reads must follow set_sched_property.
    q = autofit.queue(device="cpu", flags=created)
    assert not q.auto_active
    q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)
    assert q.auto_active
    assert q.sched_flags == (
        SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_EXPLICIT_REGION
    )
    q.set_sched_property(SchedFlag.SCHED_OFF)
    assert not q.auto_active
    with pytest.raises(AttributeError):
        q.sched_flags = SchedFlag.SCHED_OFF


def test_overlap_queue_takes_the_overlap_issue_path(profile_dir):
    from repro.ocl.issue import relaxed

    # overlap=False pinned: MULTICL_OVERLAP=1 would relax the plain queue too.
    autofit = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir, overlap=False
    )
    ctx = autofit.context
    prog = ctx.create_program(SRC).build()
    k, a, _ = _kernel(ctx, prog)
    plain = autofit.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC, name="plain")
    q = autofit.queue(
        flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_OVERLAP,
        name="overlap",
    )
    assert relaxed(ctx, q) and not relaxed(ctx, plain)
    for queue in (plain, q):
        queue.enqueue_write_buffer(a, np.zeros(1 << 12, dtype=np.float32))
        queue.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
        queue.finish()
    joins = [iv.task for iv in autofit.engine.trace.filter(category="marker")]
    assert joins == ["overlap-join@overlap"]


def test_rebind_validates_device(ctx):
    q = ctx.create_queue()
    with pytest.raises(InvalidValue):
        q.rebind("npu")
    q.rebind("gpu1")
    assert q.device == "gpu1"
    assert q.binding_history == ["cpu", "gpu1"]


def test_release_with_pending_work_drains_first(autofit):
    from repro.ocl.enums import SchedFlag as SF

    q = autofit.queue(flags=SF.SCHED_AUTO_DYNAMIC)
    ev = q.enqueue_marker()
    q.release()
    assert q.released and ev.complete


def test_issue_pending_removes_that_exact_command(roundrobin):
    """Two deferred launches of one kernel with unchanged arguments share
    one argument snapshot; issuing the second must leave the first
    pending (a value-equal removal took the first off instead)."""
    ctx = roundrobin.context
    prog = ctx.create_program(SRC).build()
    k, _, _ = _kernel(ctx, prog)
    q = roundrobin.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    first = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    second = q.enqueue_nd_range_kernel(k, (1 << 12,), (64,))
    assert q.pending == [first, second]
    assert q.issue_pending(second) is second
    assert len(q.pending) == 1 and q.pending[0] is first
    assert second.issued and not first.issued
    q.finish()


def test_issue_pending_picks_one_of_two_writes_with_distinct_host_arrays(roundrobin):
    ctx = roundrobin.context
    buf = ctx.create_buffer(64, host_array=np.full(16, 5.0, dtype=np.float32))
    q = roundrobin.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    first = q.enqueue_write_buffer(buf, np.zeros(16, dtype=np.float32))
    second = q.enqueue_write_buffer(buf, np.ones(16, dtype=np.float32))
    q.issue_pending(second)
    assert q.pending == [first]
    q.finish()
    # Issue order was second, then first: the zeros land last.
    assert (buf.array == 0.0).all()


def _transfers(q, a, b):
    """One enqueue per transfer kind, taking ``nbytes``."""
    return {
        "write": lambda n: q.enqueue_write_buffer(a, nbytes=n),
        "read": lambda n: q.enqueue_read_buffer(a, nbytes=n),
        "fill": lambda n: q.enqueue_fill_buffer(a, 1.0, nbytes=n),
        "copy": lambda n: q.enqueue_copy_buffer(a, b, nbytes=n),
    }


@pytest.mark.parametrize("kind", ("write", "read", "fill", "copy"))
@pytest.mark.parametrize("nbytes", (0, -1, 65, 10**6))
def test_transfer_nbytes_out_of_range_rejected(ctx, kind, nbytes):
    q = ctx.create_queue("gpu0")
    a = ctx.create_buffer(64, name="a")
    b = ctx.create_buffer(128, name="b")
    with pytest.raises(InvalidValue, match="nbytes"):
        _transfers(q, a, b)[kind](nbytes)
    assert len(ctx.platform.engine.trace) == 0 and ctx.platform.engine.now == 0.0
    assert q._outstanding == [] and q._inflight == []


def test_copy_nbytes_bounded_by_the_smaller_buffer(ctx):
    q = ctx.create_queue("gpu0")
    small = ctx.create_buffer(64)
    big = ctx.create_buffer(128)
    with pytest.raises(InvalidValue):
        q.enqueue_copy_buffer(big, small, nbytes=65)
    assert q.enqueue_copy_buffer(big, small, nbytes=64).nbytes == 64
    assert q.enqueue_copy_buffer(big, small).nbytes == 64


@pytest.mark.parametrize("kind", ("write", "read", "fill", "copy"))
def test_transfer_nbytes_in_range_accepted(ctx, kind):
    q = ctx.create_queue("gpu0")
    a = ctx.create_buffer(64)
    b = ctx.create_buffer(64)
    ev = _transfers(q, a, b)[kind](64)
    assert ev.nbytes == 64
    assert _transfers(q, a, b)[kind](1).nbytes == 1
    q.finish()


@pytest.mark.parametrize("kind", ("write", "read", "fill", "copy"))
def test_partial_transfer_moves_only_nbytes(ctx, kind):
    """A transfer of ``nbytes`` moves only the first ``nbytes`` bytes of a
    16-float buffer, functionally as in its link time."""
    q = ctx.create_queue("gpu0")
    n = 16
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    host = np.arange(1, n + 1, dtype=np.float32)
    expect = np.zeros(n, np.float32)
    if kind == "write":
        q.enqueue_write_buffer(a, host, nbytes=8)
        got, expect[:2] = a.array, host[:2]
    elif kind == "read":
        a.array[:] = -host
        q.enqueue_write_buffer(a)
        q.enqueue_read_buffer(a, host, nbytes=8)
        got, expect = host, np.arange(1, n + 1, dtype=np.float32)
        expect[:2] = -expect[:2]
    elif kind == "fill":
        q.enqueue_fill_buffer(a, 7.0, nbytes=4)
        got, expect[:1] = a.array, 7.0
    else:
        a.array[:] = host
        q.enqueue_write_buffer(a)
        q.enqueue_copy_buffer(a, b, nbytes=12)
        got, expect[:3] = b.array, host[:3]
    q.finish()
    assert np.array_equal(got, expect)


def test_partial_fill_repeats_the_value_as_a_pattern(ctx):
    q = ctx.create_queue("gpu0")
    a = ctx.create_buffer(64, host_array=np.zeros(8, np.float64))
    q.enqueue_fill_buffer(a, 1.0)
    q.enqueue_fill_buffer(a, 2.5, nbytes=24)
    q.finish()
    assert a.array.tolist() == [2.5] * 3 + [1.0] * 5


def test_out_of_range_nbytes_rejected_before_deferral(autofit):
    ctx = autofit.context
    q = ctx.create_queue(sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    a = ctx.create_buffer(64)
    for enqueue in _transfers(q, a, ctx.create_buffer(64)).values():
        with pytest.raises(InvalidValue):
            enqueue(10**6)
    assert q.pending == []

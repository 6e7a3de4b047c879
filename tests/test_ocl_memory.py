"""Buffer residency semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, MemFlag, SchedFlag
from repro.ocl.errors import InvalidValue, MemAllocationFailure, MemCopyOverlap
from repro.ocl.memory import HOST, Buffer
from repro.ocl.platform import Platform


def test_buffer_starts_uninitialized(manual_context):
    b = manual_context.create_buffer(1024)
    assert not b.initialized
    assert b.any_valid_device() is None


def test_copy_host_ptr_marks_host_valid(manual_context):
    arr = np.zeros(16, dtype=np.float64)
    b = manual_context.create_buffer(128, flags=MemFlag.COPY_HOST_PTR, host_array=arr)
    assert b.is_valid_on(HOST)
    assert b.initialized


def test_copy_host_ptr_requires_array(manual_context):
    with pytest.raises(InvalidValue):
        manual_context.create_buffer(128, flags=MemFlag.COPY_HOST_PTR)


def test_nonpositive_size_rejected(manual_context):
    with pytest.raises(InvalidValue):
        manual_context.create_buffer(0)


def test_empty_host_array_rejected(manual_context):
    with pytest.raises(InvalidValue):
        manual_context.create_buffer(8, host_array=np.zeros(0))


def test_mark_valid_accumulates(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid("gpu0")
    b.mark_valid("gpu1")
    assert b.is_valid_on("gpu0") and b.is_valid_on("gpu1")


def test_mark_exclusive_invalidate_others(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid("gpu0")
    b.mark_valid(HOST)
    b.mark_exclusive("gpu1")
    assert b.valid_on == {"gpu1"}


def test_invalidate(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid("gpu0")
    b.invalidate("gpu0")
    assert not b.initialized
    b.invalidate("gpu0")  # idempotent


def test_any_valid_device_skips_host(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid(HOST)
    assert b.any_valid_device() is None
    b.mark_valid("gpu1")
    assert b.any_valid_device() == "gpu1"


def test_any_valid_device_deterministic(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid("gpu1")
    b.mark_valid("cpu")
    # Sorted order: 'cpu' < 'gpu1'.
    assert b.any_valid_device() == "cpu"


def test_resident_on_excludes_host(manual_context):
    b = manual_context.create_buffer(64)
    b.mark_valid(HOST)
    assert not b.resident_on(HOST)
    b.mark_valid("cpu")
    assert b.resident_on("cpu")


def test_buffer_registered_with_context(manual_context):
    n_before = len(manual_context.buffers)
    manual_context.create_buffer(64)
    assert len(manual_context.buffers) == n_before + 1


def test_auto_names_unique(manual_context):
    a = manual_context.create_buffer(64)
    b = manual_context.create_buffer(64)
    assert a.name != b.name


# ---------------------------------------------------------------------------
# Residency counters: context.resident_bytes (one ledger per platform)
# must stay exact under every Buffer method that changes residency (the
# O(1) memory-fit checks depend on it), and nothing else can change it.
# ---------------------------------------------------------------------------


def _assert_counters_exact(context, devices):
    for dev in devices:
        expected = sum(
            b.nbytes
            for c in context.platform.contexts
            for b in c.buffers
            if b.resident_on(dev)
        )
        assert context.resident_bytes(dev) == expected, (
            f"counter for {dev!r}: {context.resident_bytes(dev)} != "
            f"recount {expected}"
        )


def test_valid_on_is_read_only(manual_context):
    b = manual_context.create_buffer(128)
    b.mark_valid("gpu0")
    with pytest.raises(AttributeError):
        b.valid_on.add("gpu1")
    with pytest.raises(AttributeError):
        b.valid_on = {"cpu"}
    assert b.valid_on == {"gpu0"}
    _assert_counters_exact(manual_context, ["cpu", "gpu0", "gpu1"])


def test_resident_bytes_tracks_coherence_helpers(manual_context):
    devices = ["cpu", "gpu0", "gpu1"]
    b = manual_context.create_buffer(64)
    b.mark_valid("gpu0")
    b.mark_valid("gpu1")
    b.mark_exclusive("cpu")
    _assert_counters_exact(manual_context, devices)
    assert manual_context.resident_bytes("cpu") == 64
    assert manual_context.resident_bytes("gpu0") == 0
    b.invalidate("cpu")
    _assert_counters_exact(manual_context, devices)
    assert manual_context.resident_bytes("cpu") == 0


_HOLDERS = [HOST, "cpu", "gpu0", "gpu1"]
_OPS = ["mark_valid", "mark_exclusive", "invalidate", "drop_device", "sub"]


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 4096), min_size=1, max_size=4),
    host_copy=st.lists(st.booleans(), min_size=4, max_size=4),
    steps=st.lists(
        st.tuples(
            st.sampled_from(_OPS),
            st.integers(0, 15),
            st.sampled_from(_HOLDERS),
        ),
        max_size=40,
    ),
)
def test_resident_bytes_match_recount_under_random_residency_ops(
    sizes, host_copy, steps
):
    context = Platform(profile=False).create_context()
    buffers = [
        context.create_buffer(
            n,
            flags=MemFlag.COPY_HOST_PTR if host else MemFlag.READ_WRITE,
            host_array=np.zeros(n, dtype=np.uint8),
        )
        for n, host in zip(sizes, host_copy)
    ]
    devices = _HOLDERS[1:]
    _assert_counters_exact(context, devices)
    for op, index, holder in steps:
        buf = buffers[index % len(buffers)]
        if op == "sub":
            if buf.parent is None:
                buffers.append(buf.create_sub_buffer(0, buf.nbytes // 2))
        else:
            getattr(buf, op)(holder)
        _assert_counters_exact(context, devices)


# ---------------------------------------------------------------------------
# Memory fit: every command kind checks that all the buffers it touches fit
# on its device before any of them moves there.
# ---------------------------------------------------------------------------
GIB = 1 << 30


def _assert_within_capacity(context):
    node = context.platform.node
    for dev in context.device_names:
        assert context.resident_bytes(dev) <= node.device(dev).spec.mem_size_bytes


def test_copy_overflowing_its_device_raises(manual_context):
    ctx = manual_context
    q = ctx.create_queue("gpu0")  # 3 GB device
    src = ctx.create_buffer(2 * GIB)
    dst = ctx.create_buffer(2 * GIB)
    src.mark_valid(HOST)
    with pytest.raises(MemAllocationFailure, match="'gpu0'"):
        q.enqueue_copy_buffer(src, dst)
    # Nothing moved and nothing became resident.
    assert ctx.resident_bytes("gpu0") == 0
    assert ctx.platform.engine.trace.count(category="migration") == 0


def test_read_migrating_past_capacity_raises(manual_context):
    ctx = manual_context
    q = ctx.create_queue("gpu0")
    held = ctx.create_buffer(2 * GIB)
    q.enqueue_write_buffer(held)
    other = ctx.create_buffer(2 * GIB)
    other.mark_valid("gpu1")
    with pytest.raises(MemAllocationFailure, match="'gpu0'"):
        q.enqueue_read_buffer(other)
    assert not other.is_valid_on("gpu0")
    _assert_within_capacity(ctx)


def test_mapper_never_binds_a_copy_whose_source_cannot_fit(autofit):
    ctx = autofit.context
    q = autofit.queue("gpu0", flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    src = ctx.create_buffer(2 * GIB)
    dst = ctx.create_buffer(2 * GIB)
    src.mark_valid(HOST)
    q.enqueue_copy_buffer(src, dst)
    q.finish()
    # Source and destination together overflow either 3 GB GPU.
    assert q.device == "cpu"
    assert dst.valid_on == {"cpu"}
    _assert_within_capacity(ctx)


#: Two of these overflow a 3 GB GPU; one fits.
_FLEET_BYTES = 1_800_000_000

_SCALE = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}
"""


def test_contexts_of_one_platform_share_device_memory(manual_context):
    other = manual_context.platform.create_context()
    manual_context.create_queue("gpu0").enqueue_write_buffer(
        manual_context.create_buffer(_FLEET_BYTES)
    )
    with pytest.raises(MemAllocationFailure, match="'gpu0'"):
        other.create_queue("gpu0").enqueue_write_buffer(
            other.create_buffer(_FLEET_BYTES)
        )
    assert other.resident_bytes("gpu0") == _FLEET_BYTES


def _launch_beside_another_context(profile_dir, split):
    """A kernel over one ``_FLEET_BYTES`` buffer, launched on an auto queue
    after another context filled gpu0 with a buffer as large; returns the
    context, the buffer, the queue and the launch's event."""
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir, split=split
    )
    other = mcl.platform.create_context()
    other.create_queue("gpu0").enqueue_write_buffer(
        other.create_buffer(_FLEET_BYTES)
    )
    ctx = mcl.context
    buf = ctx.create_buffer(_FLEET_BYTES)
    buf.mark_valid(HOST)
    kernel = ctx.create_program(_SCALE).build().create_kernel("scale")
    kernel.set_arg(0, buf)
    kernel.set_arg(1, _FLEET_BYTES // 4)
    q = mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    event = q.enqueue_nd_range_kernel(kernel, (_FLEET_BYTES // 4,), (128,))
    q.finish()
    return ctx, buf, q, event


def test_mapper_avoids_a_device_another_context_filled(profile_dir):
    ctx, _, q, _ = _launch_beside_another_context(profile_dir, split=False)
    # On its own the kernel would take gpu0; gpu0 holds the other
    # context's buffer, so the two do not fit there together.
    assert q.device != "gpu0"
    _assert_within_capacity(ctx)


def test_split_shares_fit_beside_another_context(profile_dir):
    ctx, buf, _, event = _launch_beside_another_context(profile_dir, split=True)
    node = ctx.platform.node
    assert event.split_plan
    for share in event.split_plan:
        held = ctx.resident_bytes(share.device)
        capacity = node.device(share.device).spec.mem_size_bytes
        assert held + share.slice_bytes(buf.nbytes) <= capacity
    _assert_within_capacity(ctx)


def _host_buffer(ctx, array):
    return ctx.create_buffer(
        array.nbytes, flags=MemFlag.COPY_HOST_PTR, host_array=array
    )


@pytest.mark.parametrize("n_src, n_dst", [(8, 16), (16, 8)])
def test_copy_between_unequal_buffers_moves_the_smaller_size(
    manual_context, n_src, n_dst
):
    ctx = manual_context
    q = ctx.create_queue("gpu0")
    src = _host_buffer(ctx, np.arange(1, n_src + 1, dtype=np.float32))
    dst = _host_buffer(ctx, np.zeros(n_dst, np.float32))
    q.enqueue_copy_buffer(src, dst)
    q.finish()
    k = min(n_src, n_dst)
    assert dst.array.tolist() == list(range(1, k + 1)) + [0.0] * (n_dst - k)
    assert dst.valid_on == {"gpu0"}


def test_copy_moves_bytes_between_element_types(manual_context):
    ctx = manual_context
    q = ctx.create_queue("gpu0")
    values = np.array([1.5, -2.0, 3.25, 0.0], np.float32)
    src = _host_buffer(ctx, values)
    dst = _host_buffer(ctx, np.zeros(16, np.uint8))
    q.enqueue_copy_buffer(src, dst)
    q.finish()
    assert dst.array.tobytes() == values.tobytes()


def test_overlapping_copies_raise_copy_overlap(manual_context):
    ctx = manual_context
    q = ctx.create_queue("gpu0")
    parent = ctx.create_buffer(64, name="p")
    lo = parent.create_sub_buffer(0, 32, name="lo")
    mid = parent.create_sub_buffer(16, 32, name="mid")
    hi = parent.create_sub_buffer(32, 32, name="hi")
    other = ctx.create_buffer(64, name="other")
    for src, dst, nbytes in (
        (parent, parent, None), (parent, parent, 1), (lo, parent, None),
        (parent, mid, None), (lo, mid, None), (mid, hi, None), (hi, mid, 17),
    ):
        with pytest.raises(MemCopyOverlap) as err:
            q.enqueue_copy_buffer(src, dst, nbytes=nbytes)
        assert err.value.code == -8
    assert len(ctx.platform.engine.trace) == 0 and q._inflight == []
    # Disjoint regions of one data store, and distinct stores, copy.
    for src, dst, nbytes in (
        (lo, hi, None), (hi, parent, None), (parent, hi, None),
        (hi, mid, 16), (parent, other, None),
    ):
        q.enqueue_copy_buffer(src, dst, nbytes=nbytes)
    q.finish()


@pytest.mark.parametrize("kind", ("write", "read"))
@pytest.mark.parametrize("auto", (False, True), ids=("manual", "round-robin"))
def test_short_host_array_refused_at_enqueue(manual_context, roundrobin, kind, auto):
    """A write or read whose host array is shorter than the transfer raises
    CL_INVALID_VALUE from the call, leaving no trace of it."""
    if auto:
        ctx = roundrobin.context
        q = roundrobin.queue("gpu0", flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    else:
        ctx = manual_context
        q = ctx.create_queue("gpu0")
    buf = ctx.create_buffer(64, host_array=np.zeros(16, np.float32))
    q.enqueue_write_buffer(buf, np.arange(16, dtype=np.float32))

    def state():
        return (
            len(ctx.platform.engine.trace), buf.valid_on,
            list(q.pending), list(q._inflight), list(q._outstanding),
        )

    before = state()
    short = np.ones(8, np.float32)
    enqueue = q.enqueue_write_buffer if kind == "write" else q.enqueue_read_buffer
    with pytest.raises(InvalidValue, match="32 bytes"):
        enqueue(buf, short)
    assert state() == before
    q.finish()
    assert buf.array.tolist() == list(range(16))
    assert short.tolist() == [1.0] * 8


@pytest.mark.parametrize("case", (
    "whole-write", "partial-write", "read", "array-write", "array-read",
))
@pytest.mark.parametrize("auto", (False, True), ids=("manual", "round-robin"))
def test_host_sequence_that_cannot_transfer_refused_at_enqueue(
    manual_context, roundrobin, case, auto
):
    """A write or read whose host object could not take part in the
    transfer raises CL_INVALID_VALUE from the call, leaving no trace of
    it.  A host object without ``nbytes`` (a list): a whole write must
    broadcast to the buffer array's shape, a partial one must hold enough
    bytes, and a read has nowhere to land.  A numpy array holding enough
    bytes: a whole write's must broadcast to the buffer array's shape, and
    a whole read's shape must take the buffer array's."""
    if auto:
        ctx = roundrobin.context
        q = roundrobin.queue("gpu0", flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    else:
        ctx = manual_context
        q = ctx.create_queue("gpu0")
    buf = ctx.create_buffer(64, host_array=np.zeros(16, np.float32))
    q.enqueue_write_buffer(buf, np.arange(16, dtype=np.float32))

    def state():
        return (
            len(ctx.platform.engine.trace), buf.valid_on,
            list(q.pending), list(q._inflight), list(q._outstanding),
        )

    before = state()
    host, nbytes = {
        "whole-write": ([1.0] * 8, None),
        "partial-write": ([1.0] * 2, 32),
        "read": ([0.0] * 16, None),
        # 64 bytes each, as many as the buffer, in 8 elements, not 16
        "array-write": (np.ones(8, np.float64), None),
        "array-read": (np.zeros(8, np.float64), None),
    }[case]
    enqueue = (
        q.enqueue_read_buffer if case.endswith("read") else q.enqueue_write_buffer
    )
    with pytest.raises(InvalidValue, match=f"host {type(host).__name__}"):
        enqueue(buf, host, nbytes=nbytes)
    assert state() == before
    q.finish()
    assert buf.array.tolist() == list(range(16))
    # A list that fits still writes, element by element, and so does an
    # array of the buffer's shape in another element type.
    q.enqueue_write_buffer(buf, [2.0] * 16)
    q.finish()
    assert buf.array.tolist() == [2.0] * 16
    q.enqueue_write_buffer(buf, np.full(16, 3.0))
    q.finish()
    assert buf.array.tolist() == [3.0] * 16

"""Buffer residency semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocl.enums import MemFlag
from repro.ocl.errors import InvalidValue
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
# Residency counters: context.resident_bytes must stay exact under every
# Buffer method that changes residency (the O(1) memory-fit checks depend
# on it), and nothing else can change it.
# ---------------------------------------------------------------------------


def _assert_counters_exact(context, devices):
    for dev in devices:
        expected = sum(
            b.nbytes for b in context.buffers if b.resident_on(dev)
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

"""Command-graph sanitizer: static validator, runtime mode, trace lint."""

import numpy as np
import pytest

from repro.analysis import (
    Finding,
    FindingKind,
    SanitizerError,
    SanitizerWarning,
    Severity,
    lint_trace,
    validate_pool,
)
from repro.analysis.sanitizer import SANITIZE_ENV
from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextScheduler, MemFlag, SchedFlag
from repro.ocl.errors import InvalidOperation
from repro.sim.trace import FAULT_CATEGORY, Trace

AUTO = SchedFlag.SCHED_AUTO_DYNAMIC

PROGRAM = """
// @multicl flops_per_item=10 bytes_per_item=8 writes=1
__kernel void writer(__global float* x, __global float* y, int n) {
  y[get_global_id(0)] = x[get_global_id(0)];
}

// @multicl flops_per_item=10 bytes_per_item=8
__kernel void unannotated(__global float* a, __global float* b, int n) {
  a[get_global_id(0)] += b[get_global_id(0)];
}
"""


@pytest.fixture
def mcl(profile_dir):
    return MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir)


def _two_queues(mcl):
    qa = mcl.queue(flags=AUTO, name="qa")
    qb = mcl.queue(flags=AUTO, name="qb")
    return qa, qb


# ---------------------------------------------------------------------------
# Static validation: clean pools
# ---------------------------------------------------------------------------
def test_clean_pool_no_findings(mcl):
    qa, qb = _two_queues(mcl)
    a = mcl.context.create_buffer(256, name="a")
    b = mcl.context.create_buffer(256, name="b")
    qa.enqueue_write_buffer(a)
    qb.enqueue_write_buffer(b)
    assert validate_pool([qa, qb]) == []


def test_event_ordering_clears_race(mcl):
    qa, qb = _two_queues(mcl)
    buf = mcl.context.create_buffer(256, name="shared")
    ev = qa.enqueue_write_buffer(buf)
    qb.enqueue_read_buffer(buf, wait_events=[ev])
    assert validate_pool([qa, qb]) == []


def test_issued_event_waits_are_clean(mcl):
    """Waiting on an already-issued event orders before the whole pool."""
    immediate = mcl.queue(name="now")  # SCHED_OFF: issues at enqueue
    buf = mcl.context.create_buffer(256, name="warm")
    ev = immediate.enqueue_write_buffer(buf)
    qa = mcl.queue(flags=AUTO, name="qa")
    qa.enqueue_read_buffer(buf, wait_events=[ev])
    assert validate_pool([qa]) == []


# ---------------------------------------------------------------------------
# Wait-list cycles
# ---------------------------------------------------------------------------
def _crafted_cycle(mcl):
    qa, qb = _two_queues(mcl)
    ev_a = qa.enqueue_marker()
    ev_b = qb.enqueue_marker(wait_events=[ev_a])
    # An event cannot legally be waited on before it exists, so close the
    # loop by mutating the already-deferred command's wait list.
    qa.pending[0].wait_events += (ev_b,)
    return qa, qb


def test_waitlist_cycle_reported_with_path(mcl):
    qa, qb = _crafted_cycle(mcl)
    findings = validate_pool([qa, qb])
    cycles = [f for f in findings if f.kind is FindingKind.WAITLIST_CYCLE]
    assert len(cycles) == 1
    f = cycles[0]
    assert f.severity is Severity.ERROR
    assert set(f.subjects) == {"qa[0]:marker", "qb[0]:marker"}
    # The cycle path closes the loop: first label repeated at the end.
    assert f.cycle[0] == f.cycle[-1]
    assert len(f.cycle) == 3
    assert "--ev#" in f.message


def test_issue_deadlock_error_names_cycle(profile_dir):
    """The issue-time deadlock error reports the actual dependency cycle."""
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=False,  # let the pool reach issue_pool
    )
    qa, qb = _crafted_cycle(mcl)
    with pytest.raises(InvalidOperation, match="event wait-list cycle") as ei:
        qa.finish()
    msg = str(ei.value)
    assert "cross-queue dependency deadlock" in msg
    assert "qa[0]:marker" in msg and "qb[0]:marker" in msg


# ---------------------------------------------------------------------------
# Data races
# ---------------------------------------------------------------------------
def test_write_write_race(mcl):
    qa, qb = _two_queues(mcl)
    buf = mcl.context.create_buffer(256, name="shared")
    qa.enqueue_write_buffer(buf)
    qb.enqueue_write_buffer(buf)
    findings = validate_pool([qa, qb])
    assert len(findings) == 1
    f = findings[0]
    assert f.kind is FindingKind.DATA_RACE
    assert f.severity is Severity.ERROR
    assert f.buffer == "shared"
    assert "write/write" in f.message
    assert set(f.subjects) == {"qa[0]:write_buffer", "qb[0]:write_buffer"}


def test_read_write_race(mcl):
    qa, qb = _two_queues(mcl)
    buf = mcl.context.create_buffer(
        256, host_array=np.zeros(64, np.float32), name="shared"
    )
    qa.enqueue_write_buffer(buf)
    qb.enqueue_read_buffer(buf)
    findings = validate_pool([qa, qb])
    assert [f.kind for f in findings] == [FindingKind.DATA_RACE]
    assert "read/write" in findings[0].message


def test_kernel_write_sets_drive_race_detection(mcl):
    """Two queues running the same kernel race only on its written arg."""
    qa, qb = _two_queues(mcl)
    prog = mcl.context.create_program(PROGRAM).build()
    k = prog.create_kernel("writer")
    n = 1 << 10
    x = mcl.context.create_buffer(
        4 * n,
        flags=MemFlag.READ_WRITE | MemFlag.COPY_HOST_PTR,
        host_array=np.zeros(n, np.float32),
        name="x",
    )
    y = mcl.context.create_buffer(4 * n, name="y")
    k.set_arg(0, x)
    k.set_arg(1, y)
    k.set_arg(2, n)
    qa.enqueue_nd_range_kernel(k, (n,), (64,))
    qb.enqueue_nd_range_kernel(k, (n,), (64,))
    findings = validate_pool([qa, qb])
    # x is read by both (fine); y is written by both (write/write race).
    assert [f.buffer for f in findings] == ["y"]
    assert "write/write" in findings[0].message


def test_unannotated_kernel_writes_conservatively(mcl):
    q = mcl.queue(flags=AUTO, name="qa")
    prog = mcl.context.create_program(PROGRAM).build()
    k = prog.create_kernel("unannotated")
    n = 256
    a = mcl.context.create_buffer(4 * n, name="a")
    b = mcl.context.create_buffer(4 * n, name="b")
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    reads, writes = q.pending[0].access_sets()
    assert {buf.name for buf in reads} == {"a", "b"}
    # No writes= annotation: every buffer argument counts as written.
    assert {buf.name for buf in writes} == {"a", "b"}


def test_out_of_order_queue_races_without_barrier(mcl):
    q = mcl.context.create_queue(None, AUTO, name="ooo", out_of_order=True)
    buf = mcl.context.create_buffer(256, name="b")
    q.enqueue_write_buffer(buf)
    q.enqueue_read_buffer(buf)
    findings = validate_pool([q])
    assert [f.kind for f in findings] == [FindingKind.DATA_RACE]

    q2 = mcl.context.create_queue(None, AUTO, name="ooo2", out_of_order=True)
    buf2 = mcl.context.create_buffer(256, name="b2")
    q2.enqueue_write_buffer(buf2)
    q2.enqueue_barrier()
    q2.enqueue_read_buffer(buf2)
    assert validate_pool([q2]) == []


# ---------------------------------------------------------------------------
# Stale reads
# ---------------------------------------------------------------------------
def test_stale_read_before_producing_write(mcl):
    q = mcl.queue(flags=AUTO, name="qa")
    buf = mcl.context.create_buffer(256, name="late")
    q.enqueue_read_buffer(buf)
    q.enqueue_write_buffer(buf)
    findings = validate_pool([q])
    assert [f.kind for f in findings] == [FindingKind.STALE_READ]
    f = findings[0]
    assert f.severity is Severity.WARNING
    assert "ordered before the write" in f.message
    assert f.subjects == ("qa[0]:read_buffer", "qa[1]:write_buffer")


def test_stale_read_never_written(mcl):
    q = mcl.queue(flags=AUTO, name="qa")
    buf = mcl.context.create_buffer(256, name="ghost")
    q.enqueue_read_buffer(buf)
    findings = validate_pool([q])
    assert [f.kind for f in findings] == [FindingKind.STALE_READ]
    assert "no producing write" in findings[0].message


def test_stale_read_after_device_failure(mcl):
    q = mcl.queue(flags=AUTO, name="qa")
    buf = mcl.context.create_buffer(
        256, host_array=np.zeros(64, np.float32), name="fragile"
    )
    buf.mark_exclusive("gpu0")
    assert buf.drop_device("gpu0") is True  # host-shadow fallback
    q.enqueue_read_buffer(buf)
    findings = validate_pool([q])
    assert [f.kind for f in findings] == [FindingKind.STALE_READ]
    assert "host-shadow" in findings[0].message


def test_ordered_write_then_read_is_clean(mcl):
    q = mcl.queue(flags=AUTO, name="qa")
    buf = mcl.context.create_buffer(256, name="fine")
    q.enqueue_write_buffer(buf)
    q.enqueue_read_buffer(buf)
    assert validate_pool([q]) == []


# ---------------------------------------------------------------------------
# Orphaned events
# ---------------------------------------------------------------------------
def test_orphan_event(mcl):
    qa, qb = _two_queues(mcl)
    ev = qa.enqueue_marker()
    qb.enqueue_marker(wait_events=[ev])
    qa.pending.clear()  # the producer vanishes from the pool
    findings = validate_pool([qa, qb])
    assert [f.kind for f in findings] == [FindingKind.ORPHAN_EVENT]
    f = findings[0]
    assert f.severity is Severity.ERROR
    assert f.subjects == ("qb[0]:marker",)
    assert "never issue" in f.message


# ---------------------------------------------------------------------------
# Runtime sanitizer mode
# ---------------------------------------------------------------------------
def test_runtime_sanitizer_raises_on_race(profile_dir):
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=True,
    )
    qa, qb = _two_queues(mcl)
    buf = mcl.context.create_buffer(256, name="shared")
    qa.enqueue_write_buffer(buf)
    qb.enqueue_write_buffer(buf)
    with pytest.raises(SanitizerError) as ei:
        qa.finish()
    assert any(f.kind is FindingKind.DATA_RACE for f in ei.value.findings)


def test_runtime_sanitizer_warns_on_stale_read(profile_dir):
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=True,
    )
    q = mcl.queue(flags=AUTO, name="qa")
    buf = mcl.context.create_buffer(
        256, host_array=np.zeros(64, np.float32), name="fragile"
    )
    buf.mark_exclusive("gpu0")
    buf.drop_device("gpu0")
    q.enqueue_read_buffer(buf)
    with pytest.warns(SanitizerWarning, match="host-shadow"):
        q.finish()


def test_runtime_sanitizer_clean_run_unchanged(profile_dir):
    """A clean pool issues normally with the sanitizer on."""
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=True,
    )
    qa, qb = _two_queues(mcl)
    a = mcl.context.create_buffer(256, name="a")
    b = mcl.context.create_buffer(256, name="b")
    qa.enqueue_write_buffer(a)
    qb.enqueue_write_buffer(b)
    qa.finish()
    qb.finish()
    assert not qa.pending and not qb.pending


def test_env_var_enables_sanitizer(profile_dir, monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    on = MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir)
    assert on.context.sanitize is True
    monkeypatch.setenv(SANITIZE_ENV, "off")
    off = MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir)
    assert off.context.sanitize is False


def test_sanitize_argument_overrides_env(profile_dir, monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    mcl = MultiCL(
        policy=ContextScheduler.ROUND_ROBIN,
        profile_dir=profile_dir,
        sanitize=False,
    )
    assert mcl.context.sanitize is False


# ---------------------------------------------------------------------------
# Trace lint
# ---------------------------------------------------------------------------
def test_lint_negative_time():
    t = Trace()
    t.record("dev:gpu0", "bad", "kernel", 2.0, 1.0)
    findings = lint_trace(t)
    assert [f.kind for f in findings] == [FindingKind.TRACE_NEGATIVE_TIME]


def test_lint_exclusive_overlap():
    t = Trace()
    t.record("dev:gpu0", "k1", "kernel", 0.0, 1.0)
    t.record("dev:gpu0", "k2", "kernel", 0.5, 1.5)
    findings = lint_trace(t)
    assert [f.kind for f in findings] == [FindingKind.TRACE_OVERLAP]
    assert set(findings[0].subjects) == {"k1", "k2"}


def test_lint_overlap_allowed_off_exclusive_resources():
    t = Trace()
    t.record("host", "h1", "schedule", 0.0, 1.0)
    t.record("host", "h2", "schedule", 0.5, 1.5)
    assert lint_trace(t) == []


def test_lint_fault_windows_may_overlap_work():
    t = Trace()
    t.record("dev:gpu0", "k1", "kernel", 0.0, 1.0)
    t.record("dev:gpu0", "slow", FAULT_CATEGORY, 0.0, 2.0, {"kind": "slowdown"})
    assert lint_trace(t) == []


def test_lint_dead_device_work():
    t = Trace()
    t.record("dev:gpu0", "fail", FAULT_CATEGORY, 1.0, 1.0, {"kind": "device-failure"})
    t.record("dev:gpu0", "aborted-k", "kernel", 0.5, 1.0, {"aborted": True})
    t.record("dev:gpu0", "zombie", "kernel", 2.0, 3.0)
    findings = lint_trace(t)
    assert [f.kind for f in findings] == [FindingKind.TRACE_DEAD_DEVICE_WORK]
    assert findings[0].subjects == ("zombie",)


def test_lint_clean_real_run(roundrobin):
    q = roundrobin.queue(flags=AUTO, name="q")
    prog = roundrobin.context.create_program(PROGRAM).build()
    k = prog.create_kernel("writer")
    n = 1 << 12
    x = roundrobin.context.create_buffer(4 * n, name="x")
    y = roundrobin.context.create_buffer(4 * n, name="y")
    k.set_arg(0, x)
    k.set_arg(1, y)
    k.set_arg(2, n)
    q.enqueue_write_buffer(x)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert lint_trace(roundrobin.engine.trace) == []


# ---------------------------------------------------------------------------
# Finding rendering
# ---------------------------------------------------------------------------
def test_finding_str_format():
    f = Finding(
        kind=FindingKind.DATA_RACE,
        severity=Severity.ERROR,
        message="boom",
    )
    assert str(f) == "[ERROR] data-race: boom"

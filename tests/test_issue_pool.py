"""The pool issuer (:mod:`repro.ocl.issue`) against the FIFO issuer it replaced.

Pools are drawn at random: in-order and out-of-order queues with markers,
barriers, transfers, multi-producer cross-queue wait lists and orphaned
waits.  A pool with no relaxed queue must issue the exact command sequence
of the historical wake-list FIFO issuer (kept below as the reference) and
fail with the same deadlock message.  A pool where a random subset of the
in-order queues carries ``SCHED_OVERLAP`` must issue every command once,
and every conflicting pair FIFO happens-before ordered must still execute
in that order.
"""

import heapq
import inspect
import re
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.ocl.issue as issue_mod
from repro.analysis.graph import build_command_graph, conflict_pairs, reach_masks
from repro.core.flags import CONFIG_PROPERTY_KEY, SchedulerConfig
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.ocl.errors import InvalidOperation
from repro.ocl.platform import Platform
from repro.sim.engine import SimEngine

AUTO = SchedFlag.SCHED_AUTO_DYNAMIC
KINDS = ("write", "read", "marker", "barrier")
BUFFERS = 3


def reference_issue_fifo(queues):
    """The wake-list FIFO issuer: repeated in-order sweeps over the pool,
    draining each queue's head while its wait list is satisfied; a queue
    is revisited only when the command it stalls on issues."""
    pos = {id(q): i for i, q in enumerate(queues)}
    waiters: Dict[int, list] = {}
    scheduled: set = set()
    sweep = queues
    while sweep:
        heap = [(pos[id(q)], q) for q in sweep]
        heapq.heapify(heap)
        sweep = []
        while heap:
            i, q = heapq.heappop(heap)
            scheduled.discard(id(q))
            pending = q.pending
            while pending and pending[0].deps_ready():
                cmd = q.issue_pending()
                for w in waiters.pop(id(cmd), ()):
                    wid = id(w)
                    if wid in scheduled or not w.pending:
                        continue
                    scheduled.add(wid)
                    if pos[wid] > i:
                        heapq.heappush(heap, (pos[wid], w))
                    else:
                        sweep.append(w)
            if pending:
                producer = next(
                    e for e in pending[0].wait_events if e.task is None
                )
                waiters.setdefault(id(producer), []).append(q)
    remaining = [q for q in queues if q.pending]
    if remaining:
        from repro.analysis.validator import describe_deadlock

        detail = describe_deadlock(remaining)
        if detail is None:
            stuck = {q.name: len(q.pending) for q in remaining}
            detail = f"stuck pending counts: {stuck}"
        raise InvalidOperation(
            f"cross-queue dependency deadlock while issuing: {detail}"
        )


@st.composite
def pools(draw, mixed: bool):
    """A pool spec: queue shapes, commands, and (FIFO pools only) an
    orphaned wait and a closed wait-list cycle."""
    nq = draw(st.integers(1, 4))
    queues = [  # (device index, out-of-order, overlap)
        (draw(st.integers(0, 2)), draw(st.booleans()), mixed and draw(st.booleans()))
        for _ in range(nq)
    ]
    commands = []
    for c in range(draw(st.integers(1, 10))):
        waits = draw(st.lists(st.integers(0, c - 1), max_size=3)) if c else []
        commands.append((
            draw(st.integers(0, nq - 1)),
            draw(st.sampled_from(KINDS)),
            draw(st.integers(0, BUFFERS - 1)),
            sorted(set(waits)),
        ))
    orphan = None if mixed else draw(st.none() | st.integers(0, len(commands) - 1))
    cycle = not mixed and draw(st.integers(0, 5)) == 0
    return queues, commands, orphan, cycle


def new_context():
    """A round-robin context on duplex links, as under overlap, so a
    relaxed queue's upload and read-back can run at once."""
    platform = Platform(profile=False, duplex_links=True)
    return platform.create_context(properties={
        ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.ROUND_ROBIN,
        CONFIG_PROPERTY_KEY: SchedulerConfig(overlap=False, sanitize=False),
    })


def build(spec, ctx=None):
    """Enqueue ``spec`` on ``ctx`` (default: a fresh context) with fresh
    queues and buffers; return the context, the pool, and a tag (queue
    name, enqueue index) per deferred command id and per event id."""
    queue_specs, commands, orphan, cycle = spec
    if ctx is None:
        ctx = new_context()
    devices = ctx.device_names
    pool = [
        ctx.create_queue(
            devices[device],
            AUTO | (SchedFlag.SCHED_OVERLAP if overlap else SchedFlag.SCHED_OFF),
            name=f"q{i}",
            out_of_order=ooo,
        )
        for i, (device, ooo, overlap) in enumerate(queue_specs)
    ]
    buffers = [
        ctx.create_buffer(1024 << 5 * i, name=f"b{i}") for i in range(BUFFERS)
    ]
    outside = ctx.create_queue(devices[0], AUTO, name="outside")
    stray = outside.enqueue_marker()
    events, tags, event_tags = [], {}, {}
    for c, (qi, kind, bi, waits) in enumerate(commands):
        q = pool[qi]
        wait = [events[w] for w in waits]
        if c == orphan:
            wait.append(stray)  # its producer is never pooled
        if kind == "write":
            ev = q.enqueue_write_buffer(buffers[bi], wait_events=wait)
        elif kind == "read":
            ev = q.enqueue_read_buffer(buffers[bi], wait_events=wait)
        elif kind == "marker":
            ev = q.enqueue_marker(wait)
        else:
            ev = q.enqueue_barrier(wait)
        events.append(ev)
        tags[id(ev)] = event_tags[ev.id] = (q.name, c)
    if cycle:
        # An event cannot be waited on before it exists; close the loop by
        # mutating the first deferred command's wait list.
        events[0].wait_events += (events[-1],)
    return ctx, pool, tags, event_tags


def run(issue, spec):
    """Issue ``spec``'s pool with ``issue``; return the issue sequence and
    the deadlock message with event ids replaced by command tags."""
    return issue_logged(issue, *build(spec))


def issue_logged(issue, ctx, pool, tags, event_tags):
    """:func:`run` on a pool already built."""
    sequence: List[tuple] = []
    for q in pool:
        def logged(*args, _q=q, **kwargs):
            cmd = type(_q).issue_pending(_q, *args, **kwargs)
            sequence.append(tags[id(cmd)])
            return cmd
        q.issue_pending = logged
    try:
        issue(ctx, pool)
        error = None
    except InvalidOperation as exc:
        error = re.sub(
            r"ev#(\d+)",
            lambda m: f"ev{event_tags.get(int(m.group(1)), 'stray')}",
            str(exc),
        )
    return sequence, error


@settings(max_examples=200, deadline=None)
@given(pools(mixed=False))
def test_fifo_pools_issue_in_reference_order(spec):
    got = run(lambda ctx, pool: ctx.issue_pool(pool), spec)
    want = run(lambda ctx, pool: reference_issue_fifo(pool), spec)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(pools(mixed=True))
def test_mixed_pools_keep_fifo_happens_before(spec):
    ctx, pool, tags, _ = build(spec)
    graph = build_command_graph(pool)
    ordered = [
        (a.command, b.command) if graph.happens_before(a.index, b.index)
        else (b.command, a.command)
        for _, a, b, _ in conflict_pairs(graph.nodes)
        if graph.ordered(a.index, b.index)
    ]
    commands = [node.command for node in graph.nodes]
    ctx.issue_pool(pool)
    assert not any(q.pending for q in pool)
    assert all(cmd.issued for cmd in commands)
    tasks = [cmd.task for cmd in commands]
    assert len({id(t) for t in tasks}) == len(commands)
    ctx.platform.engine.run_until_idle()
    for first, then in ordered:
        assert then.task.start_time >= first.task.end_time, (
            tags[id(first)], tags[id(then)]
        )


def test_restored_order_reaches_a_fifo_queue_through_a_relaxed_one():
    """q0 is relaxed: its big upload and small read-back run at once on the
    duplex link.  q1 keeps FIFO order and reads the uploaded buffer after
    waiting only on the read-back; FIFO ordered the upload before it
    through q0's program order, so the issuer must add the upload to the
    read's dependencies."""
    spec = (
        [(0, False, True), (0, False, False)],
        [(0, "write", 2, []), (0, "read", 0, []), (1, "read", 2, [1])],
        None,
        False,
    )
    ctx, pool, _, _ = build(spec)
    upload, _, read = [c for q in pool for c in q.pending]
    ctx.issue_pool(pool)
    ctx.platform.engine.run_until_idle()
    assert read.task.start_time >= upload.task.end_time


# ---------------------------------------------------------------------------
# Relaxed-pool edges cached by pool shape
# ---------------------------------------------------------------------------
def issue_with_deps(spec, ctx=None):
    """:func:`run` through ``Context.issue_pool``, plus each command's
    task dependencies as command tags (task names outside the pool)."""
    ctx, pool, tags, event_tags = build(spec, ctx)
    commands = [c for q in pool for c in q.pending]
    # The engine drops a task's dependency list once submitted: record the
    # list every task is created with.
    engine = ctx.platform.engine
    submitted: Dict[int, list] = {}
    signature = inspect.signature(SimEngine.task)

    def task(*args, _task=engine.task, **kwargs):
        created = _task(*args, **kwargs)
        deps = signature.bind(engine, *args, **kwargs).arguments.get("deps")
        submitted[id(created)] = list(deps or ())
        return created

    engine.task = task
    try:
        sequence, error = issue_logged(
            lambda c, p: c.issue_pool(p), ctx, pool, tags, event_tags
        )
    finally:
        del engine.task
    owner = {id(c.task): tags[id(c)] for c in commands if c.task is not None}
    deps = {
        tags[id(c)]: [
            owner.get(id(t), t.name) for t in submitted.get(id(c.task), ())
        ]
        for c in commands
        if c.task is not None
    }
    return sequence, deps, error


def counting_edges():
    return mock.patch.object(
        issue_mod, "_relaxed_edges", wraps=issue_mod._relaxed_edges
    )


@settings(max_examples=150, deadline=None)
@given(pools(mixed=True))
def test_repeat_shape_issues_like_a_cold_build(spec):
    """The second pool of one spec in a context is served from the shape
    cache and issues exactly as the spec does in a fresh context: the
    same sequence and the same dependencies for every task."""
    cold = issue_with_deps(spec)
    ctx = new_context()
    with counting_edges() as edges:
        issue_with_deps(spec, ctx)
        built = edges.call_count
        warm = issue_with_deps(spec, ctx)
    assert built <= 1 and edges.call_count == built
    assert len(ctx.pool_shapes) == built
    assert warm == cold


@st.composite
def same_kinds(draw):
    """Two mixed pool specs with the same queues and command kinds, whose
    buffers and wait lists are drawn independently."""
    spec = draw(pools(mixed=True))
    queues, commands, orphan, cycle = spec
    other = []
    for c, (qi, kind, _, _) in enumerate(commands):
        waits = draw(st.lists(st.integers(0, c - 1), max_size=3)) if c else []
        other.append(
            (qi, kind, draw(st.integers(0, BUFFERS - 1)), sorted(set(waits)))
        )
    return spec, (queues, other, orphan, cycle)


@settings(max_examples=150, deadline=None)
@given(same_kinds())
def test_pools_of_one_kind_sequence_get_their_own_edges(pair):
    """A pool issued after another with the same command kinds issues as it
    does in a fresh context: buffers and wait lists are part of the key."""
    first, second = pair
    ctx = new_context()
    issue_with_deps(first, ctx)
    assert issue_with_deps(second, ctx) == issue_with_deps(second)


def test_pool_failing_the_unorder_check_is_never_cached():
    """A wait-list cycle through a relaxed queue orders q1's write before
    q0's write only through q1's dropped program order; such a pool raises
    on every issue and its shape is never stored."""
    spec = (
        [(0, False, True), (1, False, True)],
        [(0, "write", 0, []), (1, "write", 0, [0]), (1, "read", 1, [])],
        None,
        True,  # q0's write also waits on q1's read
    )
    ctx, pool, _, _ = build(spec)
    with counting_edges() as edges:
        for _ in range(2):
            with pytest.raises(InvalidOperation, match="would unorder"):
                ctx.issue_pool(pool)
    assert edges.call_count == 2
    assert ctx.pool_shapes == {}
    assert all(len(q.pending) == n for q, n in zip(pool, (1, 2)))


def test_buffer_aliasing_is_part_of_the_shape():
    """Same kinds, different aliasing: the read of the written buffer
    waits for the write, the read of another buffer does not."""
    ctx = new_context()
    queue = [(0, False, True)]
    apart = (queue, [(0, "write", 0, []), (0, "read", 1, [])], None, False)
    alias = (queue, [(0, "write", 0, []), (0, "read", 0, [])], None, False)
    _, apart_deps, _ = issue_with_deps(apart, ctx)
    _, alias_deps, _ = issue_with_deps(alias, ctx)
    assert len(ctx.pool_shapes) == 2
    assert apart_deps[("q0", 1)] == []
    assert alias_deps[("q0", 1)] == [("q0", 0)]


# ---------------------------------------------------------------------------
# Chain restoration within an in-order queue
# ---------------------------------------------------------------------------
def all_pairs_conflict_edges(accesses_by_buffer):
    """The restoration the chain edges replaced: no chain, and every
    conflicting pair of the pool restored and checked on its own."""
    pairs = {
        (a.index, b.index)
        for _buf, accesses in accesses_by_buffer
        for k, (a, a_writes) in enumerate(accesses)
        for b, b_writes in accesses[k + 1:]
        if a_writes or b_writes
    }
    return [], sorted(pairs)


def all_pairs():
    return mock.patch.object(
        issue_mod, "_conflict_edges", all_pairs_conflict_edges
    )


def relaxed_edges_or_error(queues, relax):
    try:
        return issue_mod._relaxed_edges(queues, relax)
    except InvalidOperation as exc:
        return str(exc)


CYCLE_THROUGH_RELAXED = (
    [(0, False, True), (1, False, True)],
    [(0, "write", 0, []), (1, "write", 0, [0]), (1, "read", 1, [])],
    None,
    True,
)


@settings(max_examples=200, deadline=None)
@given(pools(mixed=True))
@example(CYCLE_THROUGH_RELAXED)
def test_chain_edges_order_every_conflict_like_all_pairs(spec):
    """Restoring only consecutive conflicting accesses within an in-order
    queue gives the all-pairs edges' reachability: every conflicting pair
    is ordered the same way (and so is every other pair), with a subset of
    the restore edges, and a pool the all-pairs check rejects still
    raises the same error."""
    ctx, pool, _, _ = build(spec)
    queues = [q for q in pool if q.pending]
    relax = [issue_mod.relaxed(ctx, q) for q in queues]
    chain = relaxed_edges_or_error(queues, relax)
    with all_pairs():
        reference = relaxed_edges_or_error(queues, relax)
    if isinstance(reference, str):
        assert chain == reference
        return
    _, restore, succ, _ = chain
    _, all_restore, all_succ, _ = reference
    assert all(mine <= theirs for mine, theirs in zip(restore, all_restore))
    reach, all_reach = reach_masks(succ), reach_masks(all_succ)
    for _, a, b, _ in conflict_pairs(build_command_graph(queues).nodes):
        for x, y in ((a.index, b.index), (b.index, a.index)):
            assert reach[x] >> y & 1 == all_reach[x] >> y & 1
    assert reach == all_reach


@settings(max_examples=100, deadline=None)
@given(pools(mixed=True))
def test_chain_edges_issue_and_run_like_all_pairs(spec):
    """The same issue sequence and the same virtual start and end time
    for every command, with chain or all-pairs restoration."""

    def issue_and_run(spec):
        ctx, pool, tags, event_tags = build(spec)
        commands = [c for q in pool for c in q.pending]
        sequence, error = issue_logged(
            lambda c, p: c.issue_pool(p), ctx, pool, tags, event_tags
        )
        ctx.platform.engine.run_until_idle()
        times = [
            (c.task.start_time, c.task.end_time) if c.task else None
            for c in commands
        ]
        return sequence, error, times

    chain = issue_and_run(spec)
    with all_pairs():
        assert issue_and_run(spec) == chain

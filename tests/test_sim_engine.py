"""Discrete-event engine: task graphs, FIFO service, blocking semantics."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimEngine, SimError, SimTask
from repro.sim.resources import FifoResource


def test_single_task_runs_for_duration(engine):
    t = engine.task("t", 2.5)
    engine.run_until(t)
    assert t.done
    assert t.start_time == 0.0
    assert t.end_time == 2.5
    assert engine.now == 2.5


def test_zero_duration_task(engine):
    t = engine.task("t", 0.0)
    engine.run_until(t)
    assert t.done and t.end_time == 0.0


def test_negative_duration_rejected():
    with pytest.raises(SimError):
        SimTask("bad", -1.0)


def test_dependency_ordering(engine):
    a = engine.task("a", 1.0)
    b = engine.task("b", 2.0, deps=[a])
    engine.run_until(b)
    assert b.start_time == a.end_time == 1.0
    assert b.end_time == 3.0


def test_diamond_dependencies(engine):
    a = engine.task("a", 1.0)
    b = engine.task("b", 2.0, deps=[a])
    c = engine.task("c", 3.0, deps=[a])
    d = engine.task("d", 0.5, deps=[b, c])
    engine.run_until(d)
    # b and c run concurrently (no shared resource): d starts at max end.
    assert d.start_time == 4.0
    assert d.end_time == 4.5


def test_fifo_resource_serialises(engine):
    r = FifoResource("dev")
    a = engine.task("a", 1.0, resource=r)
    b = engine.task("b", 1.0, resource=r)
    engine.run_until_idle()
    assert a.end_time == 1.0
    assert b.start_time == 1.0 and b.end_time == 2.0
    assert engine.trace.counts_by_resource() == {"dev": 2}
    assert engine.trace.by_resource() == {"dev": pytest.approx(2.0)}


def test_abort_queued_resource_task_never_runs(engine):
    r = FifoResource("dev")
    a = engine.task("a", 1.0, resource=r)
    b = engine.task("b", 1.0, resource=r)
    c = engine.task("c", 1.0, resource=r)
    engine.run_until_time(0.5)
    assert engine.abort(b)
    assert r.pending_tasks() == [a, c]
    engine.run_until_idle()
    assert b.aborted and b.start_time is None
    assert c.start_time == a.end_time == 1.0
    assert [iv.task for iv in engine.trace] == ["a", "c"]


def test_abort_in_service_task_starts_next_at_abort_time(engine):
    r = FifoResource("dev")
    a = engine.task("a", 2.0, resource=r)
    b = engine.task("b", 1.0, resource=r)
    engine.run_until_time(0.5)
    assert engine.abort(a)
    assert r.pending_tasks() == [b]
    engine.run_until_idle()
    assert a.aborted and a.end_time is None
    assert b.start_time == 0.5 and b.end_time == 1.5
    # The lost partial service is a fault interval; "a" never completes.
    assert [(iv.task, iv.category, iv.start, iv.end) for iv in engine.trace] == [
        ("lost:a", "fault", 0.0, 0.5),
        ("b", "work", 0.5, 1.5),
    ]
    assert r.pending_tasks() == []


def test_two_resources_run_concurrently(engine):
    r1 = FifoResource("d1")
    r2 = FifoResource("d2")
    a = engine.task("a", 3.0, resource=r1)
    b = engine.task("b", 3.0, resource=r2)
    engine.run_until_idle()
    assert a.end_time == 3.0 and b.end_time == 3.0


def test_run_until_leaves_later_events_queued(engine):
    a = engine.task("a", 1.0)
    b = engine.task("b", 5.0)
    engine.run_until(a)
    assert engine.now == 1.0
    assert not b.done
    engine.run_until(b)
    assert engine.now == 5.0


def test_double_submit_rejected(engine):
    t = SimTask("t", 1.0)
    engine.submit(t)
    with pytest.raises(SimError):
        engine.submit(t)


def test_dependency_on_unsubmitted_task_rejected(engine):
    dep = SimTask("dep", 1.0)
    with pytest.raises(SimError):
        engine.submit(SimTask("t", 1.0, deps=[dep]))


def test_wait_on_unsubmitted_task_rejected(engine):
    t = SimTask("t", 1.0)
    with pytest.raises(SimError):
        engine.run_until(t)


def test_deadlock_detected_on_empty_heap(engine):
    done = engine.task("done", 0.0)
    engine.run_until(done)
    orphan = SimTask("orphan", 1.0)
    orphan.state = "waiting"  # simulate a task that will never be made ready
    with pytest.raises(SimError):
        engine.run_until(orphan)


def test_on_complete_callback_fires(engine):
    seen = []
    t = engine.task("t", 1.0)
    t.on_complete(lambda task: seen.append(task.name))
    engine.run_until(t)
    assert seen == ["t"]


def test_on_complete_after_done_fires_immediately(engine):
    t = engine.task("t", 1.0)
    engine.run_until(t)
    seen = []
    t.on_complete(lambda task: seen.append(True))
    assert seen == [True]


def test_elapse_advances_host_and_processes_concurrent_work(engine):
    r = FifoResource("dev")
    t = engine.task("t", 2.0, resource=r)
    engine.elapse(5.0)
    assert engine.now == 5.0
    assert t.done and t.end_time == 2.0


def test_schedule_in_past_rejected(engine):
    engine.elapse(1.0)
    with pytest.raises(SimError):
        engine.schedule_at(0.5, lambda: None)


def test_trace_records_completed_tasks(engine):
    r = FifoResource("dev:x")
    engine.task("k", 1.5, resource=r, category="kernel")
    engine.run_until_idle()
    assert engine.trace.total_time("dev:x", "kernel") == pytest.approx(1.5)
    assert engine.trace.count("dev:x") == 1


def test_run_until_idle_detects_unfinishable_tasks(engine):
    t = SimTask("t", 1.0)
    engine.submit(t)
    # Manually corrupt: pretend a dependency never resolves.
    engine._open_tasks += 1
    with pytest.raises(SimError):
        engine.run_until_idle()


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20
    )
)
def test_fifo_makespan_is_sum_of_durations(durations):
    engine = SimEngine()
    r = FifoResource("dev")
    tasks = [engine.task(f"t{i}", d, resource=r) for i, d in enumerate(durations)]
    engine.run_until_idle()
    assert engine.now == pytest.approx(sum(durations))
    # FIFO: completion order == submission order.
    ends = [t.end_time for t in tasks]
    assert ends == sorted(ends)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=10
    ),
    st.integers(min_value=2, max_value=4),
)
def test_parallel_resources_makespan_is_max_of_loads(durations, n_resources):
    engine = SimEngine()
    resources = [FifoResource(f"d{i}") for i in range(n_resources)]
    loads = [0.0] * n_resources
    for i, d in enumerate(durations):
        engine.task(f"t{i}", d, resource=resources[i % n_resources])
        loads[i % n_resources] += d
    engine.run_until_idle()
    assert engine.now == pytest.approx(max(loads))


# ---------------------------------------------------------------------------
# Batched injection (schedule_batch) and epoch advancement (run_until_time):
# the open-loop replay hot path.
# ---------------------------------------------------------------------------


def test_schedule_batch_equivalent_to_schedule_at():
    times = [0.5, 3.0, 1.25, 1.25, 2.0, 0.75]
    ran_batch, ran_single = [], []

    batch_engine = SimEngine()
    batch_engine.schedule_batch(
        (t, ran_batch.append, t) for t in times
    )
    batch_engine.run_until_idle()

    single_engine = SimEngine()
    for t in times:
        single_engine.schedule_at(t, lambda t=t: ran_single.append(t))
    single_engine.run_until_idle()

    assert ran_batch == ran_single == sorted(times)
    assert batch_engine.now == single_engine.now == 3.0


def test_schedule_batch_arg_convention(engine):
    """arg=None means fn(); any payload means fn(arg) — no lambda needed."""
    calls = []
    engine.schedule_batch(
        [
            (1.0, lambda: calls.append("plain"), None),
            (2.0, calls.append, "payload"),
        ]
    )
    engine.run_until_idle()
    assert calls == ["plain", "payload"]


def test_schedule_batch_sorted_batch_extends_lane(engine):
    # A pre-sorted batch rides the arrival lane; the heap stays empty.
    ran = []
    n = engine.schedule_batch(
        [(float(i), ran.append, i) for i in range(100)]
    )
    assert n == 100
    assert len(engine._lane) == 100 and not engine._heap
    engine.run_until_idle()
    assert ran == list(range(100))


def test_schedule_batch_unsorted_batch_sorts_into_lane(engine):
    engine.schedule_at(5.0, lambda: None)
    ran = []
    engine.schedule_batch([(3.0, ran.append, "b"), (1.0, ran.append, "a")])
    # Sorted by (time, seq) into the lane; the heap keeps only schedule_at.
    assert [e[0] for e in engine._lane] == [1.0, 3.0]
    assert len(engine._heap) == 1
    engine.run_until_idle()
    assert ran == ["a", "b"]


def test_schedule_batch_before_lane_tail_goes_to_heap(engine):
    # A batch starting before the lane's tail cannot extend the lane
    # without breaking its order, so it is pushed onto the heap.
    engine.schedule_batch([(float(i + 10), lambda: None, None) for i in range(40)])
    ran = []
    engine.schedule_batch([(2.0, ran.append, "x")])
    assert len(engine._lane) == 40 and len(engine._heap) == 1
    engine.run_until_time(3.0)
    assert ran == ["x"]
    # A batch at the tail's time extends the lane: later seq breaks the tie.
    engine.schedule_batch([(49.0, ran.append, "tail")])
    assert len(engine._lane) == 41 and not engine._heap


def test_schedule_batch_rejects_past_times(engine):
    engine.schedule_at(2.0, lambda: None)
    engine.run_until_time(2.0)
    with pytest.raises(SimError):
        engine.schedule_batch([(1.0, lambda: None, None)])


def test_schedule_batch_empty(engine):
    assert engine.schedule_batch([]) == 0
    assert not engine._lane and not engine._heap


def test_run_until_time_lands_clock_exactly(engine):
    ran = []
    engine.schedule_at(1.0, lambda: ran.append(1.0))
    engine.schedule_at(2.5, lambda: ran.append(2.5))
    engine.schedule_at(7.0, lambda: ran.append(7.0))
    assert engine.run_until_time(4.0) == 4.0
    assert engine.now == 4.0  # between events: clock still lands on time
    assert ran == [1.0, 2.5]
    engine.run_until_time(7.0)  # boundary event (<= time) is processed
    assert ran == [1.0, 2.5, 7.0]
    assert engine.now == 7.0


def test_run_until_time_rejects_backwards(engine):
    engine.run_until_time(5.0)
    with pytest.raises(SimError):
        engine.run_until_time(4.0)
    assert engine.run_until_time(5.0) == 5.0  # same time is a no-op


def test_run_until_time_honours_events_scheduled_during_processing(engine):
    ran = []

    def first():
        ran.append("first")
        engine.schedule_after(1.0, lambda: ran.append("inside"))
        engine.schedule_after(10.0, lambda: ran.append("outside"))

    engine.schedule_at(1.0, first)
    engine.run_until_time(5.0)
    assert ran == ["first", "inside"]  # 2.0 <= 5.0 ran; 11.0 stayed queued
    engine.run_until_idle()
    assert ran == ["first", "inside", "outside"]


def test_run_until_time_with_resource_tasks(engine):
    # Arrivals injected as a batch feed a FIFO resource; advancing to an
    # epoch boundary completes exactly the work that fits.
    r = FifoResource("dev")
    done = []

    def arrive(name):
        t = engine.task(name, 1.0, resource=r)
        t.on_complete(lambda task: done.append(task.name))

    engine.schedule_batch([(0.0, arrive, "a"), (0.5, arrive, "b"), (4.0, arrive, "c")])
    engine.run_until_time(2.0)
    # a: 0..1, b (queued behind a): 1..2 complete; c hasn't even arrived.
    assert done == ["a", "b"]
    assert engine.now == 2.0
    engine.run_until_idle()
    assert done == ["a", "b", "c"]
    assert engine.now == pytest.approx(5.0)


def test_arrival_time_slot_roundtrip(engine):
    t = engine.task("req", 1.0)
    assert t.arrival_time is None  # unset unless a replayer stamps it
    t.arrival_time = 0.25
    engine.run_until_idle()
    assert t.end_time - t.arrival_time == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# One-dependency task(): the inline path must match submit() exactly.
# ---------------------------------------------------------------------------

ONE_DEP_CASES = (
    "done", "running", "waiting", "aborted-replaced", "aborted-then-adopted",
    "released",
)


def _one_dep_run(case, on_resource, make):
    """Build ``case`` on a fresh engine, create the dependent task with
    ``make(engine, name, resource, dep)`` and drain the engine (which
    raises if ``_open_tasks`` is off); return the engine and the task."""
    engine = SimEngine()
    r = FifoResource("dev")
    if case == "done":
        dep = engine.task("dep", 1.0, resource=r)
        engine.run_until(dep)
    elif case == "running":
        dep = engine.task("dep", 1.0, resource=r)
    elif case == "waiting":
        first = engine.task("first", 1.0)
        dep = engine.task("dep", 1.0, resource=r, deps=[first])
    else:
        dep = engine.task("dep", 2.0, resource=r)
        engine.run_until_time(0.5)
        engine.abort(dep, release_dependents=case == "released")
        if case == "aborted-replaced":
            engine.adopt(dep, engine.task("dep'", 1.0, resource=r))
    task = make(engine, "t", r if on_resource else None, dep)
    if case == "aborted-then-adopted":
        engine.adopt(dep, engine.task("dep'", 1.0, resource=r))
    engine.run_until_idle()
    return engine, task


@pytest.mark.parametrize("on_resource", (True, False))
@pytest.mark.parametrize("case", ONE_DEP_CASES)
def test_one_dependency_task_matches_submit(case, on_resource):
    inline, t1 = _one_dep_run(
        case, on_resource,
        lambda e, name, r, dep: e.task(name, 0.25, resource=r, deps=[dep]),
    )
    general, t2 = _one_dep_run(
        case, on_resource,
        lambda e, name, r, dep: e.submit(SimTask(name, 0.25, r, [dep])),
    )
    assert t1.done and t2.done
    assert (t1.start_time, t1.end_time) == (t2.start_time, t2.end_time)
    assert list(inline.trace) == list(general.trace)
    assert inline.now == general.now
    assert inline._open_tasks == general._open_tasks == 0


def test_one_dependency_on_unsubmitted_task_rejected(engine):
    with pytest.raises(SimError, match="unsubmitted"):
        engine.task("t", 1.0, deps=[SimTask("ghost", 1.0)])


def test_open_tasks_exact_across_dependency_states(engine):
    """Every task counts as open once, from creation to completion, whether
    its single dependency was done, running or released."""
    r = FifoResource("dev")
    done = engine.task("done", 1.0, resource=r)
    engine.run_until(done)
    assert engine._open_tasks == 0
    running = engine.task("running", 1.0, resource=r)
    engine.task("after-done", 1.0, resource=r, deps=[done])
    engine.task("after-running", 1.0, deps=[running])
    assert engine._open_tasks == 3
    victim = engine.task("victim", 5.0)
    engine.abort(victim, release_dependents=True)
    engine.task("after-released", 0.0, deps=[victim])
    assert engine._open_tasks == 3
    engine.run_until_idle()
    assert engine._open_tasks == 0


# ---------------------------------------------------------------------------
# run_until(*tasks): one call waits exactly as back-to-back calls would.
# ---------------------------------------------------------------------------


@st.composite
def wait_scenarios(draw):
    n = draw(st.integers(2, 12))
    tasks = []
    for i in range(n):
        duration = draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0)))
        resource = draw(st.sampled_from((None, 0, 1)))
        deps = draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else []
        tasks.append((duration, resource, sorted(set(deps))))
    waits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    fault = draw(st.none() | st.tuples(st.integers(0, n - 1),
                                       st.sampled_from((0.25, 1.0, 2.5))))
    return tasks, waits, fault


def _wait_run(scenario, together):
    tasks_spec, waits, fault = scenario
    engine = SimEngine()
    resources = [FifoResource(f"r{i}") for i in range(2)]
    completed = []
    tasks = []
    for i, (duration, res, deps) in enumerate(tasks_spec):
        t = engine.task(
            f"t{i}", duration,
            resource=None if res is None else resources[res],
            deps=[tasks[d] for d in deps],
        )
        t.on_complete(lambda task: completed.append(task.name))
        tasks.append(t)
    if fault is not None:
        # A fault aborts one task at ``at`` and replays it from scratch.
        victim, at = tasks[fault[0]], fault[1]
        duration, res, _ = tasks_spec[fault[0]]

        def strike():
            if engine.abort(victim):
                engine.adopt(victim, engine.task(
                    f"{victim.name}'", duration,
                    resource=None if res is None else resources[res],
                ))

        engine.schedule_at(at, strike)
    wanted = [tasks[w] for w in waits]
    if together:
        ends = [engine.run_until(*wanted)]
    else:
        ends = [engine.run_until(t) for t in wanted][-1:]
    state = (engine.now, ends, list(completed), list(engine.trace),
             len(engine._heap))
    engine.run_until_idle()
    return state, (engine.now, completed, list(engine.trace))


@settings(max_examples=200, deadline=None)
@given(wait_scenarios())
def test_run_until_many_matches_sequential_calls(scenario):
    assert _wait_run(scenario, together=True) == _wait_run(scenario, together=False)


def test_run_until_many_follows_a_replayed_task(engine):
    r = FifoResource("dev")
    a = engine.task("a", 1.0, resource=r)
    b = engine.task("b", 1.0, resource=r)

    def strike():
        engine.abort(b)
        engine.adopt(b, engine.task("b'", 1.0, resource=r))

    engine.schedule_at(1.5, strike)
    # b ran 1.0..1.5, then its replay 1.5..2.5 on the freed resource.
    assert engine.run_until(a, b) == 2.5
    assert engine.now == 2.5 and b.replacement.done


def test_run_until_nothing_returns_now(engine):
    engine.task("t", 1.0)
    assert engine.run_until() == 0.0
    assert engine.now == 0.0


# ---------------------------------------------------------------------------
# The arrival lane: batch injection pops in exactly the order one heap of
# schedule_at events would.
# ---------------------------------------------------------------------------

#: Offsets on a quarter-second grid, so arrivals, callbacks and task
#: completions tie and the (time, seq) order decides.
_offsets = st.integers(0, 12).map(lambda k: k * 0.25)


@st.composite
def lane_scripts(draw):
    batch = st.tuples(
        st.just("batch"),
        st.lists(_offsets, max_size=6),
        st.booleans(),  # sort the offsets
        # Events of this batch that inject a nested batch when they fire.
        st.dictionaries(st.integers(0, 5), st.lists(_offsets, max_size=3),
                        max_size=2),
    )
    op = st.one_of(
        st.tuples(st.just("at"), _offsets),
        batch,
        st.tuples(st.just("task"), _offsets, st.sampled_from((None, 0, 1)),
                  st.one_of(st.none(), st.integers(0, 63))),
        st.tuples(st.just("time"), _offsets),
        st.tuples(st.just("until"), st.lists(st.integers(0, 63), max_size=3)),
        st.tuples(st.just("idle")),
    )
    return draw(st.lists(op, min_size=1, max_size=30))


def _lane_run(script, batched):
    """Play ``script`` on a fresh engine; with ``batched`` False every batch
    goes event by event through schedule_at.  Returns the callback log
    (with the clock at each fire) and the clock after each run call."""
    engine = SimEngine()
    resources = [FifoResource("d0"), FifoResource("d1")]
    log, clocks, tasks = [], [], []
    nested = {}

    def inject(events):
        if batched:
            engine.schedule_batch(events)
        else:
            for t, fn, arg in events:
                engine.schedule_at(t, fn if arg is None else partial(fn, arg))

    def fire(label):
        log.append((label, engine.now))
        inner = nested.get(label)
        if inner is not None:
            now = engine.now
            inject([(now + dt, fire, f"{label}/{k}") for k, dt in enumerate(inner)])

    for n, op in enumerate(script):
        kind = op[0]
        now = engine.now
        if kind == "at":
            engine.schedule_at(now + op[1], partial(fire, f"at{n}"))
        elif kind == "batch":
            _, offsets, sort, inner = op
            if sort:
                offsets = sorted(offsets)
            for k, dt in inner.items():
                nested[f"b{n}.{k}"] = dt
            inject([(now + dt, fire, f"b{n}.{k}") for k, dt in enumerate(offsets)])
        elif kind == "task":
            _, duration, res, dep = op
            deps = [tasks[dep % len(tasks)]] if dep is not None and tasks else None
            t = engine.task(f"t{n}", duration,
                            resource=None if res is None else resources[res],
                            deps=deps)
            t.on_complete(lambda task: log.append((task.name, engine.now)))
            tasks.append(t)
        elif kind == "time":
            clocks.append(engine.run_until_time(now + op[1]))
        elif kind == "until":
            if tasks:
                clocks.append(engine.run_until(*(tasks[i % len(tasks)] for i in op[1])))
        else:
            clocks.append(engine.run_until_idle())
    clocks.append(engine.run_until_idle())
    return log, clocks, engine.now, list(engine.trace)


@settings(max_examples=300, deadline=None)
@given(lane_scripts())
def test_lane_matches_schedule_at_one_by_one(script):
    assert _lane_run(script, batched=True) == _lane_run(script, batched=False)


def test_run_until_raises_when_only_lane_events_remain(engine):
    ran = []
    engine.schedule_batch([(float(i), ran.append, i) for i in range(5)])
    orphan = SimTask("orphan", 1.0)
    orphan.state = "waiting"  # a task that will never be made ready
    with pytest.raises(SimError, match="deadlock"):
        engine.run_until(orphan)
    # The wait drained every lane event before it gave up.
    assert ran == list(range(5)) and engine.now == 4.0


def test_run_until_idle_drains_lane(engine):
    ran = []
    engine.schedule_batch([(float(i), ran.append, i) for i in range(5)])
    engine.schedule_at(2.5, lambda: ran.append("at"))
    assert engine.run_until_idle() == 4.0
    assert ran == [0, 1, 2, "at", 3, 4]
    assert not engine._lane and not engine._heap

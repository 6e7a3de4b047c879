"""Simulated-time invariants: the engine's clock starts at zero, moves only
forward, and refuses past and NaN times at every entry point."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimEngine, SimError, SimTask
from repro.sim.resources import FifoResource

NAN = float("nan")


def test_starts_at_zero():
    assert SimEngine().now == 0.0


def test_custom_start():
    # An engine starts later by running an empty window up to that time.
    engine = SimEngine()
    assert engine.run_until_time(5.0) == 5.0
    assert engine.now == 5.0


def test_negative_start_rejected():
    engine = SimEngine()
    with pytest.raises(SimError):
        engine.run_until_time(-1.0)
    assert engine.now == 0.0


def test_advance_to():
    engine = SimEngine()
    engine.run_until_time(3.5)
    assert engine.now == 3.5


def test_advance_to_same_time_is_noop():
    engine = SimEngine()
    engine.run_until_time(2.0)
    engine.run_until_time(2.0)
    assert engine.now == 2.0


def test_advance_backwards_rejected():
    engine = SimEngine()
    engine.run_until_time(2.0)
    with pytest.raises(SimError):
        engine.run_until_time(1.999)
    with pytest.raises(SimError):
        engine.schedule_at(1.999, lambda: None)
    with pytest.raises(SimError):
        engine.schedule_batch([(1.999, lambda: None, None)])
    assert engine.now == 2.0


def test_advance_by():
    engine = SimEngine()
    engine.run_until_time(1.0)
    engine.elapse(0.5)
    assert engine.now == 1.5


def test_advance_by_zero_ok():
    engine = SimEngine()
    engine.run_until_time(1.0)
    engine.elapse(0.0)
    assert engine.now == 1.0


def test_advance_by_negative_rejected():
    engine = SimEngine()
    with pytest.raises(SimError):
        engine.elapse(-1e-9)
    with pytest.raises(SimError):
        engine.schedule_after(-1e-9, lambda: None)


def test_nan_times_rejected():
    engine = SimEngine()
    with pytest.raises(SimError):
        engine.schedule_at(NAN, lambda: None)
    with pytest.raises(SimError):
        engine.schedule_after(NAN, lambda: None)
    with pytest.raises(SimError):
        engine.schedule_batch([(1.0, lambda: None, None), (NAN, lambda: None, None)])
    with pytest.raises(SimError):
        engine.run_until_time(NAN)
    with pytest.raises(SimError):
        SimTask("t", NAN)
    with pytest.raises(SimError):
        engine.task("t", NAN)
    # Nothing was queued and the clock never left zero, so past times are
    # still refused afterwards.
    assert engine.now == 0.0
    assert engine.run_until_idle() == 0.0
    engine.run_until_time(1.0)
    with pytest.raises(SimError):
        engine.schedule_at(0.5, lambda: None)


#: A delay: forward, backward or NaN.
_delays = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-1e-3),
    st.just(NAN),
)
_ops = st.one_of(
    st.tuples(st.just("at"), _delays),
    st.tuples(st.just("batch"), st.lists(_delays, max_size=4)),
    st.tuples(st.just("task"), _delays, st.sampled_from([None, 0, 1]), st.booleans()),
    st.tuples(st.just("until")),
    st.tuples(st.just("idle")),
    st.tuples(st.just("time"), _delays),
)


def _valid(delay: float) -> bool:
    return not math.isnan(delay) and delay >= 0.0


@given(st.lists(_ops, max_size=40))
def test_monotone_under_any_advance_sequence(script):
    engine = SimEngine()
    resources = [FifoResource("r0"), FifoResource("r1")]
    fired = []
    tasks = []

    def note():
        fired.append(engine.now)

    last = 0.0
    for op in script:
        kind = op[0]
        now = engine.now
        if kind == "at":
            if _valid(op[1]):
                engine.schedule_at(now + op[1], note)
            else:
                with pytest.raises(SimError):
                    engine.schedule_at(now + op[1], note)
        elif kind == "batch":
            events = [(now + d, note, None) for d in op[1]]
            if all(_valid(d) for d in op[1]):
                assert engine.schedule_batch(events) == len(events)
            else:
                with pytest.raises(SimError):
                    engine.schedule_batch(events)
        elif kind == "task":
            _, duration, res, chained = op
            resource = None if res is None else resources[res]
            deps = tasks[-1:] if chained else None
            if _valid(duration):
                tasks.append(engine.task("t", duration, resource, deps))
            else:
                with pytest.raises(SimError):
                    engine.task("t", duration, resource, deps)
        elif kind == "until":
            if tasks:
                engine.run_until(tasks[-1])
        elif kind == "idle":
            engine.run_until_idle()
        elif _valid(op[1]):
            assert engine.run_until_time(now + op[1]) == now + op[1]
        else:
            with pytest.raises(SimError):
                engine.run_until_time(now + op[1])
        assert engine.now >= last
        last = engine.now
    engine.run_until_idle()
    assert engine.now >= last
    assert fired == sorted(fired)
    assert all(t.done for t in tasks)

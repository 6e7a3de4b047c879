"""Service replay: completion accounting across issue modes, queue lists
that shed settled work without ``finish``, and overlap issue on large pools.

Each tenant's requests complete in enqueue order on its in-order queue, so
one bound handler pairs them with a deque of arrival times.  The checksums
below fold every request's latency; they are the values of the per-request
closures this pairing replaced, under overlap and split issue.
"""

import gc
import time

import pytest

import repro.replay.runner as runner
from repro.analysis.graph import CommandGraph
from repro.ocl.platform import Platform
from repro.ocl.queue import Command, CommandQueue
from repro.replay import ReplayConfig, run_service_replay
from repro.sim.engine import _ABORTED, _DONE

SETTLED = (_DONE, _ABORTED)
MODES = ("MULTICL_OVERLAP", "MULTICL_SPLIT")


@pytest.fixture
def warm_dir(profile_dir):
    """A profile cache already measured: on a cold one, device profiling
    advances the clock before the first arrival and shifts every float."""
    Platform(profile=True, profile_dir=profile_dir)
    return profile_dir


def _mode(monkeypatch, knob):
    for name in MODES:
        monkeypatch.delenv(name, raising=False)
    if knob is not None:
        monkeypatch.setenv(knob, "1")


BACKLOGGED = dict(commands=800, rate=40.0, chunk=64, weights=(4.0, 2.0, 1.0, 1.0))
OPEN = dict(commands=300, rate=300.0, chunk=512)


@pytest.mark.parametrize(
    "knob, shape, checksum",
    [
        ("MULTICL_OVERLAP", BACKLOGGED, 55455.67714799933),
        ("MULTICL_SPLIT", BACKLOGGED, 52286.11119010868),
        ("MULTICL_OVERLAP", OPEN, 4599.54240080656),
        ("MULTICL_SPLIT", OPEN, 4370.981978188019),
    ],
)
def test_checksums_under_overlap_and_split(
    warm_dir, monkeypatch, knob, shape, checksum
):
    _mode(monkeypatch, knob)
    config = ReplayConfig(tenants=4, seed=1, profile_dir=warm_dir, **shape)
    report = run_service_replay(config)
    assert report.total_commands == config.commands * config.tenants
    assert report.checksum == checksum


@pytest.mark.parametrize("knob", [None, *MODES])
def test_queues_hold_only_unsettled_work_without_finish(
    profile_dir, monkeypatch, knob
):
    _mode(monkeypatch, knob)
    tenants = []

    class Recorded(runner._ServiceTenant):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tenants.append(self)

    def no_finish(queue):
        raise AssertionError(f"{queue.name} finished")

    monkeypatch.setattr(runner, "_ServiceTenant", Recorded)
    monkeypatch.setattr(CommandQueue, "finish", no_finish)
    config = ReplayConfig(tenants=4, seed=1, profile_dir=profile_dir, **OPEN)
    report = run_service_replay(config)
    assert report.total_commands == config.commands * config.tenants
    queues = [t.queue for t in tenants]
    for t, q in zip(tenants, queues):
        assert not q.pending and not t.arrivals
        assert all(task.state not in SETTLED for task in q._outstanding)
        assert all(cmd.task.state not in SETTLED for cmd in q._inflight)
    gc.collect()
    held = [o for o in gc.get_objects() if type(o) is Command and o.queue in queues]
    assert held == []


def test_overlap_issue_of_a_large_pool_stays_linear(profile_dir, monkeypatch):
    """Every service kernel writes its tenant's buffer, so every pair of a
    tenant's pool conflicts.  Within the tenant's in-order queue the chain
    of consecutive accesses restores program order with no reachability
    query.  Restoring and checking all n²/2 pairs one by one grew
    cubically with the pool: four 200-command tenants took half a
    second."""
    _mode(monkeypatch, "MULTICL_OVERLAP")
    queries = [0]
    happens_before = CommandGraph.happens_before

    def counted(self, a, b):
        queries[0] += 1
        return happens_before(self, a, b)

    monkeypatch.setattr(CommandGraph, "happens_before", counted)
    config = ReplayConfig(
        commands=500, tenants=4, rate=300.0, chunk=8192, seed=1,
        profile_dir=profile_dir,
    )
    start = time.perf_counter()
    report = run_service_replay(config)
    assert time.perf_counter() - start < 30.0
    assert report.total_commands == config.commands * config.tenants
    assert queries[0] == 0

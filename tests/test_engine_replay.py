"""Engine-mode replay: every outcome pinned, and the closed-form device
FIFOs checked against an event-driven reference.

``run_tenant`` computes each request's service interval in closed form and
records the intervals in the order an event engine would complete them:
``(time, seq)``, where an in-service head takes its sequence number when
its service begins and a chunk of arrivals takes its numbers when it is
injected.  The golden test folds every ``TenantResult`` field and the bytes
of every streamed JSONL trace over a 48-case matrix, pinned to the digest
the event-engine-driven replay produced; the differential test
replays grid-aligned schedules, where completions tie with arrivals and
with each other, through a compact engine-driven reference kept here.
"""

import hashlib
import math
import tempfile
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.replay.runner as runner
from repro.ocl.platform import Platform
from repro.replay import ReplayConfig, run_tenant
from repro.replay.metrics import LatencyHistogram, TenantResult
from repro.sim.engine import SimError

POLICIES = ("jsq", "rr")
COLD = {
    "plain": {},
    "cold": dict(cold_start=True),
    "cold-churn": dict(cold_start=True, family_churn=250),
    "cold-predict-churn": dict(cold_start=True, predict=True, family_churn=250),
}
PROCESSES = ("poisson", "bursty", "diurnal")


@pytest.fixture
def warm_dir(profile_dir):
    Platform(profile=True, profile_dir=profile_dir)
    return profile_dir


def _fold(digest, result: TenantResult) -> None:
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, dict):
            value = sorted(value.items())
        digest.update(f"{f.name}={value!r};".encode())


def test_every_engine_replay_outcome_pinned(warm_dir, tmp_path):
    digest = hashlib.sha256()
    case = 0
    for policy in POLICIES:
        for extra in COLD.values():
            for process in PROCESSES:
                for streaming in (True, False):
                    path = tmp_path / f"case{case}"
                    config = ReplayConfig(
                        commands=1000, tenants=1, process=process, rate=400.0,
                        seed=case, policy=policy, chunk=128, spill_every=256,
                        streaming=streaming,
                        trace_path=str(path) if streaming else None,
                        profile_dir=warm_dir, **extra,
                    )
                    _fold(digest, run_tenant(config, 0))
                    if streaming:
                        data = (tmp_path / f"case{case}.tenant0.jsonl").read_bytes()
                        digest.update(hashlib.sha256(data).digest())
                    case += 1
    assert case == 48
    assert digest.hexdigest()[:16] == "49ac7a0def497544"


# ---------------------------------------------------------------------------
# Differential test against an event-driven reference
# ---------------------------------------------------------------------------

TICK = 2.0**-10  # grid step: sums stay exact, so completions tie


def _reference(config: ReplayConfig, schedule, durations) -> tuple:
    """Replay ``schedule`` through the event engine: one task per request
    on its device's FIFO resource, the latency folded by a completion
    callback, arrivals injected chunk by chunk.  Returns the result and
    the trace left resident after the final flush."""
    platform = runner._warm_platform(config.profile_dir)
    engine = platform.engine
    trace = engine.trace
    sink = runner._attach_sink(trace, config, "tenant0")
    resources = [d.resource for d in platform.node.device_list()]
    families = config.families
    metas = [{"family": f.name, "tenant": "tenant-0"} for f in families]
    free = [0.0] * len(resources)
    hist = LatencyHistogram()
    fold = {"completed": 0, "latency_sum": 0.0, "end_time": 0.0}
    counts = {"arrivals": 0, "rr": 0, "profiling": 0, "predicted": 0}
    seen = set()

    def done(task, arrival):
        latency = task.end_time - arrival
        hist.add(latency)
        fold["completed"] += 1
        fold["latency_sum"] += latency
        fold["end_time"] = max(fold["end_time"], task.end_time)

    def arrive(fam):
        now = engine.now
        if config.cold_start:
            counts["arrivals"] += 1
            churn = config.family_churn
            key = (fam, counts["arrivals"] // churn if churn else 0)
            if key not in seen:
                seen.add(key)
                if config.predict:
                    counts["predicted"] += 1
                else:
                    counts["profiling"] += 1
                    for i, res in enumerate(resources):
                        free[i] = max(free[i], now) + durations[fam][i]
                        engine.task(
                            f"prof:{families[fam].name}", durations[fam][i],
                            res, category="profile-kernel",
                        ).meta = metas[fam]
        if config.policy == "jsq":
            dev = min(range(len(free)), key=free.__getitem__)
        else:
            dev = counts["rr"]
            counts["rr"] = (dev + 1) % len(free)
        free[dev] = max(free[dev], now) + durations[fam][dev]
        task = engine.task(
            f"req:{families[fam].name}", durations[fam][dev], resources[dev]
        )
        task.meta = metas[fam]
        task.on_complete(lambda t, arrival=now: done(t, arrival))

    for start in range(0, len(schedule), config.chunk):
        batch = [(t, arrive, fam) for t, fam in schedule[start:start + config.chunk]]
        engine.schedule_batch(batch)
        if len(batch) == config.chunk:
            engine.run_until_time(batch[-1][0])
    engine.run_until_idle()
    device_seconds = dict(trace.by_resource())
    resident = len(trace)
    if sink is not None:
        trace.flush()
        sink.close()
    checksum = float(fold["completed"]) + fold["end_time"] + fold["latency_sum"]
    for name in sorted(device_seconds):
        checksum += device_seconds[name]
    result = TenantResult(
        tenant="tenant-0", index=0, weight=config.tenant_weight(0),
        requests=config.commands, histogram=hist.to_dict(),
        device_seconds=device_seconds, spilled=trace.spilled_count,
        resident=resident, checksum=checksum,
        profiling_epochs=counts["profiling"],
        predicted_epochs=counts["predicted"], **fold,
    )
    return result, list(trace)


class _Schedule:
    """An arrival process that replays a fixed schedule."""

    def __init__(self, schedule):
        self.schedule = schedule

    def stream(self, families, seed, limit):
        assert limit == len(self.schedule)
        return iter(self.schedule)


@st.composite
def replays(draw):
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    fams = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    schedule, t = [], 0
    for gap, fam in zip(gaps, fams):
        t += gap
        schedule.append((t * TICK, fam))
    durations = draw(
        st.lists(
            st.lists(st.integers(0, 6).map(lambda k: k * TICK), min_size=3, max_size=3),
            min_size=4, max_size=4,
        )
    )
    cold = draw(st.booleans())
    options = dict(
        commands=n,
        policy=draw(st.sampled_from(POLICIES)),
        chunk=draw(st.sampled_from((1, 7, 64))),
        cold_start=cold,
        predict=cold and draw(st.booleans()),
        family_churn=draw(st.sampled_from((0, 1, 5))) if cold else 0,
        streaming=draw(st.booleans()),
        spill_every=draw(st.sampled_from((1, 16, 1024))),
    )
    return schedule, durations, options


@settings(max_examples=200, deadline=None)
@given(replays())
def test_closed_form_matches_event_engine(profile_dir, case):
    schedule, durations, options = case
    platforms = []
    warm = runner._warm_platform
    init = runner._EngineTenant.__init__

    def tracked(profile_dir):
        platforms.append(warm(profile_dir))
        return platforms[-1]

    def with_durations(self, platform, config, index):
        init(self, platform, config, index)
        self.durations = durations

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        config = ReplayConfig(
            tenants=1, profile_dir=profile_dir,
            trace_path=f"{tmp}/ref" if options["streaming"] else None, **options,
        )
        expected, expected_trace = _reference(config, schedule, durations)
        mp.setattr(runner, "_warm_platform", tracked)
        mp.setattr(runner, "make_process", lambda *a, **k: _Schedule(schedule))
        mp.setattr(runner._EngineTenant, "__init__", with_durations)
        config = replace(config, trace_path=config.trace_path and f"{tmp}/new")
        result = run_tenant(config, 0)
        assert result == expected
        assert list(platforms[-1].engine.trace) == expected_trace
        if config.streaming:
            with open(f"{tmp}/ref.tenant0.jsonl", "rb") as ref:
                with open(f"{tmp}/new.tenant0.jsonl", "rb") as new:
                    assert ref.read() == new.read()


@pytest.mark.parametrize(
    "schedule",
    [
        [(-1.0, 0)],
        [(0.5, 0), (0.25, 1)],
        [(0.5, 0), (0.5, 1), (0.25, 2)],
        [(0.5, 0), (math.nan, 1)],
        [(0.5, 0), (math.inf, 1)],
    ],
)
@pytest.mark.parametrize("chunk", [1, 64])
def test_decreasing_or_non_finite_arrival_rejected(
    warm_dir, monkeypatch, schedule, chunk
):
    monkeypatch.setattr(runner, "make_process", lambda *a, **k: _Schedule(schedule))
    config = ReplayConfig(
        commands=len(schedule), tenants=1, chunk=chunk, profile_dir=warm_dir
    )
    with pytest.raises(SimError, match="arrival at"):
        run_tenant(config, 0)

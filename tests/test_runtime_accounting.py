"""Regression tests for trace/fault accounting bugs.

Covers three fixes:

* :meth:`RunStats.from_trace` clips intervals to the ``[t0, t1)`` window
  instead of attributing whole intervals by start time (an interval
  straddling a window edge used to be dropped or double-credited);
* :meth:`MultiCL.inject_faults` no longer silently ignores a differing
  ``policy`` on a re-arm — the new policy takes effect, with a warning;
* :class:`TraceInterval`'s default ``meta`` no longer aliases one shared
  mutable dict across every metadata-free interval.
"""

import random
import warnings

import pytest

from repro.core.runtime import MultiCL, RunStats
from repro.sim.faults import FaultPlan, FaultPolicy
from repro.sim.trace import EMPTY_META, FAULT_CATEGORY, RECOVERY_CATEGORY, Trace, TraceInterval


# ---------------------------------------------------------------------------
# RunStats.from_trace window clipping
# ---------------------------------------------------------------------------
class TestRunStatsWindowClipping:
    def _trace(self):
        t = Trace()
        # entirely inside [1, 3)
        t.record("dev:gpu0", "k-in", "kernel", 1.2, 1.8)
        # straddles the left edge: 0.5..1.5 -> 0.5s inside
        t.record("dev:gpu0", "k-left", "kernel", 0.5, 1.5)
        # straddles the right edge: 2.5..3.5 -> 0.5s inside
        t.record("dev:gpu1", "k-right", "kernel", 2.5, 3.5)
        # spans the whole window: 0.0..4.0 -> 2.0s inside
        t.record("link:pcie0", "x-span", "transfer", 0.0, 4.0)
        # entirely outside
        t.record("dev:gpu0", "k-out", "kernel", 3.5, 4.5)
        return t

    def test_straddling_intervals_contribute_their_overlap_only(self):
        stats = RunStats.from_trace(self._trace(), 1.0, 3.0)
        # 0.6 (inside) + 0.5 (left clip) + 0.5 (right clip)
        assert stats.by_category["kernel"] == pytest.approx(1.6)
        assert stats.by_category["transfer"] == pytest.approx(2.0)
        assert stats.kernel_seconds_by_device["gpu0"] == pytest.approx(1.1)
        assert stats.kernel_seconds_by_device["gpu1"] == pytest.approx(0.5)

    def test_counts_keep_start_based_ownership(self):
        stats = RunStats.from_trace(self._trace(), 1.0, 3.0)
        # k-in and k-right start inside the window; k-left starts before it
        # (it belongs to the previous window), k-out starts after.
        assert stats.kernel_count_by_device == {"gpu0": 1, "gpu1": 1}

    def test_adjacent_windows_partition_seconds_exactly(self):
        trace = self._trace()
        full = RunStats.from_trace(trace, 0.0, 4.5)
        parts = [
            RunStats.from_trace(trace, a, b)
            for a, b in [(0.0, 1.0), (1.0, 3.0), (3.0, 4.5)]
        ]
        for cat in full.by_category:
            assert sum(p.by_category.get(cat, 0.0) for p in parts) == pytest.approx(
                full.by_category[cat]
            ), cat
        assert sum(
            sum(p.kernel_count_by_device.values()) for p in parts
        ) == sum(full.kernel_count_by_device.values())

    def test_downtime_clips_and_zero_width_recovery_markers_count(self):
        t = Trace()
        # fault window straddling the right edge: only 1.0s is in-window
        t.record("dev:gpu0", "dead", FAULT_CATEGORY, 2.0, 4.0)
        # zero-width remap/replay markers inside and outside the window
        t.record("host", "remap", RECOVERY_CATEGORY, 2.5, 2.5, {"op": "remap"})
        t.record("host", "replay", RECOVERY_CATEGORY, 9.0, 9.0, {"op": "replay"})
        stats = RunStats.from_trace(t, 1.0, 3.0)
        assert stats.downtime_seconds == pytest.approx(1.0)
        assert stats.remap_count == 1
        assert stats.replayed_commands == 0  # marker at t=9 is out of window


# ---------------------------------------------------------------------------
# MultiCL.inject_faults policy re-arm
# ---------------------------------------------------------------------------
class TestInjectFaultsRearm:
    def test_differing_policy_takes_effect_with_warning(self, profile_dir):
        mcl = MultiCL(profile_dir=profile_dir)
        first = FaultPolicy(max_attempts=3)
        mcl.inject_faults(FaultPlan(), policy=first)
        assert mcl.injector.policy == first
        second = FaultPolicy(max_attempts=7, backoff_s=5e-3)
        with pytest.warns(RuntimeWarning, match="different FaultPolicy"):
            injector = mcl.inject_faults(FaultPlan(), policy=second)
        assert injector is mcl.injector  # still one accumulating injector
        assert injector.policy == second  # the re-armed policy governs now

    def test_equal_policy_rearm_is_silent(self, profile_dir):
        mcl = MultiCL(profile_dir=profile_dir)
        mcl.inject_faults(FaultPlan(), policy=FaultPolicy(max_attempts=4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mcl.inject_faults(FaultPlan(), policy=FaultPolicy(max_attempts=4))

    def test_omitted_policy_rearm_keeps_current(self, profile_dir):
        mcl = MultiCL(profile_dir=profile_dir)
        pol = FaultPolicy(max_attempts=9)
        mcl.inject_faults(FaultPlan(), policy=pol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mcl.inject_faults(FaultPlan())
        assert mcl.injector.policy == pol


# ---------------------------------------------------------------------------
# TraceInterval default-meta aliasing
# ---------------------------------------------------------------------------
class TestTraceIntervalMetaIsolation:
    def test_default_meta_cannot_be_mutated(self):
        iv = TraceInterval("dev:gpu0", "k", "kernel", 0.0, 1.0)
        with pytest.raises(TypeError):
            iv.meta["tenant"] = "oops"  # type: ignore[index]

    def test_recorded_none_meta_normalises_to_shared_immutable(self):
        t = Trace()
        t.record("dev:gpu0", "a", "kernel", 0.0, 1.0)
        t.record("dev:gpu0", "b", "kernel", 1.0, 2.0)
        a, b = list(t)
        assert a.meta is EMPTY_META and b.meta is EMPTY_META
        with pytest.raises(TypeError):
            a.meta["x"] = 1  # type: ignore[index]

    def test_caller_meta_is_stored_and_isolated(self):
        t = Trace()
        t.record("dev:gpu0", "a", "kernel", 0.0, 1.0, {"tenant": "alpha"})
        t.record("dev:gpu0", "b", "kernel", 1.0, 2.0)
        a, b = list(t)
        assert a.meta["tenant"] == "alpha"
        assert "tenant" not in b.meta  # no cross-interval pollution


# ---------------------------------------------------------------------------
# RunStats.from_trace against the attribute-access loop it replaced
# ---------------------------------------------------------------------------
def _reference_from_trace(trace, t0, t1):
    """The original per-interval loop (attribute reads, ``min``/``max``)."""
    by_cat, ksec, kcnt = {}, {}, {}
    remaps = replays = solves = repairs = 0
    downtime = 0.0
    for iv in trace:
        overlap = min(iv.end, t1) - max(iv.start, t0)
        instant = iv.start == iv.end and t0 <= iv.start < t1
        if overlap < 0.0 or (overlap == 0.0 and not instant):
            continue
        by_cat[iv.category] = by_cat.get(iv.category, 0.0) + overlap
        if iv.category == "kernel" and iv.resource.startswith("dev:"):
            dev = iv.resource[len("dev:"):]
            ksec[dev] = ksec.get(dev, 0.0) + overlap
            if t0 <= iv.start < t1:
                kcnt[dev] = kcnt.get(dev, 0) + 1
        elif iv.category == FAULT_CATEGORY:
            downtime += overlap
        elif iv.category == RECOVERY_CATEGORY:
            downtime += overlap
            if t0 <= iv.start < t1:
                op = iv.meta.get("op")
                if op == "remap":
                    remaps += 1
                elif op == "replay":
                    replays += 1
        elif iv.category == "schedule" and t0 <= iv.start < t1:
            if iv.task == "device-map":
                solves += 1
            elif iv.task == "device-repair":
                repairs += 1
    return RunStats(
        duration=t1 - t0,
        by_category=by_cat,
        kernel_seconds_by_device=ksec,
        kernel_count_by_device=kcnt,
        remap_count=remaps,
        replayed_commands=replays,
        downtime_seconds=downtime,
        mapper_solves=solves,
        mapper_repairs=repairs,
    )


@pytest.mark.parametrize("seed", range(20))
def test_from_trace_matches_reference_loop_bitwise(seed):
    rng = random.Random(seed)
    t0, t1 = sorted(rng.uniform(0.0, 10.0) for _ in range(2))
    # Edge-hugging points: the window edges themselves, zeros, and values
    # a hair either side of each edge.
    edges = [t0, t1, 0.0, -0.0, t0 - 1e-12, t1 + 1e-12, t0 + 1e-12, t1 - 1e-12]
    kinds = [
        ("dev:gpu0", "k", "kernel", EMPTY_META),
        ("dev:cpu", "k", "kernel", EMPTY_META),
        ("link:pcie0", "x", "transfer", EMPTY_META),
        ("dev:gpu0", "dead", FAULT_CATEGORY, EMPTY_META),
        ("host", "r", RECOVERY_CATEGORY, {"op": "remap"}),
        ("host", "r", RECOVERY_CATEGORY, {"op": "replay"}),
        ("host", "device-map", "schedule", EMPTY_META),
        ("host", "device-repair", "schedule", EMPTY_META),
        ("host", "marker@q", "marker", EMPTY_META),
    ]
    trace = Trace()
    for _ in range(400):
        resource, task, category, meta = rng.choice(kinds)
        start = rng.choice(edges) if rng.random() < 0.3 else rng.uniform(-1.0, 11.0)
        shape = rng.random()
        if shape < 0.25:
            end = start  # instant
        elif shape < 0.45:
            end = rng.choice(edges)
            start, end = min(start, end), max(start, end)
        else:
            end = start + rng.uniform(0.0, 6.0)  # may straddle both edges
        trace.record(resource, task, category, start, end, dict(meta) or None)
    for a, b in [(t0, t1), (0.0, t1), (t0, t0), (-1.0, 12.0)]:
        got = RunStats.from_trace(trace, a, b)
        want = _reference_from_trace(trace, a, b)
        # repr prints every float round-trip exact (and -0.0 apart from
        # 0.0), and every dict in insertion order.
        assert repr(got) == repr(want)

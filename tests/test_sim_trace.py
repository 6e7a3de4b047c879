"""Trace accounting used by the evaluation harness."""

import pytest

from repro.sim.trace import Trace, TraceInterval, TraceSink


@pytest.fixture
def trace():
    t = Trace()
    t.record("dev:cpu", "k1", "kernel", 0.0, 1.0)
    t.record("dev:gpu0", "k2", "kernel", 0.0, 2.0)
    t.record("dev:cpu", "k3", "kernel", 1.0, 1.5)
    t.record("link:pcie", "x1", "transfer", 0.5, 0.9, {"bytes": 100})
    t.record("dev:gpu0", "p1", "profile-kernel", 2.0, 2.7)
    return t


def test_len(trace):
    assert len(trace) == 5


def test_filter_by_resource(trace):
    assert len(trace.filter(resource="dev:cpu")) == 2


def test_filter_by_category(trace):
    assert len(trace.filter(category="kernel")) == 3


def test_filter_combined(trace):
    ivs = trace.filter(resource="dev:gpu0", category="kernel")
    assert len(ivs) == 1 and ivs[0].task == "k2"


def test_filter_predicate(trace):
    ivs = trace.filter(predicate=lambda iv: iv.duration > 0.9)
    assert {iv.task for iv in ivs} == {"k1", "k2"}


def test_total_time(trace):
    assert trace.total_time(category="kernel") == pytest.approx(3.5)
    assert trace.total_time("dev:cpu") == pytest.approx(1.5)


def test_count(trace):
    assert trace.count(category="transfer") == 1


def test_resources_and_categories_sorted(trace):
    assert trace.resources() == ["dev:cpu", "dev:gpu0", "link:pcie"]
    assert trace.categories() == ["kernel", "profile-kernel", "transfer"]


def test_by_resource(trace):
    by = trace.by_resource(category="kernel")
    assert by == {"dev:cpu": pytest.approx(1.5), "dev:gpu0": pytest.approx(2.0)}


def test_counts_by_resource(trace):
    assert trace.counts_by_resource(category="kernel") == {
        "dev:cpu": 2,
        "dev:gpu0": 1,
    }


def test_between_uses_start_time(trace):
    ivs = trace.between(0.5, 1.5)
    assert {iv.task for iv in ivs} == {"x1", "k3"}


def test_meta_preserved(trace):
    iv = trace.filter(category="transfer")[0]
    assert iv.meta["bytes"] == 100


def test_marks():
    t = Trace()
    t.mark(1.0, "epoch:1")
    t.mark(2.0, "epoch:2")
    assert t.marks == [(1.0, "epoch:1"), (2.0, "epoch:2")]


def test_clear_forgets_everything_recorded(trace):
    """A cleared trace answers every query as a fresh one does, and keeps
    counting what is recorded after it."""
    trace.total_time()  # fold the intervals first
    trace.mark(1.0, "epoch:1")
    seen = []
    trace.add_fold(seen.extend)
    trace.clear()
    assert (len(trace), trace.marks, trace.total_time(), trace.resources()) == (
        0, [], 0.0, []
    )
    trace.record("dev:cpu", "k4", "kernel", 3.0, 3.5)
    assert trace.total_time(category="kernel") == pytest.approx(0.5)
    assert trace.counts_by_resource() == {"dev:cpu": 1}
    assert [iv.task for iv in seen] == ["k1", "k2", "k3", "x1", "p1", "k4"]


def test_interval_duration():
    iv = TraceInterval("r", "t", "c", 1.0, 3.5)
    assert iv.duration == pytest.approx(2.5)


def test_extend():
    t = Trace()
    t.extend([TraceInterval("r", "t", "c", 0.0, 1.0)])
    assert len(t) == 1


# ---------------------------------------------------------------------------
# Fold consistency: the lazily folded aggregates must answer every query
# identically to a straight linear scan, at every point of an interleaved
# record/query/extend sequence.
# ---------------------------------------------------------------------------


class _LinearScanTrace:
    """Reference implementation: every query is a full O(n) scan."""

    def __init__(self):
        self.intervals = []

    def record(self, resource, task, category, start, end, meta=None):
        self.intervals.append(
            TraceInterval(resource, task, category, start, end, meta or {})
        )

    def extend(self, intervals):
        self.intervals.extend(intervals)

    def filter(self, resource=None, category=None):
        return [
            iv
            for iv in self.intervals
            if (resource is None or iv.resource == resource)
            and (category is None or iv.category == category)
        ]

    def total_time(self, resource=None, category=None):
        return sum(iv.duration for iv in self.filter(resource, category))

    def count(self, resource=None, category=None):
        return len(self.filter(resource, category))

    def resources(self):
        return sorted({iv.resource for iv in self.intervals})

    def categories(self):
        return sorted({iv.category for iv in self.intervals})

    def by_resource(self, category=None):
        out = {}
        for iv in self.filter(category=category):
            out[iv.resource] = out.get(iv.resource, 0.0) + iv.duration
        return out

    def counts_by_resource(self, category=None):
        out = {}
        for iv in self.filter(category=category):
            out[iv.resource] = out.get(iv.resource, 0) + 1
        return out


def _assert_matches_reference(trace, ref):
    resources = ref.resources()
    categories = ref.categories()
    assert trace.resources() == resources
    assert trace.categories() == categories
    assert len(trace) == len(ref.intervals)
    for r in resources + [None, "never-seen"]:
        for c in categories + [None, "never-seen"]:
            assert trace.filter(resource=r, category=c) == ref.filter(r, c), (
                f"filter mismatch for resource={r!r} category={c!r}"
            )
            assert trace.total_time(resource=r, category=c) == pytest.approx(
                ref.total_time(r, c)
            )
            assert trace.count(resource=r, category=c) == ref.count(r, c)
    for c in categories + [None]:
        assert trace.by_resource(category=c) == pytest.approx(
            ref.by_resource(category=c)
        )
        assert trace.counts_by_resource(category=c) == ref.counts_by_resource(
            category=c
        )


def test_indexes_match_linear_scan_under_interleaving():
    """Record bursts interleaved with queries and bulk extends: the folded
    trace must agree with the reference scan after every burst (queries must
    not miss intervals appended since the previous catch-up)."""
    trace = Trace()
    ref = _LinearScanTrace()
    resources = ["dev:cpu", "dev:gpu0", "dev:gpu1", "link:pcie"]
    categories = ["kernel", "transfer", "profile-kernel", "migration"]
    t = 0.0
    n = 0
    for burst, size in enumerate((7, 1, 13, 4, 29, 2)):
        for _ in range(size):
            r = resources[n % len(resources)]
            c = categories[(n * 5 + burst) % len(categories)]
            dur = 0.25 + (n % 6) * 0.125
            for tr in (trace, ref):
                tr.record(r, f"t{n}", c, t, t + dur, {"i": n})
            t += dur * 0.5
            n += 1
        # A bulk extend in the middle exercises the non-record append path.
        if burst == 2:
            batch = [
                TraceInterval("dev:ext", f"b{i}", "kernel", t + i, t + i + 0.5)
                for i in range(3)
            ]
            trace.extend(batch)
            ref.extend(batch)
        _assert_matches_reference(trace, ref)
    # Queries on a fully-caught-up trace, then one more append: the next
    # query must pick up the straggler.
    trace.record("dev:cpu", "last", "kernel", t, t + 1.0)
    ref.record("dev:cpu", "last", "kernel", t, t + 1.0)
    _assert_matches_reference(trace, ref)


# ---------------------------------------------------------------------------
# between() must answer identically to the linear-scan reference, in
# recording order, including with starts out of recording order.
# ---------------------------------------------------------------------------


def _between_reference(intervals, t0, t1):
    return [iv for iv in intervals if t0 <= iv.start < t1]


def _build_unsorted_start_trace(n):
    """Record order != start order: long tasks started early finish late."""
    trace = Trace()
    recorded = []
    for i in range(n):
        # Starts bounce around: 0.0, 9.7, 0.2, 9.5, ... (not monotone).
        start = (9.7 - 0.2 * i) if i % 2 else 0.1 * i
        iv = TraceInterval(f"dev:{i % 3}", f"t{i}", "kernel", start, start + 0.3)
        trace.record(iv.resource, iv.task, iv.category, iv.start, iv.end)
        recorded.append(iv)
    return trace, recorded


def test_between_bisect_matches_linear_scan_golden():
    trace, recorded = _build_unsorted_start_trace(120)
    windows = [
        (0.0, 12.0),   # everything
        (2.0, 5.0),
        (4.999, 5.0),  # half-open: start == t1 excluded
        (5.0, 5.0),    # empty window
        (-3.0, 0.05),
        (11.0, 50.0),
        (0.3, 9.31),
    ]
    for t0, t1 in windows:
        assert trace.between(t0, t1) == _between_reference(recorded, t0, t1)


def test_between_index_rebuilds_after_appends():
    trace, recorded = _build_unsorted_start_trace(80)
    before = trace.between(0.0, 100.0)
    assert before == _between_reference(recorded, 0.0, 100.0)
    # Append more with starts far earlier than everything resident: a query
    # answered from state built before the appends would miss them.
    for i in range(10):
        iv = TraceInterval("dev:new", f"n{i}", "kernel", -50.0 - i, -49.5 - i)
        trace.record(iv.resource, iv.task, iv.category, iv.start, iv.end)
        recorded.append(iv)
    assert trace.between(-100.0, -40.0) == _between_reference(
        recorded, -100.0, -40.0
    )
    assert trace.between(0.0, 100.0) == before


def test_between_small_trace_uses_same_semantics(trace):
    # Same half-open contract on a tiny trace.
    assert trace.between(0.0, 1.0) == _between_reference(list(trace), 0.0, 1.0)
    assert trace.between(1.0, 1.0) == []


# ---------------------------------------------------------------------------
# Streaming sink: flat resident memory, exact whole-run aggregates.
# ---------------------------------------------------------------------------


class _CollectingSink(TraceSink):
    def __init__(self):
        self.batches = []
        self.closed = False

    def consume(self, intervals):
        self.batches.append(intervals)

    def close(self):
        self.closed = True


def _record_n(trace, n, offset=0):
    for i in range(offset, offset + n):
        trace.record(f"dev:{i % 2}", f"t{i}", "kernel", float(i), i + 0.5)


def test_attach_sink_validation():
    trace = Trace()
    with pytest.raises(ValueError, match="spill_every"):
        trace.attach_sink(_CollectingSink(), spill_every=0)
    trace.attach_sink(_CollectingSink(), spill_every=4)
    with pytest.raises(ValueError, match="already has a sink"):
        trace.attach_sink(_CollectingSink())


def test_streaming_spills_keep_resident_bounded():
    trace = Trace()
    sink = _CollectingSink()
    trace.attach_sink(sink, spill_every=8)
    _record_n(trace, 30)
    assert len(trace) < 8  # resident tail never reaches the threshold
    assert trace.spilled_count == 24
    assert trace.total_recorded == 30
    assert [len(b) for b in sink.batches] == [8, 8, 8]
    # Nothing lost and nothing duplicated, in recording order.
    spilled_tasks = [iv.task for b in sink.batches for iv in b]
    resident_tasks = [iv.task for iv in trace]
    assert spilled_tasks + resident_tasks == [f"t{i}" for i in range(30)]


def test_streaming_aggregates_stay_exact_across_spills():
    streaming, resident = Trace(), Trace()
    streaming.attach_sink(_CollectingSink(), spill_every=5)
    for t in (streaming, resident):
        _record_n(t, 43)
    # Whole-run accounting answers identically even though the streaming
    # trace only holds the tail resident.
    assert streaming.total_time() == pytest.approx(resident.total_time())
    assert streaming.count() == resident.count() == 43
    assert streaming.by_resource() == pytest.approx(resident.by_resource())
    assert streaming.counts_by_resource() == resident.counts_by_resource()
    assert streaming.resources() == resident.resources()
    assert streaming.categories() == resident.categories()
    assert streaming.total_time("dev:0", "kernel") == pytest.approx(
        resident.total_time("dev:0", "kernel")
    )
    # Per-interval queries cover the resident tail only, by contract.
    assert len(streaming) < 5 < len(resident)


def test_streaming_spill_after_queries_preserves_aggregates():
    # A query between spills indexes the resident prefix; the next spill
    # must not double-count those already-aggregated intervals.
    trace = Trace()
    trace.attach_sink(_CollectingSink(), spill_every=10)
    _record_n(trace, 7)
    assert trace.count() == 7  # forces indexing of the resident 7
    _record_n(trace, 7, offset=7)  # crosses the threshold -> spill
    assert trace.spilled_count >= 10
    assert trace.count() == 14
    assert trace.total_time() == pytest.approx(0.5 * 14)


def test_flush_spills_tail_and_close_is_callers_job():
    trace = Trace()
    sink = _CollectingSink()
    trace.attach_sink(sink, spill_every=100)
    _record_n(trace, 9)
    assert trace.spilled_count == 0
    trace.flush()
    assert trace.spilled_count == 9
    assert len(trace) == 0
    assert trace.total_recorded == 9
    trace.flush()  # idempotent on an empty tail
    assert trace.spilled_count == 9
    assert not sink.closed
    sink.close()
    assert sink.closed


def test_flush_noop_without_sink(trace):
    trace.flush()
    assert len(trace) == 5
    assert trace.spilled_count == 0
    assert trace.total_recorded == 5


def test_extend_triggers_spill():
    trace = Trace()
    sink = _CollectingSink()
    trace.attach_sink(sink, spill_every=4)
    trace.extend(
        TraceInterval("r", f"t{i}", "c", float(i), i + 1.0) for i in range(6)
    )
    assert trace.spilled_count == 6
    assert len(trace) == 0
    assert trace.count() == 6

"""Timeline tracing for simulated runs.

The trace records one :class:`TraceInterval` per completed task: which
resource served it, what category of work it was, and when.  The evaluation
harness uses this to reproduce the paper's accounting figures — kernel→device
distributions (Fig. 5), profiling-overhead breakdowns (Figs. 6–8), and
per-iteration timelines (Fig. 10) — without instrumenting the runtime itself.

Storage is *one list plus one fold*: :meth:`Trace.record` (the engine's
hottest call — once per completed task) is a bare list append, and
:meth:`Trace._catch_up` folds the intervals appended since the last fold,
in recording order, into running ``(resource, category) → (seconds,
count)`` aggregates and hands the same batch to every consumer registered
with :meth:`Trace.add_fold` (per-tenant telemetry is one).  Each interval is
folded exactly once, before any spill drops it, so whole-run totals and
every consumer stay exact on a streaming trace.  Per-interval queries
(:meth:`Trace.filter`, :meth:`Trace.between`) are plain scans of the
in-memory list.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

__all__ = ["TraceInterval", "Trace", "TraceSink", "FAULT_CATEGORY", "RECOVERY_CATEGORY"]

#: Shared default for metadata-free intervals.  Immutable on purpose: the
#: previous plain ``{}`` class default was aliased by *every*
#: default-constructed interval, so one in-place mutation (e.g. a tag added
#: post hoc) silently polluted all of them.  A read-only mapping keeps
#: ``.get()``/iteration working and turns that aliasing bug into a loud
#: ``TypeError``; callers wanting per-interval metadata pass their own dict.
EMPTY_META: Mapping[str, Any] = MappingProxyType({})

#: Category for injected faults and work lost to them (device failures,
#: transient slowdown windows, link outages, aborted partial executions).
FAULT_CATEGORY = "fault"
#: Category for recovery actions (command replays, queue remaps, backoff).
RECOVERY_CATEGORY = "recovery"

_tuple_new = tuple.__new__


class TraceInterval(NamedTuple):
    """One served task on one resource.

    A named tuple (constructed ~once per simulated task): treat instances —
    including the ``meta`` mapping, which is stored without a defensive copy
    — as immutable.  Metadata-free intervals share the read-only
    :data:`EMPTY_META` sentinel, so they cannot alias mutable state.
    """

    resource: str
    task: str
    category: str
    start: float
    end: float
    meta: Mapping[str, Any] = EMPTY_META

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceSink:
    """Consumer of spilled interval batches from a streaming :class:`Trace`.

    Attach one with :meth:`Trace.attach_sink` and the trace stops holding
    every interval resident: whenever the resident tail reaches the spill
    threshold it is handed — as one list, ownership transferred — to
    :meth:`consume`.  Implementations fold the batch into whatever compact
    summary they maintain (latency histograms, per-category totals) or
    append it to disk (:class:`~repro.sim.export.JsonlTraceSink`), keeping
    host memory flat at millions of intervals.
    """

    def consume(self, intervals: List[TraceInterval]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (files); called by the owner."""


class Trace:
    """Append-only collection of :class:`TraceInterval` with one fold.

    Mutations (:meth:`record` / :meth:`extend`) only append to the list;
    aggregate queries and fold consumers first run :meth:`_catch_up`, which
    folds the not-yet-folded tail exactly once.

    With a sink attached (:meth:`attach_sink`) the trace runs in
    *streaming* mode: intervals beyond the spill threshold are folded — so
    :meth:`total_time` / :meth:`count` / :meth:`by_resource` /
    :meth:`counts_by_resource` / :meth:`resources` / :meth:`categories` and
    every :meth:`add_fold` consumer stay exact over the whole run — and then
    handed to the sink and dropped.  Per-interval queries (:meth:`filter`,
    :meth:`between`, iteration, ``len``) cover only the resident tail in
    that mode; :attr:`total_recorded` counts everything ever recorded.
    """

    def __init__(self) -> None:
        self._intervals: List[TraceInterval] = []
        #: monotonically increasing marks: (time, label); used to delimit
        #: program phases such as iterations or synchronization epochs.
        self.marks: List[tuple] = []
        #: (resource, category) -> [summed seconds, interval count]
        self._aggregates: Dict[Tuple[str, str], List[float]] = {}
        # _intervals[:_folded] are already folded.
        self._folded = 0
        self._folds: List[Callable[[List[TraceInterval]], None]] = []
        # Streaming mode (attach_sink): spill threshold (0 = resident
        # trace, the default) and intervals handed to the sink so far.
        self._sink: Optional[TraceSink] = None
        self._spill_at = 0
        self._spilled = 0

    def record(
        self,
        resource: str,
        task: str,
        category: str,
        start: float,
        end: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        # Hot path: one tuple construction + one append, the tuple built
        # with ``tuple.__new__`` (the named tuple's own ``__new__`` is a
        # Python frame).  The meta dict is stored as given (callers hand
        # over ownership); a ``None`` sentinel normalises to the shared
        # immutable empty mapping.  Folding happens lazily at the next query.
        self._intervals.append(
            _tuple_new(TraceInterval, (resource, task, category, start, end,
                                       meta if meta is not None else EMPTY_META))
        )
        if self._spill_at and len(self._intervals) >= self._spill_at:
            self._spill()

    def add_fold(self, fn: Callable[[List[TraceInterval]], None]) -> None:
        """Register ``fn`` to receive every interval batch the fold sees.

        ``fn`` is first handed the intervals still held in memory, so a
        consumer registered late matches one present from the start on a
        resident trace; from then on it receives each newly folded batch
        in recording order, including every batch before it spills.
        """
        self._catch_up()
        fn(self._intervals[:])
        self._folds.append(fn)

    # ------------------------------------------------------------------
    # Streaming sink
    # ------------------------------------------------------------------
    def attach_sink(self, sink: TraceSink, spill_every: int = 16384) -> None:
        """Switch to streaming mode: spill to ``sink`` every ``spill_every``
        intervals.

        The running aggregates and fold consumers keep covering spilled
        intervals, so whole-run totals remain exact; per-interval queries
        are restricted to the resident (not yet spilled) tail from here on.
        """
        if spill_every < 1:
            raise ValueError(f"spill_every must be >= 1, got {spill_every}")
        if self._sink is not None:
            raise ValueError("trace already has a sink attached")
        self._sink = sink
        self._spill_at = int(spill_every)

    def _spill(self) -> None:
        """Fold the resident intervals, then hand them to the sink and drop
        them."""
        self._catch_up()
        intervals = self._intervals
        if not intervals:
            return
        self._spilled += len(intervals)
        self._intervals = []
        self._folded = 0
        assert self._sink is not None
        self._sink.consume(intervals)

    def flush(self) -> None:
        """Spill any resident intervals to the sink regardless of threshold
        (no-op on a resident trace)."""
        if self._sink is not None:
            self._spill()

    @property
    def spilled_count(self) -> int:
        """Intervals handed to the sink so far (0 on a resident trace)."""
        return self._spilled

    @property
    def total_recorded(self) -> int:
        """All intervals ever recorded: resident tail + spilled."""
        return self._spilled + len(self._intervals)

    def _catch_up(self) -> None:
        """Fold intervals appended since the last fold into the aggregates
        and every :meth:`add_fold` consumer."""
        intervals = self._intervals
        if self._folded == len(intervals):
            return
        batch = intervals[self._folded:]
        self._folded = len(intervals)
        aggregates = self._aggregates
        for iv in batch:
            key = (iv.resource, iv.category)
            agg = aggregates.get(key)
            if agg is None:
                aggregates[key] = [iv.end - iv.start, 1]
            else:
                agg[0] += iv.end - iv.start
                agg[1] += 1
        for fn in self._folds:
            fn(batch)

    def clear(self) -> None:
        """Forget every interval, mark and aggregate: a finished run's
        objects form cycles, so only a full collection would free its trace
        otherwise.  Fold consumers receive later intervals only."""
        self._intervals = []
        self._folded = 0
        self._aggregates = {}
        self.marks = []

    def mark(self, time: float, label: str) -> None:
        """Record a named instant (e.g. ``"iteration:3"``)."""
        self.marks.append((time, label))

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[TraceInterval]:
        return iter(self._intervals)

    def filter(
        self,
        resource: Optional[str] = None,
        category: Optional[str] = None,
        predicate: Optional[Callable[[TraceInterval], bool]] = None,
    ) -> List[TraceInterval]:
        """Select intervals by resource and/or category and/or predicate,
        in recording order."""
        return [
            iv
            for iv in self._intervals
            if (resource is None or iv.resource == resource)
            and (category is None or iv.category == category)
            and (predicate is None or predicate(iv))
        ]

    def total_time(
        self, resource: Optional[str] = None, category: Optional[str] = None
    ) -> float:
        """Sum of durations matching the filters (O(distinct pairs))."""
        return self._sum_aggregates(resource, category, 0)

    def count(
        self, resource: Optional[str] = None, category: Optional[str] = None
    ) -> int:
        """Number of intervals matching the filters (O(distinct pairs))."""
        return int(self._sum_aggregates(resource, category, 1))

    def _sum_aggregates(
        self, resource: Optional[str], category: Optional[str], slot: int
    ) -> float:
        self._catch_up()
        if resource is not None and category is not None:
            agg = self._aggregates.get((resource, category))
            return agg[slot] if agg is not None else 0.0
        total = 0.0
        for (r, c), agg in self._aggregates.items():
            if resource is not None and r != resource:
                continue
            if category is not None and c != category:
                continue
            total += agg[slot]
        return total

    def resources(self) -> List[str]:
        """Sorted list of distinct resource names seen."""
        self._catch_up()
        return sorted({r for r, _ in self._aggregates})

    def categories(self) -> List[str]:
        """Sorted list of distinct categories seen."""
        self._catch_up()
        return sorted({c for _, c in self._aggregates})

    def by_resource(self, category: Optional[str] = None) -> Dict[str, float]:
        """Map resource name -> total busy seconds (optionally per category)."""
        self._catch_up()
        out: Dict[str, float] = {}
        for (r, c), agg in self._aggregates.items():
            if category is not None and c != category:
                continue
            out[r] = out.get(r, 0.0) + agg[0]
        return out

    def counts_by_resource(self, category: Optional[str] = None) -> Dict[str, int]:
        """Map resource name -> number of served tasks (optionally per category)."""
        self._catch_up()
        out: Dict[str, int] = {}
        for (r, c), agg in self._aggregates.items():
            if category is not None and c != category:
                continue
            out[r] = out.get(r, 0) + int(agg[1])
        return out

    def between(self, t0: float, t1: float) -> List[TraceInterval]:
        """Intervals whose *start* falls within ``[t0, t1)``, in recording
        order (starts are not sorted: a long task started early can finish,
        and thus be recorded, late).  In streaming mode the window covers
        the resident tail only."""
        return [iv for iv in self._intervals if t0 <= iv.start < t1]

    def extend(self, intervals: Iterable[TraceInterval]) -> None:
        """Bulk-append intervals (used when merging traces in tests)."""
        self._intervals.extend(intervals)
        if self._spill_at and len(self._intervals) >= self._spill_at:
            self._spill()

"""Discrete-event engine and task graph.

The engine owns simulated time (:attr:`SimEngine.now`), a time-ordered
event heap, and FIFO service on
:class:`~repro.sim.resources.FifoResource` records.  Work is expressed as
:class:`SimTask` objects: a task has a fixed *duration*, an optional
*resource* it must be served by (FIFO, one task at a time), and a set of
*dependencies* (other tasks) that must complete before it may start.
Tasks without a resource model host-side latencies: they start as soon as
their dependencies complete and occupy no shared resource.

This is the only place simulated time advances; everything above (the OpenCL
layer, the MultiCL scheduler, the workloads) expresses costs as task durations
and lets the engine order them.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.trace import EMPTY_META, Trace, TraceInterval

__all__ = ["SimTask", "SimEngine", "SimError"]

_heappush = heapq.heappush
_heappop = heapq.heappop
#: Builds a TraceInterval from its six fields without the named tuple's
#: Python-level ``__new__`` frame (one per completed task).
_tuple_new = tuple.__new__
_INF = float("inf")


class SimError(RuntimeError):
    """Raised on invalid engine usage (cycles, double submission, ...)."""


#: Task lifecycle states.
_PENDING = "pending"  # created, not yet submitted
#: Shared metadata mapping for tasks created without meta.  Read-only (it
#: also flows into TraceInterval.meta): an in-place mutation raises instead
#: of silently polluting every metadata-free task and trace interval.
_EMPTY_META: Dict[str, Any] = EMPTY_META  # type: ignore[assignment]
_WAITING = "waiting"  # submitted, waiting on dependencies
_READY = "ready"  # dependencies met, queued on its resource
_RUNNING = "running"  # in service
_DONE = "done"
_ABORTED = "aborted"  # cancelled by fault injection; may have a replacement


class SimTask:
    """A unit of simulated work.

    Parameters
    ----------
    name:
        Human-readable identifier (shows up in traces).
    duration:
        Service time in simulated seconds.  Must be non-negative.
    resource:
        Optional :class:`~repro.sim.resources.FifoResource`; when ``None``
        the task runs "in the air" (host-side latency) without queueing.
    deps:
        Tasks that must complete before this one starts.  Kept as given,
        not copied; :meth:`SimEngine.submit` reads it once and then drops
        it, so a finished task never keeps the graph behind it alive.
    category:
        Free-form label used by the trace for time accounting, e.g.
        ``"kernel"``, ``"transfer"``, ``"profile"``.
    meta:
        Arbitrary metadata propagated to the trace (kernel names, sizes...).
        Kept as given, not copied: callers hand over a dict they no longer
        mutate.
    """

    __slots__ = (
        "name",
        "duration",
        "resource",
        "deps",
        "category",
        "meta",
        "state",
        "start_time",
        "end_time",
        "_unmet",
        "_dependents",
        "_callbacks",
        "replacement",
        "released_deps",
    )

    def __init__(
        self,
        name: str,
        duration: float,
        resource: Optional["FifoResource"] = None,  # noqa: F821
        deps: Optional[Sequence["SimTask"]] = None,
        category: str = "work",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not duration >= 0.0:  # also rejects NaN
            raise SimError(f"task {name!r} has invalid duration {duration!r}")
        self.name = name
        self.duration = float(duration)
        self.resource = resource
        self.deps: Sequence[SimTask] = deps if deps else ()
        self.category = category
        # Shared sentinel for the metadata-free common case; treated as
        # read-only (callers wanting task-local metadata pass a dict).
        self.meta: Dict[str, Any] = meta if meta else _EMPTY_META
        self.state = _PENDING
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._unmet = 0
        # Lazily allocated (None == empty): most tasks never gain waiters
        # or completion callbacks, so skip two list allocations per task.
        self._dependents: Optional[List[SimTask]] = None
        self._callbacks: Optional[List[Callable[["SimTask"], None]]] = None
        #: When a fault aborts this task and the owning command is replayed,
        #: points at the replacement incarnation (waiters follow the chain).
        self.replacement: Optional["SimTask"] = None
        #: Aborted with dependents released (orphaned work with no replay):
        #: new dependency edges treat this task as satisfied.
        self.released_deps = False

    @property
    def done(self) -> bool:
        return self.state == _DONE

    @property
    def aborted(self) -> bool:
        return self.state == _ABORTED

    def on_complete(self, fn: Callable[["SimTask"], None]) -> None:
        """Register ``fn(task)`` to run when the task completes.

        If the task is already done the callback fires immediately.
        """
        if self.done:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimTask({self.name!r}, dur={self.duration:.3g}, "
            f"state={self.state}, start={self.start_time}, end={self.end_time})"
        )


class SimEngine:
    """Event heap + simulated time + FIFO service.

    Event entries are ``(time, seq, fn, arg)`` tuples; internal task
    completions carry the task itself as ``arg`` (calling ``fn(arg)``)
    instead of closing a fresh lambda over it, which keeps the per-task
    dispatch cost to one tuple allocation.  ``arg is None`` marks a plain
    user callback registered through :meth:`schedule_at`.  ``seq`` is
    unique, so comparing two entries as tuples never reaches ``fn``.

    :attr:`now` is a plain attribute that only the run loops write: events
    pop in non-decreasing time order, and every entry point refuses a time
    that is not ``>= now`` (NaN included), so it never moves backwards.
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        #: Current simulated time (seconds).
        self.now = 0.0
        self.trace = trace if trace is not None else Trace()
        self._heap: List[Tuple[float, int, Callable[..., None], Optional[Any]]] = []
        self._seq = itertools.count()
        self._open_tasks = 0
        # Depth guard for the zero-duration inline-finish fast path: long
        # chains of zero-cost host tasks fall back to the heap instead of
        # recursing without bound.
        self._inline_depth = 0
        # Cached bound method: completion events all dispatch here, and
        # binding it once avoids a method-object allocation per task.
        self._finish_cb = self._finish

    # ------------------------------------------------------------------
    # Low-level event scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute simulated ``time`` (>= now)."""
        if not time >= self.now:  # also rejects NaN
            raise SimError(f"cannot schedule event at {time} (now {self.now})")
        _heappush(self._heap, (float(time), next(self._seq), fn, None))

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds."""
        if not delay >= 0.0:
            raise SimError(f"invalid delay {delay!r}")
        self.schedule_at(self.now + delay, fn)

    def schedule_batch(
        self,
        events: Iterable[Tuple[float, Callable[..., None], Optional[Any]]],
    ) -> int:
        """Schedule many ``(time, fn, arg)`` events in one pass; return count.

        This is the service replay's injection path: an epoch of arrivals
        lands at once instead of through per-event :meth:`schedule_at`
        calls.  Sequence numbers follow input order, as one
        :meth:`schedule_at` per event would give them.  The whole batch is
        validated before any of it is queued, so a refused batch queues
        nothing.

        ``arg`` follows the internal event convention: ``None`` means
        ``fn()``, anything else means ``fn(arg)`` — so batch events can
        carry a payload without closing a lambda over it.
        """
        now = self.now
        seq = self._seq
        entries = []
        for time, fn, arg in events:
            time = float(time)
            if not time >= now:  # also rejects NaN
                raise SimError(f"cannot schedule event at {time} (now {now})")
            entries.append((time, next(seq), fn, arg))
        heap = self._heap
        for entry in entries:
            _heappush(heap, entry)
        return len(entries)

    # ------------------------------------------------------------------
    # Task API
    # ------------------------------------------------------------------
    def submit(self, task: SimTask) -> SimTask:
        """Submit ``task`` for execution once its dependencies complete."""
        if task.state != _PENDING:
            raise SimError(f"task {task.name!r} submitted twice")
        self._open_tasks += 1
        deps = task.deps
        # The edges registered below are all the engine needs: drop the
        # list so the task does not keep its predecessors alive.
        task.deps = ()
        task.state = _WAITING
        unmet = 0
        for dep in deps:
            # A dependency aborted by fault injection resolves through its
            # replacement chain (the replayed incarnation); an orphaned
            # abort with released dependents counts as satisfied.
            while dep.state == _ABORTED and dep.replacement is not None:
                dep = dep.replacement
            if dep.done:
                continue
            if dep.state == _ABORTED and dep.released_deps:
                continue
            if dep.state == _PENDING:
                raise SimError(
                    f"task {task.name!r} depends on unsubmitted task {dep.name!r}"
                )
            # An aborted dep not yet replayed still collects dependents:
            # adopt() transfers them to the replacement when it appears.
            if dep._dependents is None:
                dep._dependents = [task]
            else:
                dep._dependents.append(task)
            unmet += 1
        task._unmet = unmet
        if unmet == 0:
            self._make_ready(task)
        return task

    def task(
        self,
        name: str,
        duration: float,
        resource: Optional["FifoResource"] = None,  # noqa: F821
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "work",
        meta: Optional[Dict[str, Any]] = None,
    ) -> SimTask:
        """Create *and submit* a task in one call.

        Zero or one dependency is resolved here, with :meth:`submit`,
        :meth:`_make_ready` and :meth:`_start` folded in (a freshly created
        task cannot be a double submission); longer dependency lists go
        through :meth:`submit`.
        """
        if deps and len(deps) != 1:
            return self.submit(SimTask(name, duration, resource, deps, category, meta))
        # A single edge is registered below, so the task keeps no deps list.
        task = SimTask(name, duration, resource, None, category, meta)
        self._open_tasks += 1
        if deps:
            # Same resolution as submit(): follow the replacement chain; a
            # done dependency or an orphaned abort with released dependents
            # counts as satisfied.
            dep = deps[0]
            while dep.state == _ABORTED and dep.replacement is not None:
                dep = dep.replacement
            state = dep.state
            if state != _DONE and not (state == _ABORTED and dep.released_deps):
                if state == _PENDING:
                    raise SimError(
                        f"task {name!r} depends on unsubmitted task {dep.name!r}"
                    )
                task.state = _WAITING
                task._unmet = 1
                if dep._dependents is None:
                    dep._dependents = [task]
                else:
                    dep._dependents.append(task)
                return task
        task.state = _READY
        if resource is None:
            self._begin(task)
        elif resource._busy is None:
            # Free server: begin service now (_start and _begin inlined; a
            # resource task never finishes inline).
            resource._busy = task
            task.state = _RUNNING
            now = self.now
            task.start_time = now
            _heappush(
                self._heap,
                (now + task.duration, next(self._seq), self._finish_cb, task),
            )
        else:
            resource._queue.append(task)
        return task

    # A resource's server is free exactly when its queue is empty too: a
    # task only queues behind one in service, and whatever frees the
    # server (_finish, abort) starts the queue's head at once.
    def _make_ready(self, task: SimTask) -> None:
        """Dependencies met: start ``task`` now, or queue it on its busy
        resource."""
        task.state = _READY
        resource = task.resource
        if resource is None:
            self._begin(task)
        elif resource._busy is None:
            self._start(resource, task)
        else:
            resource._queue.append(task)

    def _start(self, resource: "FifoResource", task: SimTask) -> None:  # noqa: F821
        """Put ``task`` into service on the free server ``resource``."""
        resource._busy = task
        self._begin(task)

    def _begin(self, task: SimTask) -> None:
        """Start service for a ready task (resource already acquired)."""
        task.state = _RUNNING
        now = self.now
        task.start_time = now
        duration = task.duration
        if duration == 0.0 and task.resource is None and self._inline_depth < 64:
            # Zero-duration host task: completing it cannot advance the
            # clock or overtake any pending event's *time*, so finish
            # inline instead of round-tripping through the heap.
            self._inline_depth += 1
            try:
                self._finish(task)
            finally:
                self._inline_depth -= 1
            return
        # Internal scheduling: end >= now by construction, so skip the
        # past-time validation and lambda closure of schedule_at.
        _heappush(
            self._heap, (now + duration, next(self._seq), self._finish_cb, task)
        )

    def _release(self, task: SimTask) -> None:
        """Count ``task`` as met for each of its waiters; make ready those
        left with no unmet dependency."""
        for dep in task._dependents or ():
            dep._unmet -= 1
            if dep._unmet == 0 and dep.state == _WAITING:
                self._make_ready(dep)

    def _finish(self, task: SimTask) -> None:
        if task.state == _ABORTED:
            # Stale completion event of a task cancelled by fault injection.
            return
        task.state = _DONE
        now = self.now
        task.end_time = now
        self._open_tasks -= 1
        resource = task.resource
        start = task.start_time
        # Equivalent to self.trace.record(...), with the call layers peeled
        # off: Trace.record is a bare append by contract (lazy fold).
        trace = self.trace
        intervals = trace._intervals
        intervals.append(
            _tuple_new(
                TraceInterval,
                (
                    resource.name if resource is not None else "host",
                    task.name,
                    task.category,
                    start if start is not None else now,
                    now,
                    task.meta,
                ),
            )
        )
        # Streaming mode: once the resident tail reaches the spill
        # threshold, hand it to the attached sink.  ``_spill_at`` is 0
        # (falsy) on a plain resident trace, so the default path pays one
        # attribute load and a truthiness check.
        if trace._spill_at and len(intervals) >= trace._spill_at:
            trace._spill()
        heap = self._heap
        seq = self._seq
        finish_cb = self._finish_cb
        if resource is not None:
            # Free the server and start the next queued task (_start
            # inlined).
            queue = resource._queue
            if queue:
                nxt = queue.popleft()
                resource._busy = nxt
                nxt.state = _RUNNING
                nxt.start_time = now
                _heappush(heap, (now + nxt.duration, next(seq), finish_cb, nxt))
            else:
                resource._busy = None
        if task._dependents:
            for dep in task._dependents:
                dep._unmet -= 1
                if dep._unmet == 0 and dep.state == _WAITING:
                    # _make_ready and _start inlined.
                    dep.state = _READY
                    res = dep.resource
                    if res is None:
                        self._begin(dep)
                    elif res._busy is None:
                        res._busy = dep
                        dep.state = _RUNNING
                        # Read afresh, as _begin does: a callback of a
                        # dependent finished inline above may run the engine.
                        begin = self.now
                        dep.start_time = begin
                        _heappush(
                            heap, (begin + dep.duration, next(seq), finish_cb, dep)
                        )
                    else:
                        res._queue.append(dep)
            task._dependents = None
        if task._callbacks:
            callbacks, task._callbacks = task._callbacks, None
            for fn in callbacks:
                fn(task)

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def abort(self, task: SimTask, release_dependents: bool = False) -> bool:
        """Cancel a submitted, unfinished task (fault injection).

        A task in service is pulled off its resource, whose next queued
        task starts at once, and the lost partial work is recorded in the
        trace under the ``fault`` category.  With ``release_dependents``
        the task counts as satisfied for its waiters (used for orphaned
        work like profiling launches on a dead device); without it the
        caller is expected to :meth:`adopt` a replacement task so waiters
        can follow the replay.  Returns ``False`` if the task already
        completed or was already aborted.
        """
        state = task.state
        if state in (_DONE, _ABORTED):
            return False
        if state == _PENDING:
            raise SimError(f"cannot abort unsubmitted task {task.name!r}")
        resource = task.resource
        if state == _READY and resource is not None:
            resource._queue.remove(task)
        elif state == _RUNNING:
            now = self.now
            if task.start_time is not None and now > task.start_time:
                self.trace.record(
                    resource=resource.name if resource is not None else "host",
                    task=f"lost:{task.name}",
                    category="fault",
                    start=task.start_time,
                    end=now,
                    meta={**task.meta, "aborted": True},
                )
            if resource is not None:
                resource._busy = None
                if resource._queue:
                    self._start(resource, resource._queue.popleft())
        task.state = _ABORTED
        self._open_tasks -= 1
        if release_dependents:
            task.released_deps = True
            self._release(task)
            task._dependents = None
            task._callbacks = None
        return True

    def adopt(self, old: SimTask, new: SimTask) -> None:
        """Make ``new`` the replacement of aborted ``old``.

        Waiters (dependency edges and completion callbacks) registered on
        the aborted incarnation transfer to the replacement, and blocked
        :meth:`run_until` calls follow ``old.replacement`` to the live task.
        """
        if old.state != _ABORTED:
            raise SimError(f"cannot adopt from non-aborted task {old.name!r}")
        old.replacement = new
        if new.done:
            # Degenerate: replacement already finished — settle waiters now.
            self._release(old)
            for fn in old._callbacks or ():
                fn(new)
        else:
            if old._dependents:
                if new._dependents is None:
                    new._dependents = list(old._dependents)
                else:
                    new._dependents.extend(old._dependents)
            if old._callbacks:
                if new._callbacks is None:
                    new._callbacks = list(old._callbacks)
                else:
                    new._callbacks.extend(old._callbacks)
        old._dependents = None
        old._callbacks = None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_until(self, *tasks: SimTask) -> float:
        """Process events until every task in ``tasks`` completes; return
        the last one's end time.

        This models a *blocking host call*: the simulated host waits for the
        task, and the shared clock lands exactly on the task's completion.
        Events scheduled later than that stay queued for subsequent runs.
        If the task is aborted by fault injection while the host waits, the
        wait follows the replacement chain to the replayed incarnation.

        Several tasks are awaited in the order given, exactly as one call
        per task back to back would: same events popped, same final clock.
        """
        heap = self._heap
        pop = _heappop
        end = self.now
        for task in tasks:
            if task.state == _PENDING:
                raise SimError(f"cannot wait on unsubmitted task {task.name!r}")
            while True:
                if task.state == _ABORTED:
                    if task.replacement is None:
                        raise SimError(
                            f"waiting on aborted task {task.name!r} with no replacement"
                        )
                    task = task.replacement
                    continue
                if task.state == _DONE:
                    break
                if not heap:
                    raise SimError(
                        f"deadlock: waiting on {task.name!r} with no pending events"
                    )
                time, _, fn, arg = pop(heap)
                self.now = time
                if arg is None:
                    fn()
                else:
                    fn(arg)
            # The final processed event may have been exactly this task's
            # finish; the clock already sits at task.end_time.
            end = task.end_time
            assert end is not None
        return end

    def _drain(self, limit: float) -> None:
        """Process every event with timestamp <= ``limit``, in ``(time,
        seq)`` order, including events scheduled during processing."""
        heap = self._heap
        pop = _heappop
        while heap and heap[0][0] <= limit:
            time, _, fn, arg = pop(heap)
            self.now = time
            if arg is None:
                fn()
            else:
                fn(arg)

    def run_until_idle(self) -> float:
        """Drain all queued events; return the final simulated time."""
        self._drain(_INF)
        if self._open_tasks:
            raise SimError(f"{self._open_tasks} task(s) never completed (cycle?)")
        return self.now

    def run_until_time(self, time: float) -> float:
        """Process every event with timestamp <= ``time``; land the clock on
        ``time``.

        The service replay driver alternates ``schedule_batch`` (inject
        the next epoch of arrivals) with ``run_until_time`` (advance to the
        epoch boundary); unlike :meth:`run_until` it needs no sentinel task,
        and unlike :meth:`run_until_idle` it leaves future events queued.
        Events scheduled *during* processing are honoured when they also
        fall inside the window.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimError(f"cannot run to {time} (now {self.now})")
        self._drain(time)
        self.now = time
        return time

    def elapse(self, duration: float, category: str = "host", name: str = "host-delay") -> None:
        """Advance the simulated host by ``duration`` seconds.

        Concurrent device work scheduled inside that window is processed in
        order, exactly as if the host were sleeping while devices progress.
        """
        sleeper = self.task(name, duration, category=category)
        self.run_until(sleeper)

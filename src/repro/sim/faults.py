"""Fault injection and recovery for simulated runs.

The paper's device mapper assumes a fixed, healthy device pool; a runtime
serving real traffic does not get that luxury.  This module lets a
:class:`FaultPlan` inject hardware churn into a running simulation at
virtual timestamps:

* **permanent device failures** — the device disappears mid-run: its
  in-service and queued simulated work is aborted (the lost partial
  execution is recorded under the ``fault`` trace category), every
  issued-but-unfinished command of the queues it served is requeued, the
  affected kernel/epoch profile-cache entries are invalidated, buffer
  copies that lived only on the dead device fall back to their host shadow,
  and each context of the platform that lost in-flight work there (they
  share the device) is re-triggered over the *degraded* device set; a
  queue its scheduler does not map leaves the dead device when it next
  issues (``CommandQueue.issue``), in every context;
* **transient slowdowns** — a device serves kernels ``factor``× slower for
  a window (thermal throttling, a noisy neighbour);
* **link outages** — a host↔device link is unavailable for a window, so
  transfers queue behind the outage (modelled as a blocking task on the
  link's FIFO resource).

Recovery accounting rides on the trace: every replayed command appends a
``recovery`` interval here, every queue that leaves a failed device appends
one where it moves (``CommandQueue.rebind``, when it is mapped or next
issues), and retry backoff is charged as simulated host time, so
:class:`~repro.core.runtime.RunStats` can report remap counts, replayed
commands, and downtime without instrumenting the workloads.  When no
feasible device remains (or a command exhausts its replay budget) recovery
raises a clean
:class:`~repro.core.device_mapper.MapperError`.

Layering: this module lives in :mod:`repro.sim` but orchestrates objects
from the OpenCL layer through duck-typed interfaces (``context.queues``,
``context._sync_pending``, ``queue.requeue_unfinished``,
``platform.mark_device_failed``, ``platform.contexts``); it imports
nothing from :mod:`repro.ocl` at module scope so the simulation substrate
stays standalone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.sim.trace import FAULT_CATEGORY, RECOVERY_CATEGORY

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultPolicy",
    "FaultInjector",
]


def _mapper_error(message: str):
    # Lazy import: repro.core.device_mapper is stdlib-only, but keeping the
    # import out of module scope preserves sim-layer independence.
    from repro.core.device_mapper import MapperError

    return MapperError(message)


class FaultKind(enum.Enum):
    """What breaks."""

    DEVICE_FAIL = "device-fail"
    DEVICE_SLOWDOWN = "device-slowdown"
    LINK_OUTAGE = "link-outage"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` names a device; for :attr:`FaultKind.LINK_OUTAGE` the outage
    hits that device's host link (devices sharing a physical link share the
    outage, exactly as they share the bandwidth).  ``duration`` is the
    window of a transient fault; ``factor`` the slowdown multiplier
    (``2.0`` = kernels take twice as long).
    """

    time: float
    kind: FaultKind
    target: str
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise ValueError(f"fault time must be finite and >= 0, got {self.time}")
        if not self.duration >= 0.0:  # also rejects NaN
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.factor):
            raise ValueError(f"fault factor must be finite, got {self.factor}")
        if self.kind is FaultKind.DEVICE_SLOWDOWN and self.factor <= 0.0:
            raise ValueError(f"slowdown factor must be > 0, got {self.factor}")


class FaultPlan:
    """A chainable schedule of fault events.

    Example::

        plan = (FaultPlan()
                .fail_device("gpu1", at=0.05)
                .slow_device("gpu0", at=0.01, duration=0.02, factor=3.0)
                .cut_link("cpu", at=0.0, duration=0.005))
        MultiCL(policy=ContextScheduler.AUTO_FIT, fault_plan=plan)
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.time)

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort(key=lambda e: e.time)
        return self

    def fail_device(self, device: str, at: float) -> "FaultPlan":
        """Permanently fail ``device`` at virtual time ``at``."""
        return self._add(FaultEvent(at, FaultKind.DEVICE_FAIL, device))

    def slow_device(
        self, device: str, at: float, duration: float, factor: float
    ) -> "FaultPlan":
        """Serve ``device`` kernels ``factor``× slower during the window."""
        return self._add(
            FaultEvent(at, FaultKind.DEVICE_SLOWDOWN, device, duration, factor)
        )

    def cut_link(self, device: str, at: float, duration: float) -> "FaultPlan":
        """Block ``device``'s host link for ``duration`` seconds."""
        return self._add(FaultEvent(at, FaultKind.LINK_OUTAGE, device, duration))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.events!r})"


@dataclass(frozen=True)
class FaultPolicy:
    """Recovery knobs (the MultiCL-level fault policy).

    ``max_attempts`` caps how many times one command may be replayed before
    recovery gives up with a ``MapperError``.  Backoff grows exponentially
    per failure event and is charged to the simulated host clock under the
    ``recovery`` trace category, so downtime shows up in the accounting.
    """

    max_attempts: int = 3
    backoff_s: float = 1e-3
    backoff_growth: float = 2.0

    def backoff_seconds(self, failure_index: int) -> float:
        """Backoff for the ``failure_index``-th failure (1-based)."""
        return self.backoff_s * self.backoff_growth ** max(failure_index - 1, 0)


class FaultInjector:
    """Arms a :class:`FaultPlan` on a context and runs the recovery path."""

    def __init__(self, context, policy: Optional[FaultPolicy] = None) -> None:
        self.context = context
        self.policy = policy or FaultPolicy()
        #: number of permanent device failures processed
        self.failures = 0
        #: commands requeued and replayed across all failures
        self.replayed_commands = 0
        #: factors of the slowdown windows open on each device
        self._slowdowns: Dict[str, List[float]] = {}

    @property
    def engine(self):
        return self.context.platform.engine

    @property
    def remapped_queues(self) -> int:
        """Queue moves off failed devices: the trace's ``remap`` intervals,
        counted as :class:`~repro.core.runtime.RunStats` counts them."""
        return len(self.engine.trace.filter(
            category=RECOVERY_CATEGORY,
            predicate=lambda iv: iv.meta.get("op") == "remap",
        ))

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule every event of ``plan`` on the engine's virtual clock.

        Events whose timestamp already passed (e.g. cold device profiling
        advanced the clock) fire at the current time instead.
        """
        engine = self.engine
        for ev in plan.events:
            when = max(ev.time, engine.now)
            engine.schedule_at(when, lambda ev=ev: self._fire(ev))
        return self

    def _fire(self, ev: FaultEvent) -> None:
        if ev.kind is FaultKind.DEVICE_FAIL:
            self._device_fail(ev)
        elif ev.kind is FaultKind.DEVICE_SLOWDOWN:
            self._slowdown(ev)
        elif ev.kind is FaultKind.LINK_OUTAGE:
            self._link_outage(ev)
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unknown fault kind {ev.kind!r}")

    # ------------------------------------------------------------------
    # Transient faults
    # ------------------------------------------------------------------
    def _slowdown(self, ev: FaultEvent) -> None:
        """Open a slowdown window.  Windows overlapping on one device
        compound: the device runs at the product of the open windows'
        factors, and recovers when the last one closes."""
        platform = self.context.platform
        if not platform.is_available(ev.target):
            return
        device = platform.node.device(ev.target)
        engine = self.engine
        start = engine.now
        factors = self._slowdowns.setdefault(ev.target, [])
        factors.append(ev.factor)
        device.slowdown = math.prod(factors, start=1.0)
        self._notify_slowdown(ev.target, "on_device_slowdown")

        def restore() -> None:
            factors.remove(ev.factor)
            device.slowdown = math.prod(factors, start=1.0)
            if not factors:
                self._notify_slowdown(ev.target, "on_device_recovery")
            engine.trace.record(
                resource=f"dev:{ev.target}",
                task=f"slowdown:{ev.target}",
                category=FAULT_CATEGORY,
                start=start,
                end=engine.now,
                meta={"kind": "slowdown", "factor": ev.factor},
            )

        engine.schedule_after(ev.duration, restore)

    def _notify_slowdown(self, device: str, hook: str) -> None:
        """Forward a slowdown edge to every context's scheduler that listens.

        Only the predictor's learned state is affected on the scheduler
        side — measured profile caches stay valid (the slowdown is real
        observed time), so non-predicting runs see no behaviour change.
        """
        for ctx in self.context.platform.contexts:
            fn = getattr(ctx.scheduler, hook, None)
            if fn is not None:
                fn(device)

    def _link_outage(self, ev: FaultEvent) -> None:
        links = self.context.platform.node.links
        if ev.target not in links:
            return
        # A blocking task on the link's FIFO: in-flight DMA drains first,
        # everything behind waits out the outage.
        self.engine.task(
            name=f"outage:{links[ev.target].name}",
            duration=ev.duration,
            resource=links[ev.target],
            category=FAULT_CATEGORY,
            meta={"kind": "link-outage", "device": ev.target},
        )

    # ------------------------------------------------------------------
    # Permanent failure + recovery
    # ------------------------------------------------------------------
    def _device_fail(self, ev: FaultEvent) -> None:
        context, engine = self.context, self.engine
        platform = context.platform
        dev = ev.target
        if not platform.is_available(dev):
            return
        now = engine.now
        platform.mark_device_failed(dev)
        self.failures += 1
        engine.trace.record(
            resource=f"dev:{dev}",
            task=f"fail:{dev}",
            category=FAULT_CATEGORY,
            start=now,
            end=now,
            meta={"kind": "device-failure"},
        )

        if not context.active_device_names:
            raise _mapper_error(
                f"device {dev!r} failed and no feasible device remains"
            )

        # The device is gone for every context on the platform (the tenants
        # of a scheduling service share one fleet), not only for the one
        # this injector is armed on.  Each sheds its state on the dead
        # device; the ones that must act now recover below, in creation
        # order, alongside this injector's own.  A scheduler maps deferred
        # work over the live devices at its next trigger, and a queue leaves
        # the dead device when it next issues, so only a context that lost
        # in-flight work is re-triggered — forcing any other would drain
        # its pool outside fair share (or trip a parked tenant's quota).
        recoveries = []
        replayed = 0
        for ctx in platform.contexts:
            # Copies that lived only on the dead device fall back to the
            # host shadow (the functional contents are host-resident by
            # construction).
            for buf in list(ctx.buffers):
                buf.drop_device(dev)
            # Invalidate kernel/epoch profile-cache entries measured on the
            # dead device.
            if ctx.scheduler is not None:
                ctx.scheduler.on_device_failure(dev)
            # Requeue every issued-but-unfinished command that depended on
            # the dead device (capped replay accounting per command) —
            # before the orphan sweep below, which would release their
            # waiters onto the dead device.
            n = self._requeue(ctx, dev, now)
            replayed += n
            if n or ctx is context:
                recoveries.append(ctx)
        self.replayed_commands += replayed

        # Sweep orphaned simulated work (e.g. profiling launches) off the
        # dead execution resource; their waiters are released so a blocked
        # profiling join returns with whatever the survivors measured.
        resource = platform.node.device(dev).resource
        for task in list(resource.pending_tasks()):
            engine.abort(task, release_dependents=True)

        if replayed:
            backoff = self.policy.backoff_seconds(self.failures)
            if backoff > 0.0:
                engine.elapse(
                    backoff, category=RECOVERY_CATEGORY, name=f"backoff:{dev}"
                )

        # Re-trigger each context over the degraded pool.  If a scheduling
        # pass is already in flight (failure during profiling) the context
        # folds this request into it.  A queue leaves the dead device when
        # its scheduler maps it or, failing that, when it next issues
        # (CommandQueue.issue); either way rebind records the remap.
        for ctx in recoveries:
            ctx._sync_pending()

    def _requeue(self, ctx, dev: str, now: float) -> int:
        """Requeue ``ctx``'s unfinished commands touching ``dev``; returns
        the replayed command count."""
        engine = self.engine
        replayed = 0
        for q in ctx.queues:
            if q.released:
                continue
            cmds = q.requeue_unfinished(dev)
            for cmd in cmds:
                if cmd.attempts > self.policy.max_attempts:
                    raise _mapper_error(
                        f"command {cmd.kind.value!r} on queue {q.name!r} "
                        f"exceeded {self.policy.max_attempts} replay attempts"
                    )
                engine.trace.record(
                    resource="host",
                    task=f"replay:{cmd.kind.value}@{q.name}",
                    category=RECOVERY_CATEGORY,
                    start=now,
                    end=now,
                    meta={
                        "op": "replay",
                        "queue": q.name,
                        "attempt": cmd.attempts,
                        "device": dev,
                    },
                )
            replayed += len(cmds)
        return replayed

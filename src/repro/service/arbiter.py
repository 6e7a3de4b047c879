"""Weighted deficit-round-robin arbitration across tenant ready pools.

In service mode every tenant context's scheduler trigger is routed here
(:attr:`Context.arbiter <repro.ocl.context.Context.arbiter>`), so the
arbiter sees *all* tenants' ready pools at every synchronization boundary
and decides **when** each pool dispatches.  **Where** the pool's queues run
is still decided by the owning tenant's own policy — dispatch goes through
:meth:`MultiCLSchedulerBase.dispatch
<repro.core.scheduler.MultiCLSchedulerBase.dispatch>`, which sanitizes the
pool and runs the usual AUTO_FIT / ROUND_ROBIN mapping.

The algorithm is classic deficit round-robin, weighted:

* Each tenant holds a *deficit* counter in estimated device-seconds.  Every
  arbitration round credits each backlogged tenant ``quantum × weight``;
  an idle tenant's deficit resets to zero (no banking ahead of demand).
* In priority-then-round-robin order, a tenant whose deficit covers its
  pool's estimated cost dispatches the pool and pays the cost.
* Pool cost is *estimated* with the same analytic model the simulator
  charges (:func:`~repro.hardware.cost.kernel_time` over
  :meth:`Kernel.launch_cost`, plus link-model transfer times), because the
  trace-measured usage only materializes after virtual time advances —
  fairness decisions cannot wait for it.

Two trigger flavours:

* :meth:`FairShareArbiter.arbitrate` — a *voluntary* round (the service's
  pacing loop).  Under-credit pools simply stay deferred until their
  deficit accrues; this is where weighted fairness emerges under backlog.
* :meth:`FairShareArbiter.on_trigger` — a *forced* trigger from a blocked
  host call (``clFlush``/``clFinish``/cross-queue waits).  The triggering
  context's pool **must** drain, so rounds repeat until its deficit covers
  the pool (other backlogged tenants dispatch along the way as their
  credit allows — the blocked tenant cannot jump the queue for free).

A tenant whose charged device-seconds exhaust its
:attr:`TenantQuota.max_device_seconds` is *parked*: voluntary rounds skip
it, and a forced trigger raises
:class:`~repro.service.admission.QuotaExceeded`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.hardware.cost import kernel_time
from repro.ocl.enums import CommandKind
from repro.service.admission import QuotaExceeded

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.queue import CommandQueue
    from repro.service.core import SchedulingService
    from repro.service.session import TenantSession

__all__ = ["FairShareArbiter"]

#: Forced-drain safety cap: a blocked host must never spin forever waiting
#: for credit (e.g. a degenerate zero quantum); past this many rounds the
#: triggering pool dispatches regardless, driving its deficit negative —
#: the debt is repaid out of future credits, preserving long-run fairness.
_MAX_FORCED_ROUNDS = 100_000


class FairShareArbiter:
    """Weighted DRR over the active sessions of one scheduling service."""

    def __init__(
        self, service: "SchedulingService", quantum: Optional[float] = None
    ) -> None:
        self.service = service
        #: Credit (estimated device-seconds) added per unit weight per
        #: round.  ``None`` = auto-calibrate on the first backlogged round
        #: to half the smallest pool cost per max weight, so one round
        #: never credits a whole pool to every tenant at once (which would
        #: collapse DRR into FIFO).
        self.quantum = quantum
        #: tenant -> deficit counter (estimated device-seconds).
        self.deficit: Dict[str, float] = {}
        #: tenant -> cumulative estimated device-seconds dispatched.
        self.charged: Dict[str, float] = {}
        #: completed arbitration rounds (voluntary + forced).
        self.rounds = 0
        #: dispatch log: (round, tenant, estimated seconds) per pool.
        self.dispatch_log: List[tuple] = []
        # Re-entrancy guard: fault recovery can force a trigger *while* a
        # dispatched pool is being profiled (virtual time advances inside
        # the pass).  The nested trigger bypasses arbitration — its pool
        # dispatches immediately under the already-running round's credit.
        self._in_trigger = False
        #: queue -> ((pending_edits, cost_edits), {device: (commands summed,
        #: seconds)}): the running sums behind estimate_pool_seconds.
        self._sums: "WeakKeyDictionary[CommandQueue, tuple]" = (
            WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Cost model (the same analytic model the simulator charges)
    # ------------------------------------------------------------------
    def estimate_pool_seconds(
        self, context: "Context", pool: Sequence["CommandQueue"]
    ) -> float:
        """Estimated device+link seconds to run ``pool``'s deferred work.

        Each queue is costed on its *best* active device (the optimistic
        mapping a policy could reach).  Crucially this does not depend on
        the queue's current binding, so identical epochs cost identical
        credit for every tenant — binding-dependent estimates would let a
        tenant's fair-share price drift with its mapping history.

        The per-device sums are running sums: each round only prices the
        commands appended since the last estimate, adding them in command
        order onto the stored partial sum, so every float equals a fresh
        left-to-right sum from ``0.0``.  A kernel is priced through its
        cost's :attr:`~repro.hardware.cost.KernelCost.times` memo, the
        per-device unscaled :func:`~repro.hardware.cost.kernel_time` that
        :meth:`~repro.hardware.topology.SimDevice.submit_kernel` shares, so
        one kernel and configuration is priced once per device, not once per
        command per round.  A queue's sums restart from zero
        when its :attr:`~repro.ocl.queue.CommandQueue.pending_edits` or its
        context's :attr:`~repro.ocl.context.Context.cost_edits` moves.
        """
        node = context.platform.node
        devices = context.active_device_names or list(context.device_names)
        total = 0.0
        for q in pool:
            pending = q.pending
            edits = (q.pending_edits, context.cost_edits)
            entry = self._sums.get(q)
            if entry is None or entry[0] != edits:
                entry = self._sums[q] = (edits, {})
            sums = entry[1]
            best = math.inf
            for dev in devices:
                summed, seconds = sums.get(dev, (0, 0.0))
                if summed < len(pending):
                    device = node.device(dev)
                    spec = device.spec
                    for cmd in pending[summed:]:
                        if cmd.kind is CommandKind.NDRANGE_KERNEL:
                            assert cmd.kernel is not None and cmd.launch is not None
                            cost = cmd.kernel.launch_cost(spec, cmd.launch)
                            times = cost.times
                            if times is None:
                                t = kernel_time(spec, cost)
                            else:
                                # SimDevice.submit_kernel's memo: the
                                # unscaled kernel_time on this device.
                                t = times.get(device)
                                if t is None:
                                    t = times[device] = kernel_time(spec, cost)
                            seconds += t
                        elif cmd.kind is CommandKind.WRITE_BUFFER:
                            seconds += node.h2d_seconds(dev, cmd.nbytes)
                        elif cmd.kind is CommandKind.READ_BUFFER:
                            seconds += node.d2h_seconds(dev, cmd.nbytes)
                        elif cmd.kind in (
                            CommandKind.FILL_BUFFER, CommandKind.COPY_BUFFER
                        ):
                            seconds += node.d2d_seconds(dev, dev, cmd.nbytes)
                        # markers/barriers are free
                    sums[dev] = (len(pending), seconds)
                best = min(best, seconds)
            total += 0.0 if best is math.inf else best
        return total

    # ------------------------------------------------------------------
    # Quota parking
    # ------------------------------------------------------------------
    def is_parked(self, session: "TenantSession") -> bool:
        """Whether ``session`` exhausted its device-time quota."""
        limit = session.quota.max_device_seconds
        if limit is None:
            return False
        return self.charged.get(session.name, 0.0) >= limit

    # ------------------------------------------------------------------
    # Trigger entry points
    # ------------------------------------------------------------------
    def on_trigger(
        self,
        context: "Context",
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        """Forced trigger: the host is blocked until ``context`` drains."""
        if self._in_trigger:
            # Nested (fault-recovery) trigger: drain directly.
            self._dispatch_charged(context, pool, trigger_queue)
            return
        session = self._session_of(context)
        if session is not None and self.is_parked(session):
            limit = session.quota.max_device_seconds
            raise QuotaExceeded(
                f"tenant {session.name!r} forced a scheduler trigger but its "
                f"device-time quota is exhausted "
                f"({self.charged.get(session.name, 0.0):.6f}s charged of "
                f"{limit}s allowed)"
            )
        self._in_trigger = True
        try:
            forced_rounds = 0
            while True:
                drained = self._round(force_context=context)
                if drained or not context.pending_queues():
                    break
                forced_rounds += 1
                if forced_rounds >= _MAX_FORCED_ROUNDS:  # pragma: no cover
                    self._dispatch_charged(
                        context, context.pending_queues(), trigger_queue
                    )
                    break
        finally:
            self._in_trigger = False

    def arbitrate(self) -> int:
        """One voluntary fair-share round; returns pools dispatched.

        Safe to call any time (the service's pacing loop); pools whose
        tenants lack credit stay deferred.
        """
        if self._in_trigger:
            return 0
        self._in_trigger = True
        try:
            return self._round(force_context=None)
        finally:
            self._in_trigger = False

    # ------------------------------------------------------------------
    # One DRR round
    # ------------------------------------------------------------------
    def _round(self, force_context: Optional["Context"]) -> int:
        """Credit backlogged tenants, dispatch every affordable pool.

        Returns the number of pools dispatched; when ``force_context`` is
        given the return value doubles as "did the forced pool dispatch".
        """
        self.rounds += 1
        # Stable service order: priority first (higher = served earlier in
        # the round), then admission order (dict insertion order).
        sessions = [
            s
            for s in self.service.sessions.values()
            if s.state == "active" and s.context is not None
        ]
        sessions.sort(key=lambda s: -s.priority)
        backlog: List[tuple] = []
        for s in sessions:
            pool = s.context.pending_queues()
            if not pool or self.is_parked(s):
                # Idle (or parked) tenants bank nothing: DRR resets credit
                # when the queue empties, else a long-idle tenant returns
                # with unbounded burst rights.
                self.deficit[s.name] = 0.0
                continue
            backlog.append((s, pool, self.estimate_pool_seconds(s.context, pool)))
        if not backlog:
            return 0
        if self.quantum is None:
            # Auto-calibrate: half the smallest non-trivial pool per unit of
            # the largest weight — several rounds per pool, so shares track
            # weights at sub-pool resolution.
            costs = [c for _, _, c in backlog if c > 0.0]
            w_max = max(s.weight for s, _, _ in backlog)
            base = min(costs) if costs else 1e-6
            self.quantum = max(base / (2.0 * max(w_max, 1.0)), 1e-12)
        dispatched = 0
        forced_dispatched = 0
        for s, pool, cost in backlog:
            credit = self.deficit.get(s.name, 0.0) + self.quantum * s.weight
            if credit >= cost:
                credit -= cost
                self.charged[s.name] = self.charged.get(s.name, 0.0) + cost
                self._dispatch(s.context, pool, None, cost, tenant=s.name)
                dispatched += 1
                if force_context is not None and s.context is force_context:
                    forced_dispatched += 1
            self.deficit[s.name] = credit
        return forced_dispatched if force_context is not None else dispatched

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------
    def _dispatch_charged(
        self,
        context: "Context",
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"],
    ) -> None:
        """Dispatch ``pool`` outside a DRR round, charging its owner's
        deficit and quota so the work still counts against its share."""
        cost = self.estimate_pool_seconds(context, pool)
        tenant = context.tenant
        if tenant is not None:
            self.deficit[tenant] = self.deficit.get(tenant, 0.0) - cost
            self.charged[tenant] = self.charged.get(tenant, 0.0) + cost
        self._dispatch(context, list(pool), trigger_queue, cost)

    def _dispatch(
        self,
        context: "Context",
        pool: List["CommandQueue"],
        trigger_queue: Optional["CommandQueue"],
        cost: float,
        tenant: Optional[str] = None,
    ) -> None:
        """Hand one ready pool to its owner's policy (sanitize + map + issue)."""
        scheduler = context.scheduler
        assert scheduler is not None, "arbitrated context must have a scheduler"
        self.dispatch_log.append(
            (self.rounds, tenant or context.tenant, cost)
        )
        # Tenant policy decides the mapping; dispatch() sanitizes the pool.
        scheduler.dispatch(pool, trigger_queue)  # type: ignore[attr-defined]

    def _session_of(self, context: "Context") -> Optional["TenantSession"]:
        if context.tenant is None:
            return None
        return self.service.sessions.get(context.tenant)

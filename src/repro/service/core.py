"""The multi-tenant scheduling service: N tenants, one simulated fleet.

:class:`SchedulingService` composes the pieces this package provides
around one shared :class:`~repro.ocl.platform.Platform`:

* an :class:`~repro.service.admission.AdmissionController` gating session
  creation (reject or waitlist at the session cap) and per-tenant
  byte/queue quotas;
* a :class:`~repro.service.arbiter.FairShareArbiter` running weighted
  deficit round-robin over all tenants' ready pools at every scheduler
  trigger;
* a :class:`~repro.service.telemetry.TenantTelemetry` folding the shared
  engine trace into live per-tenant utilization.

Typical driver loop::

    service = SchedulingService(max_sessions=8)
    a = service.create_session("tenant-a", weight=4.0)
    b = service.create_session("tenant-b", weight=1.0)
    ... enqueue work on a.create_queue(...) / b.create_queue(...) ...
    while service.has_backlog():
        service.trigger()          # one fair-share arbitration round
        service.run_until_idle()   # let dispatched work complete
    print(service.telemetry.shares())

Each tenant keeps its own scheduling policy (AUTO_FIT by default); the
service only decides *when* each tenant's deferred pool reaches the fleet.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.ocl.enums import ContextScheduler
from repro.ocl.platform import Platform
from repro.service.admission import AdmissionController, AdmissionError, TenantQuota
from repro.service.arbiter import FairShareArbiter
from repro.service.session import TenantSession
from repro.service.telemetry import TenantTelemetry, TenantUsage

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.specs import NodeSpec

__all__ = ["SchedulingService"]


class SchedulingService:
    """Shared-fleet scheduling front end for multiple tenant sessions."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        node_spec: Optional["NodeSpec"] = None,
        max_sessions: Optional[int] = None,
        quantum: Optional[float] = None,
        profile: bool = True,
        profile_dir: Optional[str] = None,
    ) -> None:
        if platform is not None and node_spec is not None:
            raise ValueError("pass either a platform or a node_spec, not both")
        self.platform = (
            platform
            if platform is not None
            else Platform(node_spec, profile=profile, profile_dir=profile_dir)
        )
        self.admission = AdmissionController(max_sessions)
        self.telemetry = TenantTelemetry(self.platform.engine.trace)
        self.arbiter = FairShareArbiter(self, quantum=quantum)
        #: tenant name -> session, in admission order (incl. waiting/closed).
        self.sessions: Dict[str, TenantSession] = {}

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        name: str,
        weight: float = 1.0,
        priority: int = 0,
        quota: Optional[TenantQuota] = None,
        policy: Any = ContextScheduler.AUTO_FIT,
        device_names: Optional[Sequence[str]] = None,
        properties: Optional[dict] = None,
        on_overload: str = "reject",
    ) -> TenantSession:
        """Admit a new tenant session (or waitlist it, or reject it).

        Raises :class:`~repro.service.admission.AdmissionError` when the
        service is at its session cap and ``on_overload="reject"``; with
        ``"queue"`` the returned session starts ``waiting`` and activates
        automatically when a slot frees up.
        """
        if name in self.sessions and self.sessions[name].state != "closed":
            raise AdmissionError(f"tenant session {name!r} already exists")
        session = TenantSession(
            self,
            name,
            weight=weight,
            priority=priority,
            quota=quota,
            policy=policy,
            device_names=device_names,
            properties=properties,
        )
        admitted = self.admission.admit_session(session, on_overload)
        self.sessions[name] = session
        if admitted:
            session._activate()
        return session

    def _on_session_closed(self, session: TenantSession) -> None:
        """Free the slot; activate waitlisted sessions in FIFO order."""
        for nxt in self.admission.release_session(session):
            nxt._activate()

    def active_sessions(self) -> List[TenantSession]:
        """Sessions currently holding a fleet slot, in admission order."""
        return [s for s in self.sessions.values() if s.state == "active"]

    # ------------------------------------------------------------------
    # Scheduling drivers
    # ------------------------------------------------------------------
    def has_backlog(self) -> bool:
        """Whether any active tenant holds deferred (unarbitrated) work."""
        return any(s.pending_queues() for s in self.active_sessions())

    def trigger(self) -> int:
        """Run one voluntary fair-share round; returns pools dispatched."""
        return self.arbiter.arbitrate()

    def run_until_idle(self) -> float:
        """Advance virtual time until all dispatched work completes."""
        self.platform.engine.run_until_idle()
        return self.platform.engine.now

    def run_until_time(self, time: float) -> float:
        """Advance virtual time to exactly ``time``; later events stay queued.

        The open-loop replay driver's epoch step: process everything due in
        the epoch window, then arbitrate (:meth:`trigger`) at the boundary
        without draining in-service work the way :meth:`run_until_idle`
        would.
        """
        return self.platform.engine.run_until_time(time)

    def drain(self) -> None:
        """Force every tenant's backlog through (quota parking still
        applies: a parked tenant's forced drain raises
        :class:`~repro.service.admission.QuotaExceeded`)."""
        for s in self.active_sessions():
            s.finish()
        self.run_until_idle()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.platform.engine.now

    def utilization(self) -> Dict[str, TenantUsage]:
        """Live per-tenant usage snapshot (see :class:`TenantTelemetry`)."""
        return self.telemetry.snapshot()

    def shares(self) -> Dict[str, float]:
        """Fraction of tenant device-seconds per *known* tenant session."""
        return self.telemetry.shares(list(self.sessions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {s.name: s.state for s in self.sessions.values()}
        return f"SchedulingService(sessions={states})"

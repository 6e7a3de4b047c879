"""Tenant sessions: one client of the multi-tenant scheduling service.

A session wraps one :class:`~repro.ocl.context.Context` on the service's
shared platform.  The context is tagged with the tenant name (so every task
it issues is attributable in the trace) and wired to the service's
fair-share arbiter (so every scheduler trigger becomes an arbitration
point).  Within the session the tenant keeps full control of its own
scheduling policy — AUTO_FIT, ROUND_ROBIN, or any registered custom policy.

Lifecycle: ``waiting`` (admitted to the waitlist, no context yet) →
``active`` (context built, resources usable) → ``closed`` (queues
released; the freed slot admits the next waitlisted session).  Resource
factories go through the service's admission controller, so per-tenant
byte/queue quotas are enforced *before* anything reaches the fleet.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

from repro.ocl.context import TENANT_PROPERTY_KEY, Context
from repro.ocl.enums import ContextProperty, ContextScheduler, MemFlag, SchedFlag
from repro.service.admission import AdmissionError, TenantQuota

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.ocl.memory import Buffer
    from repro.ocl.program import Program
    from repro.ocl.queue import CommandQueue
    from repro.service.core import SchedulingService
    from repro.service.telemetry import TenantUsage

__all__ = ["TenantSession"]


class TenantSession:
    """One tenant's handle on the shared scheduling service."""

    def __init__(
        self,
        service: "SchedulingService",
        name: str,
        weight: float = 1.0,
        priority: int = 0,
        quota: Optional[TenantQuota] = None,
        policy: Any = ContextScheduler.AUTO_FIT,
        device_names: Optional[Sequence[str]] = None,
        properties: Optional[dict] = None,
    ) -> None:
        if not (math.isfinite(weight) and weight > 0.0):
            raise ValueError(
                f"tenant weight must be positive and finite, got {weight}"
            )
        self.service = service
        self.name = name
        #: Fair-share weight: long-run device-second share under backlog is
        #: proportional to this.
        self.weight = float(weight)
        #: Service order within an arbitration round (higher = earlier).
        self.priority = int(priority)
        self.quota = TenantQuota.from_env(quota)
        self.policy = policy
        self.device_names = (
            tuple(device_names) if device_names is not None else None
        )
        self.extra_properties = dict(properties or {})
        #: ``waiting`` | ``active`` | ``closed``
        self.state = "waiting"
        self.context: Optional[Context] = None
        #: bytes of buffers created through this session (admission counter)
        self.allocated_bytes = 0
        #: queues created through this session (admission counter)
        self.queue_count = 0

    # ------------------------------------------------------------------
    # Lifecycle (driven by the service)
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        """Build the tenant's context on the shared platform (service-only)."""
        assert self.state == "waiting" and self.context is None
        props = dict(self.extra_properties)
        props[TENANT_PROPERTY_KEY] = self.name
        props[ContextProperty.CL_CONTEXT_SCHEDULER] = self.policy
        self.context = self.service.platform.create_context(
            self.device_names, props
        )
        self.context.arbiter = self.service.arbiter
        self.state = "active"

    def close(self) -> None:
        """Finish outstanding work, release queues, free the session slot.

        Idempotent.  Closing a ``waiting`` session just leaves the
        waitlist.
        """
        if self.state == "closed":
            return
        if self.state == "active" and self.context is not None:
            for q in self.context.queues:
                q.release()
        self.state = "closed"
        self.service._on_session_closed(self)

    # ------------------------------------------------------------------
    # Admission-checked resource factories
    # ------------------------------------------------------------------
    def _require_active(self) -> Context:
        if self.state != "active" or self.context is None:
            raise AdmissionError(
                f"tenant session {self.name!r} is {self.state}; resources can "
                f"only be created on an active session"
            )
        return self.context

    def create_buffer(
        self,
        nbytes: int,
        flags: MemFlag = MemFlag.READ_WRITE,
        host_array: Optional["np.ndarray"] = None,
        name: Optional[str] = None,
    ) -> "Buffer":
        """clCreateBuffer, gated by the tenant's resident-byte quota."""
        ctx = self._require_active()
        self.service.admission.check_buffer(self, int(nbytes))
        buf = ctx.create_buffer(
            nbytes, flags=flags, host_array=host_array, name=name
        )
        self.allocated_bytes += int(nbytes)
        return buf

    def create_queue(
        self,
        device_name: Optional[str] = None,
        sched_flags: Any = SchedFlag.SCHED_AUTO_DYNAMIC,
        name: Optional[str] = None,
        out_of_order: bool = False,
    ) -> "CommandQueue":
        """clCreateCommandQueue, gated by the tenant's queue quota.

        Defaults to ``SCHED_AUTO_DYNAMIC``: service-mode queues are meant
        to be arbitrated, and only deferred (auto-scheduled) commands pass
        through the fair-share arbiter.
        """
        ctx = self._require_active()
        self.service.admission.check_queue(self)
        q = ctx.create_queue(
            device_name, sched_flags=sched_flags, name=name,
            out_of_order=out_of_order,
        )
        self.queue_count += 1
        return q

    def create_program(self, source: str) -> "Program":
        """clCreateProgramWithSource (no quota: host-side only)."""
        return self._require_active().create_program(source)

    # ------------------------------------------------------------------
    # Synchronization & introspection
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Drain all of this tenant's queues (a forced arbitration point)."""
        self._require_active().finish_all()

    def pending_queues(self) -> List["CommandQueue"]:
        """This tenant's ready pool (deferred work awaiting arbitration)."""
        if self.context is None:
            return []
        return self.context.pending_queues()

    @property
    def usage(self) -> "TenantUsage":
        """Live trace-derived utilization for this tenant."""
        return self.service.telemetry.usage(self.name)

    @property
    def charged_seconds(self) -> float:
        """Estimated device-seconds the arbiter has charged this tenant."""
        return self.service.arbiter.charged.get(self.name, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantSession({self.name!r}, state={self.state!r}, "
            f"weight={self.weight}, priority={self.priority})"
        )

"""Admission control for the multi-tenant scheduling service.

Two gates, both enforced *before* work reaches the shared fleet:

* **Session admission** — the service caps concurrently active sessions
  (``max_sessions``).  An over-capacity ``create_session`` either *rejects*
  (:class:`AdmissionError`) or *queues* the session on a FIFO waitlist
  (``on_overload="queue"``); queued sessions are admitted automatically as
  active sessions close.
* **Resource quotas** — each tenant carries a :class:`TenantQuota`:
  ``max_resident_bytes`` bounds the bytes of buffers the tenant may hold on
  the fleet, ``max_queues`` bounds its command queues, and
  ``max_device_seconds`` bounds its cumulative device time.  Byte and queue
  quotas reject at creation time; the device-time quota is enforced by the
  arbiter (an over-budget tenant's ready pools stay queued, and a forced
  trigger raises :class:`QuotaExceeded`).

Defaults come from the environment so a fleet operator can set one policy
for every client process: ``MULTICL_TENANT_QUOTA_BYTES`` (per-tenant
resident-byte quota) and ``MULTICL_TENANT_MAX_SESSIONS`` (service-wide
session cap).  Unset means unlimited.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, TYPE_CHECKING

from repro import knobs

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.session import TenantSession

__all__ = [
    "AdmissionError",
    "QuotaExceeded",
    "TenantQuota",
    "AdmissionController",
    "QUOTA_BYTES_ENV",
    "MAX_SESSIONS_ENV",
]

#: Default per-tenant resident-byte quota (unset = unlimited).
QUOTA_BYTES_ENV = "MULTICL_TENANT_QUOTA_BYTES"
#: Default service-wide cap on concurrently active sessions.
MAX_SESSIONS_ENV = "MULTICL_TENANT_MAX_SESSIONS"


class AdmissionError(RuntimeError):
    """A tenant request was rejected by admission control."""


class QuotaExceeded(AdmissionError):
    """A tenant exhausted a quota mid-run (e.g. its device-time budget)."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds (``None`` = unlimited).

    ``max_resident_bytes`` — total bytes of fleet buffers the tenant may
    allocate; ``max_queues`` — command queues it may create;
    ``max_device_seconds`` — cumulative device busy-seconds it may consume
    (kernels, transfers and migrations attributed through the trace's
    tenant tag).
    """

    max_resident_bytes: Optional[int] = None
    max_queues: Optional[int] = None
    max_device_seconds: Optional[float] = None

    @staticmethod
    def from_env(base: Optional["TenantQuota"] = None) -> "TenantQuota":
        """Fill unset knobs from the environment (operator defaults)."""
        quota = base or TenantQuota()
        return replace(
            quota,
            max_resident_bytes=knobs.get(
                QUOTA_BYTES_ENV, quota.max_resident_bytes
            ),
        )


class AdmissionController:
    """Session cap + per-tenant quota enforcement for one service."""

    def __init__(self, max_sessions: Optional[int] = None) -> None:
        self.max_sessions = knobs.get(MAX_SESSIONS_ENV, max_sessions)
        self.active: List["TenantSession"] = []
        #: FIFO of sessions waiting for an active slot (``on_overload="queue"``).
        self.waitlist: List["TenantSession"] = []

    # ------------------------------------------------------------------
    # Session admission
    # ------------------------------------------------------------------
    def admit_session(self, session: "TenantSession", on_overload: str) -> bool:
        """Admit ``session`` or handle overload; returns True if admitted.

        ``on_overload="reject"`` raises :class:`AdmissionError` when the
        service is at capacity; ``"queue"`` parks the session on the
        waitlist (it is admitted when a slot frees up).
        """
        if on_overload not in ("reject", "queue"):
            raise ValueError(
                f"on_overload must be 'reject' or 'queue', got {on_overload!r}"
            )
        if self.max_sessions is None or len(self.active) < self.max_sessions:
            self.active.append(session)
            return True
        if on_overload == "reject":
            raise AdmissionError(
                f"session {session.name!r} rejected: service at capacity "
                f"({len(self.active)}/{self.max_sessions} active sessions)"
            )
        self.waitlist.append(session)
        return False

    def release_session(self, session: "TenantSession") -> List["TenantSession"]:
        """A session closed; admit waiting sessions into the freed slots.

        Returns the sessions admitted off the waitlist (the service
        activates them — builds their contexts — in order).
        """
        if session in self.active:
            self.active.remove(session)
        elif session in self.waitlist:
            self.waitlist.remove(session)
            return []
        admitted: List["TenantSession"] = []
        while self.waitlist and (
            self.max_sessions is None or len(self.active) < self.max_sessions
        ):
            nxt = self.waitlist.pop(0)
            self.active.append(nxt)
            admitted.append(nxt)
        return admitted

    # ------------------------------------------------------------------
    # Resource quotas
    # ------------------------------------------------------------------
    def check_buffer(self, session: "TenantSession", nbytes: int) -> None:
        """Reject a buffer allocation that would exceed the byte quota."""
        limit = session.quota.max_resident_bytes
        if limit is not None and session.allocated_bytes + nbytes > limit:
            raise AdmissionError(
                f"tenant {session.name!r} over resident-byte quota: "
                f"{session.allocated_bytes} + {nbytes} > {limit}"
            )

    def check_queue(self, session: "TenantSession") -> None:
        """Reject a queue creation that would exceed the queue quota."""
        limit = session.quota.max_queues
        if limit is not None and session.queue_count + 1 > limit:
            raise AdmissionError(
                f"tenant {session.name!r} over queue quota: "
                f"{session.queue_count} + 1 > {limit}"
            )

"""Per-tenant utilization telemetry derived from the shared trace.

Every task a tenant's queues issue carries a ``tenant`` tag in its trace
meta (stamped by :class:`~repro.ocl.queue.CommandQueue` from the context's
``multicl.tenant`` property), so tenant accounting needs no workload
instrumentation: :class:`TenantTelemetry` folds the engine's trace into
per-tenant busy-second aggregates.

The fold is the trace's own: :class:`TenantTelemetry` registers with
:meth:`~repro.sim.trace.Trace.add_fold`, so each interval is aggregated
exactly once, in recording order, and before a streaming trace spills it —
live dashboards can poll ``snapshot()`` every scheduler round without
rescanning history, and the totals stay exact however often the trace
spills.

Accounting rules (matching what the arbiter charges against quotas):

* **device seconds** — intervals on ``dev:*`` resources in the ``kernel``
  and ``transfer`` categories (kernel launches, fills, device-local
  copies).  Profiling work (``profile-*`` categories) is *excluded*: it is
  scheduler overhead, and charging it to tenants would let a profiling-
  heavy policy (AUTO_FIT) distort fairness against a profiling-free one.
* **link seconds** — ``transfer``/``migration`` intervals on ``link:*``
  resources (PCIe and NIC hops).

Work with no tenant tag (single-tenant runs, engine-internal tasks) is
aggregated under :data:`UNTAGGED`, so per-tenant sums plus the untagged
bucket always reconcile exactly with the raw trace totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.trace import Trace, TraceInterval

__all__ = ["UNTAGGED", "TenantUsage", "TenantTelemetry"]

#: Pseudo-tenant collecting work that carries no tenant tag.
UNTAGGED = "<untagged>"

#: Categories that count as tenant-attributable *device* work.
_DEVICE_CATEGORIES = frozenset({"kernel", "transfer", "migration"})
#: Categories that count as tenant-attributable *link* work.
_LINK_CATEGORIES = frozenset({"transfer", "migration"})


@dataclass
class TenantUsage:
    """Accumulated busy-seconds for one tenant."""

    device_seconds: float = 0.0
    link_seconds: float = 0.0
    #: completed tenant-attributable tasks (device + link)
    tasks: int = 0
    #: device name -> device busy seconds
    by_device: Dict[str, float] = field(default_factory=dict)
    #: category -> busy seconds (device + link)
    by_category: Dict[str, float] = field(default_factory=dict)


class TenantTelemetry:
    """Tenant-usage aggregation folded from one :class:`Trace`."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._usage: Dict[str, TenantUsage] = {}
        trace.add_fold(self._fold)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Fold intervals recorded since the trace's last fold."""
        self.trace._catch_up()

    def _fold(self, intervals: List[TraceInterval]) -> None:
        usage = self._usage
        for iv in intervals:
            resource = iv.resource
            if resource.startswith("dev:"):
                if iv.category not in _DEVICE_CATEGORIES:
                    continue
                is_device = True
            elif resource.startswith("link:"):
                if iv.category not in _LINK_CATEGORIES:
                    continue
                is_device = False
            else:
                continue
            tenant = iv.meta.get("tenant") or UNTAGGED
            u = usage.get(tenant)
            if u is None:
                u = usage[tenant] = TenantUsage()
            dur = iv.end - iv.start
            u.tasks += 1
            u.by_category[iv.category] = u.by_category.get(iv.category, 0.0) + dur
            if is_device:
                u.device_seconds += dur
                dev = resource[4:]  # strip "dev:"
                u.by_device[dev] = u.by_device.get(dev, 0.0) + dur
            else:
                u.link_seconds += dur

    # ------------------------------------------------------------------
    # Queries (all refresh first — results reflect the live trace)
    # ------------------------------------------------------------------
    def tenants(self) -> List[str]:
        """Tenants seen so far (excluding the untagged bucket)."""
        self.refresh()
        return sorted(t for t in self._usage if t != UNTAGGED)

    def usage(self, tenant: str) -> TenantUsage:
        """Usage for ``tenant`` (zeros if it has not run anything yet)."""
        self.refresh()
        return self._usage.get(tenant, TenantUsage())

    def device_seconds(self, tenant: str) -> float:
        """Total device busy-seconds attributed to ``tenant``."""
        return self.usage(tenant).device_seconds

    def snapshot(self) -> Dict[str, TenantUsage]:
        """Copy of the full per-tenant usage map (incl. untagged bucket)."""
        self.refresh()
        return {
            t: TenantUsage(
                device_seconds=u.device_seconds,
                link_seconds=u.link_seconds,
                tasks=u.tasks,
                by_device=dict(u.by_device),
                by_category=dict(u.by_category),
            )
            for t, u in self._usage.items()
        }

    def shares(self, tenants: Optional[List[str]] = None) -> Dict[str, float]:
        """Fraction of total tenant device-seconds each tenant consumed.

        Restricted to ``tenants`` when given (the untagged bucket is never
        included).  All zeros if nothing has run.
        """
        self.refresh()
        names = tenants if tenants is not None else self.tenants()
        secs = {t: self._usage.get(t, TenantUsage()).device_seconds for t in names}
        total = sum(secs.values())
        if total <= 0.0:
            return {t: 0.0 for t in names}
        return {t: s / total for t, s in secs.items()}

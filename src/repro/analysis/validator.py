"""Static validation of a scheduled ready-queue pool.

:func:`validate_pool` builds the cross-queue command DAG
(:mod:`repro.analysis.graph`) for the deferred commands of a pool and
reports structured :class:`~repro.analysis.findings.Finding` records for:

* **wait-list cycles** — the issue-blocking graph has a cycle, so
  :meth:`~repro.ocl.context.Context.issue_pool` is guaranteed to
  deadlock; the finding carries the actual cycle path
  (queue → event → queue);
* **orphaned events** — a wait list references an event whose command is
  neither issued nor pending on any pooled queue, so the waiter can never
  become ready;
* **buffer data races** — two commands touch the same
  :class:`~repro.ocl.memory.Buffer`, at least one writes, and no
  happens-before path (program order, barrier, or event chain) orders
  them;
* **stale reads** — a read ordered *before* the write that produces its
  data, a read of a never-written buffer, or a read of a buffer whose
  only device copy was lost to a fault (host-shadow fallback).

The checks are pure: nothing is issued, no simulated time passes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.analysis.findings import Finding, FindingKind, Severity
from repro.analysis.graph import (
    CommandGraph,
    CommandNode,
    build_command_graph,
    conflict_pairs,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.queue import CommandQueue

__all__ = ["validate_pool", "describe_deadlock"]


def validate_pool(pool: Sequence["CommandQueue"]) -> List[Finding]:
    """Statically validate the deferred commands of ``pool``.

    Returns all findings, most severe classes first (cycles, orphans,
    races, stale reads).  An empty list means the pool is clean.
    """
    graph = build_command_graph(pool)
    findings: List[Finding] = []
    findings.extend(_cycle_findings(graph))
    findings.extend(_orphan_findings(graph))
    findings.extend(_race_findings(graph))
    findings.extend(_stale_read_findings(graph))
    return findings


# ---------------------------------------------------------------------------
# Wait-list cycles
# ---------------------------------------------------------------------------
def _cycle_description(cycle: Sequence[CommandNode]) -> str:
    hops = []
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        ev = next(
            (e for e in node.command.wait_events if e is nxt.command),
            None,
        )
        link = f"--ev#{ev.id}-->" if ev is not None else "--queue-order-->"
        hops.append(f"{node.label} {link} {nxt.label}")
    return "; ".join(hops)


def _cycle_findings(graph: CommandGraph) -> List[Finding]:
    cycle = graph.find_issue_cycle()
    if cycle is None:
        return []
    labels = tuple(n.label for n in cycle) + (cycle[0].label,)
    return [
        Finding(
            kind=FindingKind.WAITLIST_CYCLE,
            severity=Severity.ERROR,
            message=f"event wait-list cycle: {_cycle_description(cycle)}",
            subjects=tuple(n.label for n in cycle),
            cycle=labels,
        )
    ]


# ---------------------------------------------------------------------------
# Orphaned events
# ---------------------------------------------------------------------------
def _orphan_findings(graph: CommandGraph) -> List[Finding]:
    findings = []
    for node, event in graph.orphans:
        findings.append(
            Finding(
                kind=FindingKind.ORPHAN_EVENT,
                severity=Severity.ERROR,
                message=(
                    f"{node.label} waits on ev#{event.id} "
                    f"({event.kind.value} on queue "
                    f"{event.queue.name!r}), which is neither issued nor "
                    f"pending on any pooled queue and can never issue"
                ),
                subjects=(node.label,),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Data races
# ---------------------------------------------------------------------------
def _race_findings(graph: CommandGraph) -> List[Finding]:
    findings = []
    for buf, a, b, both_write in conflict_pairs(graph.nodes):
        if graph.ordered(a.index, b.index):
            continue
        mode = "write/write" if both_write else "read/write"
        findings.append(
            Finding(
                kind=FindingKind.DATA_RACE,
                severity=Severity.ERROR,
                message=(
                    f"{mode} race on buffer {buf.name!r}: {a.label} and "
                    f"{b.label} are not ordered by any event, "
                    f"program-order, or barrier path"
                ),
                subjects=(a.label, b.label),
                buffer=buf.name,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Stale reads
# ---------------------------------------------------------------------------
def _stale_read_findings(graph: CommandGraph) -> List[Finding]:
    findings = []
    for node in graph.nodes:
        write_ids = {id(b) for b in node.writes}
        for buf in node.reads:
            if id(buf) in write_ids:
                continue  # the command (re)produces the data itself
            writers = [
                w
                for w in graph.nodes
                if w.index != node.index and any(id(b) == id(buf) for b in w.writes)
            ]
            if any(graph.happens_before(w.index, node.index) for w in writers):
                continue  # some producing write is ordered before the read
            if getattr(buf, "host_shadow_stale", False):
                findings.append(
                    Finding(
                        kind=FindingKind.STALE_READ,
                        severity=Severity.WARNING,
                        message=(
                            f"{node.label} reads buffer {buf.name!r} whose "
                            f"only device copy was lost to a device failure; "
                            f"the host-shadow fallback may be stale"
                        ),
                        subjects=(node.label,),
                        buffer=buf.name,
                    )
                )
                continue
            if buf.initialized:
                continue
            later = [w for w in writers if graph.happens_before(node.index, w.index)]
            if later:
                findings.append(
                    Finding(
                        kind=FindingKind.STALE_READ,
                        severity=Severity.WARNING,
                        message=(
                            f"{node.label} reads buffer {buf.name!r} but is "
                            f"ordered before the write that produces it "
                            f"({later[0].label})"
                        ),
                        subjects=(node.label, later[0].label),
                        buffer=buf.name,
                    )
                )
            elif not writers:
                findings.append(
                    Finding(
                        kind=FindingKind.STALE_READ,
                        severity=Severity.WARNING,
                        message=(
                            f"{node.label} reads buffer {buf.name!r}, which "
                            f"is uninitialized and has no producing write "
                            f"in the pool"
                        ),
                        subjects=(node.label,),
                        buffer=buf.name,
                    )
                )
            # Unordered writers exist: that is a data race, reported above.
    return findings


# ---------------------------------------------------------------------------
# Issue-time deadlock diagnostics
# ---------------------------------------------------------------------------
def describe_deadlock(pool: Sequence["CommandQueue"]) -> Optional[str]:
    """Explain why issuing ``pool`` stalled, or None if no cause is found.

    Used by the pool issuer (:mod:`repro.ocl.issue`) to turn the
    opaque "pending counts" deadlock error into the actual dependency
    cycle (or orphaned-event) diagnosis.
    """
    graph = build_command_graph(pool)
    cycle = graph.find_issue_cycle()
    if cycle is not None:
        return f"event wait-list cycle: {_cycle_description(cycle)}"
    if graph.orphans:
        node, event = graph.orphans[0]
        return (
            f"{node.label} waits on ev#{event.id} "
            f"({event.kind.value} on queue {event.queue.name!r}), "
            f"which is neither issued nor pending in the pool"
        )
    return None

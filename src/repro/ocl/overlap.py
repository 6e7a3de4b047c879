"""Overlap-aware pool issue: transfer/compute overlap via DAG reordering.

FIFO pool issue (:meth:`~repro.ocl.context.Context.issue_pool`) walks each
queue head-of-line, so an in-order queue's H2D transfer for iteration *i+1*
cannot even be *submitted* until iteration *i*'s kernel has been issued —
the link sits idle while the device computes, and vice versa.  Real OpenCL
runtimes hide this with per-device copy engines and reordering command
processors (cf. Lázaro-Muñoz et al., PAPERS.md); this module reproduces
that behaviour for queues that opt in with ``SCHED_OVERLAP`` (or contexts
created with ``MULTICL_OVERLAP`` / ``MultiCL(overlap=True)``).

The issuer builds the pool's command DAG (:mod:`repro.analysis.graph`) and
relaxes eligible in-order queues' program order down to what the memory
model actually requires:

* explicit wait-list edges (producer before waiter) are kept;
* markers/barriers remain full fences within their queue;
* for every pair of commands touching a common buffer with at least one
  writer, the original happens-before direction is restored as an explicit
  edge — so reordering can never introduce a race the FIFO order did not
  already have (the sanitizer's own conflict rule, applied in reverse);
* everything else may reorder: commands issue from a dependency-driven
  ready heap that prefers transfers over kernels (prefetch), letting the
  simulator's copy-engine resources run concurrently with compute.

Relaxed commands issue with explicit ``ordering_deps`` instead of the
implicit in-order tail chain; a zero-duration per-queue join task restores
the queue's tail so later epochs and ``finish()`` see in-order semantics
at the epoch boundary.  Out-of-order queues and non-opted queues keep
their exact FIFO-mode dependency structure (only global submission order
— which carries no semantics for them — differs).

The relaxation is *checked*, not assumed: after building the relaxed edge
set, every conflicting pair that was ordered in the original graph is
verified to still be ordered in the same direction; a violation raises
instead of issuing.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, TYPE_CHECKING

from repro.analysis.graph import CommandGraph, CommandNode, build_command_graph
from repro.ocl.enums import CommandKind, SchedFlag
from repro.ocl.errors import InvalidOperation

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.queue import CommandQueue
    from repro.sim.engine import SimTask

__all__ = ["issue_pool_overlap"]

_OVERLAP_MASK = SchedFlag.SCHED_OVERLAP.value

#: Issue priority by command kind: feed the copy engines first (prefetch),
#: then result read-backs, then compute, then pure synchronisation points.
_KIND_RANK = {
    CommandKind.WRITE_BUFFER: 0,
    CommandKind.FILL_BUFFER: 0,
    CommandKind.COPY_BUFFER: 0,
    CommandKind.READ_BUFFER: 1,
    CommandKind.NDRANGE_KERNEL: 2,
    CommandKind.MARKER: 3,
    CommandKind.BARRIER: 3,
}


def _queue_eligible(context: "Context", queue: "CommandQueue") -> bool:
    """Only in-order queues are relaxed: out-of-order queues already carry
    their minimal ordering explicitly (wait lists + barriers)."""
    if queue.out_of_order:
        return False
    return context.overlap or bool(queue.sched_flags.value & _OVERLAP_MASK)


def _conflicts(a: CommandNode, b: CommandNode) -> bool:
    """Same-buffer access with at least one writer (the sanitizer's rule)."""
    if not a.writes and not b.writes:
        return False
    aw = {id(x) for x in a.writes}
    bw = {id(x) for x in b.writes}
    if aw & ({id(x) for x in b.reads} | bw):
        return True
    return bool(bw & {id(x) for x in a.reads})


def _reachable(succ: List[List[int]], n: int) -> List[int]:
    """Per-node bitmask of transitively reachable nodes over ``succ``."""
    masks = [0] * n
    # Reverse topological-ish sweep is unnecessary at pool scale; plain
    # DFS per node with memoisation on completed nodes.
    state = [0] * n  # 0 = unvisited, 1 = done

    def visit(start: int) -> int:
        stack = [start]
        order: List[int] = []
        seen = {start}
        while stack:
            cur = stack.pop()
            order.append(cur)
            for s in succ[cur]:
                if state[s] or s in seen:
                    continue
                seen.add(s)
                stack.append(s)
        # Process in reverse discovery order; cycles (which the caller
        # rejects separately via the topo stall path) degrade to a safe
        # under-approximation only for the erroring run.
        for cur in reversed(order):
            m = 0
            for s in succ[cur]:
                m |= (1 << s) | masks[s]
            masks[cur] = m
            state[cur] = 1
        return masks[start]

    for i in range(n):
        if not state[i]:
            visit(i)
    return masks


def issue_pool_overlap(
    context: "Context", queues: Sequence["CommandQueue"]
) -> None:
    """Issue every deferred command of ``queues`` in overlap-aware order."""
    graph: CommandGraph = build_command_graph(queues)
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return
    engine = context.platform.engine

    eligible_q = {id(q): _queue_eligible(context, q) for q in queues}
    by_cmd = {id(node.command): node for node in nodes}

    # ------------------------------------------------------------------
    # Relaxed issue-order predecessors.
    # ------------------------------------------------------------------
    preds: List[Set[int]] = [set() for _ in range(n)]
    # Conflict-restoration producers per node (subset of preds for
    # relaxed nodes; extra *execution* deps for non-relaxed nodes whose
    # ordering path may have run through a relaxed queue).
    restore: List[Set[int]] = [set() for _ in range(n)]

    for node in nodes:
        if not eligible_q[id(node.queue)]:
            # FIFO-mode structure: head-of-line + deferred wait producers.
            preds[node.index].update(node.blocks_on)
            continue
        # Relaxed: only explicit wait-list producers within the pool.
        for event in node.command.wait_events:
            if not event.deferred:
                continue
            producer = by_cmd.get(id(event.command))
            if producer is not None and producer.index != node.index:
                preds[node.index].add(producer.index)

    # Markers/barriers stay full fences within relaxed queues.
    for q in queues:
        if not eligible_q[id(q)]:
            continue
        earlier: List[int] = []
        fence: Optional[int] = None
        for cmd in q.pending:
            node = by_cmd[id(cmd)]
            if cmd.kind in (CommandKind.MARKER, CommandKind.BARRIER):
                preds[node.index].update(earlier)
                fence = node.index
            elif fence is not None:
                preds[node.index].add(fence)
            earlier.append(node.index)

    # Restore the original happens-before direction for every conflicting
    # pair: relaxation must never unorder what FIFO issue ordered.
    for i in range(n):
        a = nodes[i]
        for j in range(i + 1, n):
            b = nodes[j]
            if not _conflicts(a, b):
                continue
            if graph.happens_before(i, j):
                preds[j].add(i)
                restore[j].add(i)
            elif graph.happens_before(j, i):
                preds[i].add(j)
                restore[i].add(j)
            # Unordered conflicting pairs raced under FIFO too; that is
            # the sanitizer's finding to report, not ours to invent an
            # order for.

    # ------------------------------------------------------------------
    # Safety check: relaxed reachability preserves all original ordering
    # between conflicting commands.
    # ------------------------------------------------------------------
    succ: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for p in preds[i]:
            succ[p].append(i)
    masks = _reachable(succ, n)
    for i in range(n):
        a = nodes[i]
        for j in range(i + 1, n):
            b = nodes[j]
            if not _conflicts(a, b):
                continue
            if graph.happens_before(i, j) and not masks[i] & (1 << j):
                raise InvalidOperation(
                    f"overlap issue would unorder conflicting commands "
                    f"{a.label} -> {b.label}"
                )
            if graph.happens_before(j, i) and not masks[j] & (1 << i):
                raise InvalidOperation(
                    f"overlap issue would unorder conflicting commands "
                    f"{b.label} -> {a.label}"
                )

    # ------------------------------------------------------------------
    # Dependency-driven ready heap, transfers first.
    # ------------------------------------------------------------------
    indeg = [len(preds[i]) for i in range(n)]
    for node, _event in graph.orphans:
        # Orphaned wait: the producer is neither issued nor pooled; the
        # node can never become ready (mirrors the FIFO stall).
        indeg[node.index] += 1
    heap = [
        (_KIND_RANK.get(nodes[i].command.kind, 2), i)
        for i in range(n)
        if indeg[i] == 0
    ]
    heapq.heapify(heap)

    # Pre-epoch tails anchor relaxed commands behind prior epochs.
    tails: Dict[int, Optional["SimTask"]] = {
        id(q): q._tail for q in queues if eligible_q[id(q)]
    }
    issued_nodes: Dict[int, List[CommandNode]] = {id(q): [] for q in queues}
    issued = 0
    while heap:
        _rank, i = heapq.heappop(heap)
        node = nodes[i]
        q = node.queue
        if eligible_q[id(q)]:
            odeps: List["SimTask"] = []
            tail = tails[id(q)]
            if tail is not None:
                odeps.append(tail)
            for p in preds[i]:
                t = nodes[p].command.event.task
                if t is not None:
                    odeps.append(t)
            q.issue_pending(node.command, ordering_deps=odeps)
        else:
            extra = [
                nodes[p].command.event.task
                for p in restore[i]
                if nodes[p].command.event.task is not None
            ]
            assert q.pending and q.pending[0] is node.command
            q.issue_pending(extra_deps=extra or None)
        issued_nodes[id(q)].append(node)
        issued += 1
        for s in succ[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(
                    heap, (_KIND_RANK.get(nodes[s].command.kind, 2), s)
                )

    if issued < n:
        from repro.analysis.validator import describe_deadlock

        remaining = [q for q in queues if q.pending]
        detail = describe_deadlock(remaining)
        if detail is None:
            stuck = {q.name: len(q.pending) for q in remaining}
            detail = f"stuck pending counts: {stuck}"
        raise InvalidOperation(
            f"cross-queue dependency deadlock while issuing: {detail}"
        )

    # ------------------------------------------------------------------
    # Per-queue epoch joins: restore the in-order tail at the boundary.
    # ------------------------------------------------------------------
    for q in queues:
        if not eligible_q[id(q)]:
            continue
        epoch = issued_nodes[id(q)]
        if not epoch:
            continue
        join_deps = [
            node.command.event.task
            for node in epoch
            if node.command.event.task is not None
        ]
        join = engine.task(
            name=f"overlap-join@{q.name}",
            duration=0.0,
            deps=join_deps,
            category="marker",
        )
        q._tail = join
        q._outstanding.append(join)

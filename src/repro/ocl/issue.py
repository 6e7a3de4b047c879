"""The pool issuer: every deferred command of a pool, in dependency order.

Schedulers hand their mapped pool to
:meth:`~repro.ocl.context.Context.issue_pool`, which lands here.  One
predecessor graph over the pool's deferred commands feeds one ready heap
(DESIGN.md §12):

* a queue that is not :func:`relaxed` keeps its FIFO edges
  (:attr:`~repro.analysis.graph.CommandNode.blocks_on`); with no relaxed
  queue the heap key is ``(sweep, pool position)``, pass-based FIFO issue,
  whose order every checksum pins;
* a relaxed queue keeps only wait-list producers and marker/barrier
  fences, every conflicting pair of the pool is restored to its original
  happens-before direction (within an in-order queue by a chain of
  consecutive accesses per buffer, :func:`_conflict_edges`; every other
  pair on its own, checked before anything issues), and the key is
  ``(kind rank, node index)`` (:data:`~repro.ocl.queue.COMMAND_KINDS`)
  so uploads prefetch ahead of compute; an ``overlap-join`` task then
  restores each relaxed queue's tail.

A relaxed pool's edges depend only on its shape (:func:`_pool_shape`), so
each context keeps the edges of its last :data:`POOL_SHAPE_CACHE_SIZE`
shapes and rebuilds the graph only on a miss.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

from repro.ocl.enums import CommandKind, SchedFlag
from repro.ocl.errors import InvalidOperation
from repro.ocl.queue import COMMAND_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.queue import Command, CommandQueue

__all__ = ["issue_pool", "relaxed"]

_OVERLAP_MASK = SchedFlag.SCHED_OVERLAP.value

#: Relaxed-pool shapes whose edges one context keeps; the oldest entry is
#: dropped first.
POOL_SHAPE_CACHE_SIZE = 64


def relaxed(context: "Context", queue: "CommandQueue") -> bool:
    """Whether ``queue``'s program order is relaxed at issue: in-order and
    opted into overlap (``SCHED_OVERLAP`` or the context's ``overlap``).
    Out-of-order queues already carry their minimal ordering explicitly."""
    if queue.out_of_order:
        return False
    return context.overlap or bool(queue._flag_bits & _OVERLAP_MASK)


def issue_pool(
    context: "Context",
    pool: Sequence["CommandQueue"],
    before_issue: Optional[Callable[["CommandQueue", "Command"], None]] = None,
) -> None:
    """Issue every deferred command of ``pool`` in dependency order.

    ``before_issue(queue, command)`` runs just before each command issues.
    Raises :class:`~repro.ocl.errors.InvalidOperation` naming the wait-list
    cycle or orphaned event when some command can never issue.
    """
    queues = [q for q in pool if q.pending]
    if not queues:
        return
    relax = [relaxed(context, q) for q in queues]
    owner = [pos for pos, q in enumerate(queues) for _ in q.pending]
    commands = [cmd for q in queues for cmd in q.pending]
    n = len(commands)
    if any(relax):
        cache = context.pool_shapes
        shape = _pool_shape(queues, relax, commands)
        edges = cache.get(shape)
        if edges is None:
            # A shape whose edges raise is never stored.
            preds, restore, succ, indeg = _relaxed_edges(queues, relax)
            rank = [COMMAND_KINDS[cmd.kind._value_][2] for cmd in commands]
            edges = (preds, restore, succ, indeg, rank)
            if len(cache) >= POOL_SHAPE_CACHE_SIZE:
                del cache[next(iter(cache))]
            cache[shape] = edges
        # The issue loop only reads the cached edges, except indeg.
        preds, restore, succ, indeg, rank = edges
        indeg = list(indeg)
        heap = [(rank[i], i) for i in range(n) if indeg[i] == 0]
    else:
        succ, indeg = _fifo_edges(commands, owner)
        preds = restore = rank = None
        heap = [(0, owner[i], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    # Pre-epoch tails anchor relaxed commands behind prior epochs.
    tails = [q._tail for q in queues]
    epochs: List[List["Command"]] = [[] for _ in queues]
    issued = 0
    while heap:
        key = heapq.heappop(heap)
        i = key[-1]
        while i is not None:
            pos = owner[i]
            q, cmd = queues[pos], commands[i]
            if before_issue is not None:
                before_issue(q, cmd)
            if relax[pos]:
                odeps = [] if tails[pos] is None else [tails[pos]]
                odeps += [
                    t for p in preds[i]
                    if (t := commands[p].task) is not None
                ]
                q.issue_pending(cmd, ordering_deps=odeps)
                epochs[pos].append(cmd)
            else:
                assert q.pending[0] is cmd
                extra = restore and [
                    t for p in restore[i]
                    if (t := commands[p].task) is not None
                ]
                q.issue_pending(extra_deps=extra or None)
            issued += 1
            ready, i = succ[i], None
            for s in ready:
                indeg[s] -= 1
                if indeg[s]:
                    continue
                if rank is not None:
                    heapq.heappush(heap, (rank[s], s))
                elif owner[s] == pos:
                    # Same-queue drain: (sweep, pos) would pop next anyway,
                    # as every other queued key is a later position or sweep.
                    i = s
                else:
                    # A later queue still comes up in this sweep; an
                    # earlier one has been passed and waits for the next.
                    sweep = key[0] if owner[s] > pos else key[0] + 1
                    heapq.heappush(heap, (sweep, owner[s], s))
    if issued < n:
        raise _deadlock(queues)
    # Per-queue epoch joins restore each relaxed queue's in-order tail.
    engine = context.platform.engine
    for q, epoch in zip(queues, epochs):
        if epoch:
            join = engine.task(
                name=f"overlap-join@{q.name}",
                duration=0.0,
                deps=[t for c in epoch if (t := c.task) is not None],
                category="marker",
            )
            q._tail = join
            q._outstanding.append(join)


def _pool_shape(
    queues: List["CommandQueue"], relax: List[bool], commands: List["Command"]
) -> tuple:
    """Everything :func:`_relaxed_edges` reads, with identities replaced by
    pool-local indexes: per queue ``(relaxed, out_of_order, pending
    count)``; per command its kind, its read and write sets as first-touch
    buffer indexes, and its still-deferred wait producers as pool indexes
    (-1 for an orphan).  Two pools of one shape get the same edges."""
    index = {id(c): k for k, c in enumerate(commands)}
    buffers: Dict[int, int] = {}
    touch = buffers.setdefault
    shape: List[tuple] = [
        (r, q.out_of_order, len(q.pending)) for q, r in zip(queues, relax)
    ]
    for cmd in commands:
        reads, writes = cmd.access_sets()
        shape.append((
            cmd.kind,
            tuple([touch(id(b), len(buffers)) for b in reads]),
            tuple([touch(id(b), len(buffers)) for b in writes]),
            tuple([
                index.get(id(e), -1)
                for e in cmd.wait_events if e.deferred
            ]),
        ))
    return tuple(shape)


def _fifo_edges(
    commands: List["Command"], owner: List[int]
) -> Tuple[List[List[int]], List[int]]:
    """Successor lists and indegrees of a pool with no relaxed queue, built
    straight from ``pending`` and the wait lists: no labels, access sets
    or reachability."""
    index: Optional[Dict[int, int]] = None  # built on the first wait
    succ: List[List[int]] = [[] for _ in commands]
    indeg = [0] * len(commands)
    for i, cmd in enumerate(commands):
        if i and owner[i - 1] == owner[i]:
            succ[i - 1].append(i)  # head-of-line
            indeg[i] += 1
        for event in cmd.wait_events:
            if event.deferred:
                if index is None:
                    index = {id(c): k for k, c in enumerate(commands)}
                producer = index.get(id(event))
                if producer is not None:
                    succ[producer].append(i)
                indeg[i] += 1  # an orphaned wait is never ready
    return succ, indeg


def _relaxed_edges(queues: List["CommandQueue"], relax: List[bool]):
    """``(preds, restore, succ, indeg)`` of a pool with a relaxed queue;
    ``restore[i]`` holds the conflict-restoration producers of node ``i``.
    Raises if the relaxed edges leave unordered a conflicting pair that
    the original graph ordered."""
    from repro.analysis.graph import (
        buffer_accesses, build_command_graph, reach_masks,
    )

    graph = build_command_graph(queues)
    nodes = graph.nodes
    relaxed_q = {id(q): r for q, r in zip(queues, relax)}
    preds: List[Set[int]] = []
    fence: Optional[int] = None
    earlier: List[int] = []
    for node in nodes:
        blocks = node.blocks_on
        if not relaxed_q[id(node.queue)]:
            preds.append(set(blocks))
            continue
        # Relaxed: wait-list producers only (no head-of-line edge), and
        # markers/barriers stay full fences within the queue.
        preds.append(set(blocks[1:] if node.position else blocks))
        if node.position == 0:
            fence, earlier = None, []
        if node.command.kind in (CommandKind.MARKER, CommandKind.BARRIER):
            preds[-1].update(earlier)
            fence = node.index
        elif fence is not None:
            preds[-1].add(fence)
        earlier.append(node.index)

    # Restore the original happens-before direction of every conflicting
    # pair.  (Unordered conflicting pairs raced under FIFO too; that is the
    # sanitizer's finding to report, not ours to invent an order for.)
    # Non-relaxed nodes also get them as execution deps: their ordering
    # path may have run through a relaxed queue.  Within an in-order queue
    # the direction is program order and the chain edges imply it; every
    # other pair is restored and checked alone.
    chain, pairs = _conflict_edges(buffer_accesses(nodes))
    restore: List[Set[int]] = [set() for _ in nodes]
    for i, j in chain:
        preds[j].add(i)
        restore[j].add(i)
    for i, j in pairs:
        if graph.happens_before(i, j):
            preds[j].add(i)
            restore[j].add(i)
        elif graph.happens_before(j, i):
            preds[i].add(j)
            restore[i].add(j)
    succ: List[List[int]] = [[] for _ in nodes]
    for i, ps in enumerate(preds):
        for p in ps:
            succ[p].append(i)
    reach = reach_masks(succ) if pairs else []
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            if graph.happens_before(a, b) and not reach[a] >> b & 1:
                raise InvalidOperation(
                    f"overlap issue would unorder conflicting commands "
                    f"{nodes[a].label} -> {nodes[b].label}"
                )
    indeg = [len(ps) for ps in preds]
    for node, _event in graph.orphans:
        indeg[node.index] += 1  # an orphaned wait is never ready
    return preds, restore, succ, indeg


def _conflict_edges(
    accesses_by_buffer: Sequence[tuple],
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(chain, pairs)`` of conflicting accesses, each ``(earlier, later)``
    in node order, from :func:`~repro.analysis.graph.buffer_accesses`.

    ``chain`` holds, per buffer and in-order queue, only consecutive
    conflicting accesses: the last writer to each reader after it, and
    those readers, or that writer when there are none, to the next writer.
    Their transitive closure orders every conflicting pair of the queue in
    program order, with edges linear in the accesses rather than
    quadratic.  ``pairs`` holds every other conflicting pair: across
    queues, and within an out-of-order queue.
    """
    chain: Set[Tuple[int, int]] = set()
    pairs: Set[Tuple[int, int]] = set()
    for _buf, accesses in accesses_by_buffer:
        # Nodes come queue by queue, so each queue's accesses are one run,
        # starting at ``start``.
        start, writer, readers = 0, None, []
        for k, (node, writes) in enumerate(accesses):
            queue, i = node.queue, node.index
            if k and accesses[k - 1][0].queue is not queue:
                start, writer, readers = k, None, []
            earlier = accesses[:k] if queue.out_of_order else accesses[:start]
            pairs.update(
                (a.index, i) for a, a_writes in earlier if a_writes or writes
            )
            if queue.out_of_order:
                continue
            if writes:
                if readers:
                    chain.update((p, i) for p in readers)
                elif writer is not None:
                    chain.add((writer, i))
                writer, readers = i, []
            else:
                if writer is not None:
                    chain.add((writer, i))
                readers.append(i)
    return sorted(chain), sorted(pairs)


def _deadlock(queues: Sequence["CommandQueue"]) -> InvalidOperation:
    """The error for a pool some of whose commands can never issue, naming
    the dependency cycle (or orphaned event) when there is one."""
    from repro.analysis.validator import describe_deadlock

    remaining = [q for q in queues if q.pending]
    detail = describe_deadlock(remaining)
    if detail is None:
        stuck = {q.name: len(q.pending) for q in remaining}
        detail = f"stuck pending counts: {stuck}"
    return InvalidOperation(
        f"cross-queue dependency deadlock while issuing: {detail}"
    )

"""Cross-queue command DAG for a scheduled ready-queue pool.

The runtime may re-map command queues to devices behind the user's back, so
the only ordering that survives scheduling is the one expressed through the
command graph itself: intra-queue program order (in-order queues), barriers
(out-of-order queues), and explicit event wait lists.  This module builds
that graph for a pool of queues holding deferred commands, in two views:

* **issue-blocking edges** (:attr:`CommandNode.blocks_on`) — what must
  issue before a command can issue.  These are the FIFO edges of the pool
  issuer (:mod:`repro.ocl.issue`): every command blocks on its queue
  predecessor (head-of-line issue, even on out-of-order queues) and on
  every still-deferred wait-list event.  A cycle here is a guaranteed
  issue deadlock.
* **happens-before edges** (:attr:`CommandNode.hb_succ`) — what is
  guaranteed to *execute* before what.  In-order queues chain program
  order; out-of-order queues order only around barriers; wait lists order
  producer before waiter.  Two commands touching the same buffer with no
  happens-before path between them race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.ocl.enums import CommandKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.memory import Buffer
    from repro.ocl.queue import Command, CommandQueue

__all__ = [
    "CommandNode",
    "CommandGraph",
    "buffer_accesses",
    "build_command_graph",
    "conflict_pairs",
    "reach_masks",
]


@dataclass
class CommandNode:
    """One deferred command in the pool graph."""

    index: int
    queue: "CommandQueue"
    position: int  # position within queue.pending
    command: "Command"
    label: str
    reads: Tuple["Buffer", ...]
    writes: Tuple["Buffer", ...]
    #: node indexes this command must wait for before it can *issue*
    blocks_on: List[int] = field(default_factory=list)
    #: node indexes guaranteed to execute *after* this command
    hb_succ: List[int] = field(default_factory=list)


@dataclass
class CommandGraph:
    """The pool DAG plus everything the validator needs alongside it."""

    nodes: List[CommandNode]
    #: (waiting node, unissuable event) pairs found while resolving wait
    #: lists: the event's command is neither issued nor pending on any
    #: pooled queue, so the waiter can never become ready.
    orphans: List[Tuple[CommandNode, "Command"]]

    # -- reachability over happens-before edges -------------------------
    def happens_before(self, a: int, b: int) -> bool:
        """True if node ``a`` is ordered (transitively) before node ``b``."""
        return bool(self._reach_masks()[a] & (1 << b))

    def ordered(self, a: int, b: int) -> bool:
        """True if a happens-before path runs either way between the two."""
        masks = self._reach_masks()
        return bool(masks[a] & (1 << b)) or bool(masks[b] & (1 << a))

    def _reach_masks(self) -> List[int]:
        """Per-node bitmask of transitively reachable nodes (hb edges)."""
        cached = getattr(self, "_reach_cache", None)
        if cached is None:
            cached = self._reach_cache = reach_masks(
                [node.hb_succ for node in self.nodes]
            )
        return cached

    # -- deadlock detection over issue-blocking edges --------------------
    def find_issue_cycle(self) -> Optional[List[CommandNode]]:
        """First cycle in the issue-blocking graph, or None.

        Returns the nodes along the cycle in wait order (each node blocks
        on the next; the last blocks on the first).
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.nodes)
        for root in range(len(self.nodes)):
            if color[root] != WHITE:
                continue
            # Iterative DFS keeping the grey path explicit.
            stack: List[Tuple[int, int]] = [(root, 0)]
            path: List[int] = []
            while stack:
                node, edge = stack[-1]
                if edge == 0:
                    color[node] = GREY
                    path.append(node)
                deps = self.nodes[node].blocks_on
                if edge < len(deps):
                    stack[-1] = (node, edge + 1)
                    dep = deps[edge]
                    if color[dep] == GREY:
                        # path[i] blocks on path[i+1]; the back edge
                        # node -> dep closes the loop.
                        cycle = path[path.index(dep):]
                        return [self.nodes[i] for i in cycle]
                    if color[dep] == WHITE:
                        stack.append((dep, 0))
                else:
                    stack.pop()
                    path.pop()
                    color[node] = BLACK
        return None


def reach_masks(succ: Sequence[Sequence[int]]) -> List[int]:
    """Per-node bitmask of the nodes transitively reachable over ``succ``
    (bit ``j`` of entry ``i`` set when a path runs from ``i`` to ``j``)."""
    n = len(succ)
    masks = [0] * n
    for start in range(n):
        seen = 1 << start
        stack = [start]
        while stack:
            cur = stack.pop()
            # Reuse already-computed masks (cur < start is complete).
            done = masks[cur]
            if cur != start and done:
                seen |= done
                continue
            for nxt in succ[cur]:
                bit = 1 << nxt
                if not seen & bit:
                    seen |= bit
                    stack.append(nxt)
        masks[start] = seen & ~(1 << start)
    return masks


def buffer_accesses(
    nodes: Sequence[CommandNode],
) -> List[Tuple["Buffer", List[Tuple[CommandNode, bool]]]]:
    """Per buffer the nodes touch, in first-touch order: ``(buffer,
    accesses)``, where ``accesses`` lists ``(node, writes?)`` in node
    order, one entry per node (a node that reads and writes the buffer
    counts as a writer)."""
    #: buffer id -> (buffer, [(node, writes?)] in node order)
    touches: Dict[int, Tuple["Buffer", List[Tuple[CommandNode, bool]]]] = {}
    for node in nodes:
        write_ids = {id(b) for b in node.writes}
        for buf in node.writes + node.reads:
            entry = touches.get(id(buf))
            if entry is None:
                entry = touches[id(buf)] = (buf, [])
            elif entry[1][-1][0] is node:
                continue  # this node already touched the buffer
            entry[1].append((node, id(buf) in write_ids))
    return list(touches.values())


def conflict_pairs(
    nodes: Sequence[CommandNode],
) -> Iterator[Tuple["Buffer", CommandNode, CommandNode, bool]]:
    """Every ``(buffer, a, b, both_write)`` where nodes ``a`` and ``b``
    touch ``buffer`` and at least one of them writes it.

    Built on :func:`buffer_accesses`: buffers come in first-touch order,
    and ``a`` precedes ``b`` in node order.  A pair touching several
    buffers appears once per buffer.
    """
    for buf, accesses in buffer_accesses(nodes):
        for i, (a, a_writes) in enumerate(accesses):
            for b, b_writes in accesses[i + 1:]:
                if a_writes or b_writes:
                    yield buf, a, b, a_writes and b_writes


def _node_label(queue: "CommandQueue", position: int, command: "Command") -> str:
    return f"{queue.name}[{position}]:{command.kind.value}"


def build_command_graph(pool: Sequence["CommandQueue"]) -> CommandGraph:
    """Build the command DAG over every deferred command of ``pool``."""
    nodes: List[CommandNode] = []
    by_command: Dict[int, CommandNode] = {}
    for q in pool:
        for pos, cmd in enumerate(q.pending):
            reads, writes = cmd.access_sets()
            node = CommandNode(
                index=len(nodes),
                queue=q,
                position=pos,
                command=cmd,
                label=_node_label(q, pos, cmd),
                reads=reads,
                writes=writes,
            )
            nodes.append(node)
            by_command[id(cmd)] = node

    graph = CommandGraph(nodes=nodes, orphans=[])

    for q in pool:
        prev: Optional[CommandNode] = None
        last_barrier: Optional[CommandNode] = None
        queue_nodes: List[CommandNode] = []
        for pos, cmd in enumerate(q.pending):
            node = by_command[id(cmd)]
            # Issue order is head-of-line on every queue (issue_pool only
            # ever considers pending[0]).
            if prev is not None:
                node.blocks_on.append(prev.index)
            # Happens-before: program order (in-order) or barriers (OOO).
            if not q.out_of_order:
                if prev is not None:
                    prev.hb_succ.append(node.index)
            elif cmd.kind is CommandKind.BARRIER:
                for earlier in queue_nodes:
                    if node.index not in earlier.hb_succ:
                        earlier.hb_succ.append(node.index)
                last_barrier = node
            elif last_barrier is not None:
                last_barrier.hb_succ.append(node.index)
            # Wait lists: producer happens-before waiter; a still-deferred
            # producer also blocks issue.
            for event in cmd.wait_events:
                if not event.deferred:
                    continue  # already issued: ordered before the whole pool
                producer = by_command.get(id(event))
                if producer is None:
                    graph.orphans.append((node, event))
                    continue
                if producer.index != node.index:
                    node.blocks_on.append(producer.index)
                    producer.hb_succ.append(node.index)
            prev = node
            queue_nodes.append(node)
    return graph

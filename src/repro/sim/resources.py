"""FIFO resources: serial servers for simulated tasks.

A :class:`FifoResource` serves one task at a time in arrival order.  Devices
expose one resource per execution engine (compute unit stream) and the node
topology exposes one per transfer link (e.g. the PCIe lane shared by both
GPUs on socket 1), so link contention is modelled for free.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import SimTask

__all__ = ["FifoResource"]


class FifoResource:
    """A single-server FIFO queue: the task in service and those waiting.

    A plain record: the :class:`~repro.sim.engine.SimEngine` that tasks
    are submitted to starts, queues and completes them here.  Busy time
    and served counts per resource come from the engine's trace
    (:meth:`~repro.sim.trace.Trace.by_resource`,
    :meth:`~repro.sim.trace.Trace.counts_by_resource`).

    Parameters
    ----------
    name:
        Trace label, e.g. ``"dev:gpu0"`` or ``"link:pcie-s1"``.
    """

    __slots__ = ("name", "_queue", "_busy")

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: Deque["SimTask"] = deque()
        self._busy: Optional["SimTask"] = None

    def pending_tasks(self) -> list:
        """In-service task (if any) followed by the waiting queue.

        Fault injection uses this to sweep unfinished work off a failed
        resource.
        """
        out = [self._busy] if self._busy is not None else []
        out.extend(self._queue)
        return out

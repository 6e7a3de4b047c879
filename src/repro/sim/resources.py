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
    from repro.sim.engine import SimEngine, SimTask

__all__ = ["FifoResource"]


class FifoResource:
    """A single-server FIFO queue bound to a :class:`~repro.sim.engine.SimEngine`.

    Parameters
    ----------
    engine:
        Owning engine; tasks served here advance its clock.
    name:
        Trace label, e.g. ``"dev:gpu0"`` or ``"link:pcie-s1"``.
    """

    __slots__ = ("engine", "name", "_queue", "_busy", "busy_time", "served")

    def __init__(self, engine: "SimEngine", name: str) -> None:
        self.engine = engine
        self.name = name
        self._queue: Deque["SimTask"] = deque()
        self._busy: Optional["SimTask"] = None
        #: accumulated busy seconds (for utilisation accounting)
        self.busy_time = 0.0
        #: number of tasks served to completion
        self.served = 0

    @property
    def busy(self) -> bool:
        """Whether a task is currently in service."""
        return self._busy is not None

    @property
    def backlog(self) -> int:
        """Number of tasks waiting (excluding the one in service)."""
        return len(self._queue)

    def pending_tasks(self) -> list:
        """In-service task (if any) followed by the waiting queue.

        Fault injection uses this to sweep unfinished work off a failed
        resource.
        """
        out = [self._busy] if self._busy is not None else []
        out.extend(self._queue)
        return out

    # Called by the engine -------------------------------------------------
    # (Completing the task in service, and starting the next, is folded into
    # SimEngine._finish, and SimEngine.task begins service on an idle
    # server itself.)
    def _enqueue(self, task: "SimTask") -> None:
        if self._busy is None and not self._queue:
            # Idle server, empty queue: begin service directly instead of
            # paying a deque append/popleft round-trip per task.
            self._busy = task
            self.engine._begin(task)
            return
        self._queue.append(task)
        self._dispatch()

    def _dispatch(self) -> None:
        if self._busy is None and self._queue:
            task = self._queue.popleft()
            self._busy = task
            self.engine._begin(task)

    # Called by SimEngine.abort -------------------------------------------
    def _remove(self, task: "SimTask") -> None:
        """Drop a queued (not yet in-service) task."""
        self._queue.remove(task)

    def _abort_service(self, task: "SimTask") -> None:
        """Cancel the in-service task; partial service counts as busy time."""
        assert self._busy is task
        if task.start_time is not None:
            self.busy_time += max(self.engine.now - task.start_time, 0.0)
        self._busy = None
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.busy else "idle"
        return f"FifoResource({self.name!r}, {state}, backlog={self.backlog})"

"""cl_event objects.

An event tracks one command through the deferred-issue pipeline:

* ``QUEUED`` — command recorded on its queue, not yet issued to a device
  (automatic-scheduling queues hold commands here until the scheduler maps
  the queue, exactly like MultiCL's ready-queue pool);
* ``SUBMITTED`` — issued; simulated tasks exist on device/link resources;
* ``COMPLETE`` — the command's final simulated task finished; profiling
  timestamps are available.

``Event.wait()`` is the blocking host call: it triggers the context's
scheduler if the owning queue still has deferred work, then advances the
virtual clock to the command's completion.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, TYPE_CHECKING

from repro.ocl.enums import EventStatus
from repro.ocl.errors import InvalidEventWaitList, InvalidOperation

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.queue import Command, CommandQueue
    from repro.sim.engine import SimTask

__all__ = ["Event", "wait_for_events"]

_ids = itertools.count(1)


class Event:
    """Completion handle for one enqueued command."""

    __slots__ = ("id", "queue", "command")

    def __init__(self, queue: "CommandQueue", command: "Command") -> None:
        self.id = next(_ids)
        self.queue = queue
        #: The event owns its command; the command never points back, so
        #: neither object is part of a reference cycle (DESIGN.md §6).
        self.command = command

    @property
    def task(self) -> Optional["SimTask"]:
        """The command's simulated task; ``None`` while deferred."""
        return self.command.task

    @property
    def status(self) -> EventStatus:
        task = self.command.task
        if task is None:
            return EventStatus.QUEUED
        if task.done:
            return EventStatus.COMPLETE
        return EventStatus.SUBMITTED

    @property
    def complete(self) -> bool:
        task = self.command.task
        return task is not None and task.done

    @property
    def deferred(self) -> bool:
        """Still awaiting issue: no simulated task bound, command unissued.

        The command-graph sanitizer treats deferred events as live graph
        edges; issued events are ordered before the whole pool.
        """
        command = self.command
        return command.task is None and not command.issued

    # Profiling info (CL_PROFILING_COMMAND_START/END analogues) ----------
    @property
    def profile_start(self) -> float:
        if not self.complete:
            raise InvalidOperation("profiling info unavailable before completion")
        assert self.task is not None and self.task.start_time is not None
        return self.task.start_time

    @property
    def profile_end(self) -> float:
        if not self.complete:
            raise InvalidOperation("profiling info unavailable before completion")
        assert self.task is not None and self.task.end_time is not None
        return self.task.end_time

    def set_callback(self, fn) -> None:
        """clSetEventCallback(CL_COMPLETE): run ``fn(event)`` on completion.

        Fires immediately if already complete; otherwise defers until the
        command's simulated task finishes.  While the command is still
        deferred awaiting the scheduler, the callback waits on the command
        and :meth:`~repro.ocl.queue.CommandQueue.issue` moves it onto the
        task.
        """
        if self.complete:
            fn(self)
            return

        def callback(_task: "SimTask") -> None:
            fn(self)

        command = self.command
        if command.task is not None:
            command.task.on_complete(callback)
        elif command.callbacks is None:
            command.callbacks = [callback]
        else:
            command.callbacks.append(callback)

    def wait(self) -> None:
        """Block the simulated host until this command completes."""
        if self.complete:
            return
        context = self.queue.context
        if self.task is None:
            # Command still deferred: a blocking wait is a synchronization
            # point, which is exactly when the scheduler triggers.
            context._sync_pending(trigger_queue=self.queue)
        if self.task is None:
            raise InvalidOperation(
                f"event {self.id} still unissued after scheduler trigger "
                f"(queue {self.queue.name!r})"
            )
        context.platform.engine.run_until(self.task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.id}, {self.command.kind.value}, {self.status.name})"


def wait_for_events(events: Sequence[Event]) -> None:
    """clWaitForEvents: block until every event in the list completes."""
    if not events:
        raise InvalidEventWaitList("empty event wait list")
    contexts = {e.queue.context for e in events}
    if len(contexts) > 1:
        raise InvalidEventWaitList("events span multiple contexts")
    for e in events:
        e.wait()

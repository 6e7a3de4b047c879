"""Command queues with deferred issue and implicit data migration.

A queue created with ``SCHED_OFF`` behaves like stock OpenCL: it is bound to
the device chosen at creation time and commands issue immediately.  A queue
created with ``SCHED_AUTO_*`` flags participates in automatic scheduling:
while scheduling is *active*, enqueued commands are held on the queue (the
MultiCL ready-queue pool) until a synchronization trigger lets the scheduler
profile the batch, pick a device, and issue everything.

For ``SCHED_EXPLICIT_REGION`` queues, scheduling is active only between
``clSetCommandQueueSchedProperty(SCHED_AUTO_*)`` and ``(SCHED_OFF)`` calls;
outside the region the queue runs on its current binding — which is how the
paper's NPB drivers restrict profiling to the warm-up iterations.

Issuing a kernel inserts implicit migrations for arguments not resident on
the target device (H2D from host, or D2H+H2D staged through the host when
the valid copy lives on another device), charges the kernel's modelled
execution time on the device's FIFO resource, runs the functional payload,
and updates residency.

Queues are in-order by default: every command implicitly depends on its
predecessor.  With ``out_of_order=True`` (the stock OpenCL
``CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE``), commands respect only their
explicit wait lists and :meth:`CommandQueue.enqueue_barrier` points — so a
transfer and a kernel from the same queue can overlap across the link and
device resources (classic double buffering).  Functional payloads still run
at issue time; as in real OpenCL, racing commands without events on shared
buffers are undefined.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.ocl.enums import CommandKind, EventStatus, SchedFlag
from repro.ocl.errors import (
    DeviceNotAvailable,
    InvalidCommandQueue,
    InvalidContext,
    InvalidEventWaitList,
    InvalidOperation,
    InvalidValue,
    MemAllocationFailure,
)
from repro.ocl.kernel import Kernel, WorkGroupConfig
from repro.ocl.memory import HOST, Buffer
from repro.sim.engine import _ABORTED, _DONE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.sim.engine import SimTask

__all__ = ["Command", "CommandQueue", "Event", "wait_for_events"]

_queue_ids = itertools.count(0)
_event_ids = itertools.count(1)

#: Pre-extracted flag masks for the enqueue fast path (see auto_active).
_AUTO_MASK = (SchedFlag.SCHED_AUTO_STATIC | SchedFlag.SCHED_AUTO_DYNAMIC).value
_EXPLICIT_REGION_MASK = SchedFlag.SCHED_EXPLICIT_REGION.value

#: Task states :meth:`CommandQueue.finish` no longer waits on.
_SETTLED = (_DONE, _ABORTED)

#: Flag values already warned about as contradictory (warn once per value,
#: mirroring the knob reader's warn-once pattern in :mod:`repro.knobs` —
#: queue creation sits on workload hot paths).
_warned_flag_values: set = set()


def _check_flag_hygiene(flags: SchedFlag) -> None:
    """Warn once per flag value on contradictory SCHED_* combinations.

    ``SCHED_SPLIT`` and ``SCHED_OVERLAP`` are capabilities of the automatic
    scheduler: without ``SCHED_AUTO_*`` (which also covers the literal
    ``SCHED_OFF | SCHED_SPLIT``, since ``SCHED_OFF`` is the empty set) the
    flag can never take effect, which is almost certainly a bug in the
    caller's flag arithmetic.
    """
    if flags.is_auto or flags.value in _warned_flag_values:
        return
    dead = [
        name
        for name, bit in (
            ("SCHED_SPLIT", SchedFlag.SCHED_SPLIT),
            ("SCHED_OVERLAP", SchedFlag.SCHED_OVERLAP),
        )
        if flags & bit
    ]
    if not dead:
        return
    _warned_flag_values.add(flags.value)
    warnings.warn(
        f"contradictory scheduling flags {flags!r}: {'/'.join(dead)} "
        f"requires SCHED_AUTO_STATIC or SCHED_AUTO_DYNAMIC and will never "
        f"take effect on a manually scheduled queue",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass(slots=True, eq=False, repr=False)
class Command:
    """One enqueued operation, possibly deferred, and its own ``cl_event``.

    As in OpenCL, an event is the handle of exactly one command, so the
    command is its event (``Event`` names this class): every enqueue
    returns it, wait lists hold it, and it carries the event API.

    Slotted, and equal only to itself: two launches of one kernel with
    unchanged arguments share one argument snapshot, and removing one of
    them from a pending list must not remove the other.
    """

    kind: CommandKind
    #: the events this command waits for; the shared ``()`` when empty
    wait_events: Tuple["Command", ...] = ()
    # write/read/copy payloads
    buffer: Optional[Buffer] = None
    host_array: Optional[Any] = None
    nbytes: int = 0
    src_buffer: Optional[Buffer] = None
    # kernel payload
    kernel: Optional[Kernel] = None
    launch: Optional[WorkGroupConfig] = None
    args_snapshot: Dict[int, Any] = field(default_factory=dict)
    #: buffer arguments of ``args_snapshot`` in argument order, and the
    #: ones the kernel writes (:meth:`Kernel.snapshot`)
    arg_buffers: Tuple[Buffer, ...] = ()
    written_buffers: Tuple[Buffer, ...] = ()
    # filled in by the queue
    #: the queue it was enqueued on (DESIGN.md §6, "Object lifetimes")
    queue: Optional["CommandQueue"] = None
    #: simulated task of the issued command (``None`` while deferred)
    task: Optional["SimTask"] = None
    #: completion callbacks registered while deferred; issue moves them
    #: onto :attr:`task`
    callbacks: Optional[List[Any]] = None
    #: failed issue attempts (fault injection); replays skip the functional
    #: payload so non-idempotent kernels run exactly once
    attempts: int = 0
    #: task of the aborted incarnation awaiting adoption by the replay
    aborted_task: Optional[Any] = None
    #: multi-device work-splitting plan attached by the scheduler
    #: (:class:`repro.core.split.SplitPlan`); ``None`` = unsplit launch
    split_plan: Optional[Any] = None
    #: event number, unique and increasing process-wide (``ev#N``)
    id: int = field(init=False, default_factory=_event_ids.__next__)

    @property
    def is_kernel(self) -> bool:
        return self.kind is CommandKind.NDRANGE_KERNEL

    @property
    def issued(self) -> bool:
        return self.task is not None

    def deps_ready(self) -> bool:
        """All wait-list events already have simulated tasks bound."""
        return all(e.task is not None for e in self.wait_events)

    def access_sets(self) -> "Tuple[Tuple[Buffer, ...], Tuple[Buffer, ...]]":
        """``(reads, writes)`` buffer tuples for hazard analysis.

        Kernel write sets are :attr:`written_buffers`, which follow the
        ``writes=`` source annotation (without one, every buffer argument
        counts as written — the same rule issue applies to residency);
        kernel arguments are all counted as read, since the runtime cannot
        see whether a written argument is also consumed.  Markers and
        barriers touch no buffers.
        """
        if self.kind is CommandKind.NDRANGE_KERNEL:
            return self.arg_buffers, self.written_buffers
        if self.kind in (CommandKind.WRITE_BUFFER, CommandKind.FILL_BUFFER):
            assert self.buffer is not None
            return (), (self.buffer,)
        if self.kind is CommandKind.READ_BUFFER:
            assert self.buffer is not None
            return (self.buffer,), ()
        if self.kind is CommandKind.COPY_BUFFER:
            assert self.buffer is not None and self.src_buffer is not None
            return (self.src_buffer,), (self.buffer,)
        return (), ()

    # -- the event API ---------------------------------------------------
    @property
    def status(self) -> EventStatus:
        """``QUEUED`` while deferred (automatic-scheduling queues hold
        commands until the scheduler maps the queue, like MultiCL's
        ready-queue pool), ``SUBMITTED`` once issued, ``COMPLETE`` once the
        command's final simulated task finished."""
        task = self.task
        if task is None:
            return EventStatus.QUEUED
        if task.done:
            return EventStatus.COMPLETE
        return EventStatus.SUBMITTED

    @property
    def complete(self) -> bool:
        task = self.task
        return task is not None and task.done

    @property
    def deferred(self) -> bool:
        """Still awaiting issue: no simulated task bound.

        The command-graph sanitizer treats deferred events as live graph
        edges; issued events are ordered before the whole pool.
        """
        return self.task is None

    # Profiling info (CL_PROFILING_COMMAND_START/END analogues) ----------
    @property
    def profile_start(self) -> float:
        return self._completed_task().start_time

    @property
    def profile_end(self) -> float:
        return self._completed_task().end_time

    def _completed_task(self) -> "SimTask":
        if not self.complete:
            raise InvalidOperation("profiling info unavailable before completion")
        return self.task

    def set_callback(self, fn) -> None:
        """clSetEventCallback(CL_COMPLETE): run ``fn(event)`` on completion.

        Fires immediately if already complete; otherwise defers until the
        command's simulated task finishes.  While the command is still
        deferred awaiting the scheduler, the callback waits in
        :attr:`callbacks` and :meth:`CommandQueue.issue` moves it onto the
        task.
        """
        if self.complete:
            fn(self)
            return

        def callback(_task: "SimTask") -> None:
            fn(self)

        self.on_complete(callback)

    def on_complete(self, fn) -> None:
        """Run ``fn(task)`` when the command's simulated task finishes.

        The engine-level hook under :meth:`set_callback`, without its
        per-call wrapper: ``fn`` gets the finished
        :class:`~repro.sim.engine.SimTask` (its ``end_time`` is
        :attr:`profile_end`), so one bound handler can serve every command
        of a stream.
        """
        if self.task is not None:
            self.task.on_complete(fn)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def wait(self) -> None:
        """Block the simulated host until this command completes."""
        if self.complete:
            return
        queue = self.queue
        context = queue.context
        if self.task is None:
            # Command still deferred: a blocking wait is a synchronization
            # point, which is exactly when the scheduler triggers.
            context._sync_pending(trigger_queue=queue)
        if self.task is None:
            raise InvalidOperation(
                f"event {self.id} still unissued after scheduler trigger "
                f"(queue {queue.name!r})"
            )
        context.platform.engine.run_until(self.task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(#{self.id}, {self.kind.value}, {self.status.name})"


#: The ``cl_event`` of a command is the command itself.
Event = Command


def wait_for_events(events: Sequence[Command]) -> None:
    """clWaitForEvents: block until every event in the list completes."""
    if not events:
        raise InvalidEventWaitList("empty event wait list")
    if not all(isinstance(e, Command) and e.queue for e in events):
        raise InvalidEventWaitList("wait list entry is not an enqueued event")
    contexts = {e.queue.context for e in events}
    if len(contexts) > 1:
        raise InvalidEventWaitList("events span multiple contexts")
    for e in events:
        e.wait()


def _checked_nbytes(nbytes: Optional[int], limit: int) -> int:
    """A transfer's byte count: ``limit`` (the buffer size, for a copy the
    smaller of the two) when ``nbytes`` is ``None``, else ``nbytes`` once it
    is known to lie in ``(0, limit]`` (``CL_INVALID_VALUE`` otherwise)."""
    if nbytes is None:
        return limit
    n = int(nbytes)
    if not 0 < n <= limit:
        raise InvalidValue(f"nbytes {n} outside 1..{limit}")
    return n


def _transfer(dst: Any, src: Any, nbytes: int, whole: int) -> None:
    """Move a transfer of ``nbytes`` bytes (``whole`` is the full size).

    A whole transfer assigns element-wise, ``dst[...] = src`` (numpy casts,
    and broadcasts a fill value).  A partial one copies only the first
    ``nbytes`` bytes, through byte views of both arrays; a scalar ``src``
    (a fill value) repeats as a pattern of ``dst``'s element type.
    """
    if nbytes >= whole:
        dst[...] = src
        return
    if np.ndim(src) == 0:
        src = np.full(-(-nbytes // dst.itemsize), src, dst.dtype)
    head = np.frombuffer(dst, np.uint8)[:nbytes]
    head[:] = np.frombuffer(np.ascontiguousarray(src), np.uint8)[: head.size]


class CommandQueue:
    """cl_command_queue with the proposed scheduling extensions."""

    def __init__(
        self,
        context: "Context",
        device_name: Optional[str] = None,
        sched_flags: SchedFlag = SchedFlag.SCHED_OFF,
        name: Optional[str] = None,
        out_of_order: bool = False,
    ) -> None:
        self.id = next(_queue_ids)
        self.context = context
        self.name = name or f"queue{self.id}"
        #: Tenant tag propagated into every task meta this queue issues
        #: (``None`` outside multi-tenant service mode — zero overhead).
        #: The dict is shared per queue; task factories merge it into fresh
        #: per-task meta dicts, so no mutable state is aliased.
        self._tenant_meta: Optional[Dict[str, Any]] = (
            {"tenant": context.tenant} if context.tenant is not None else None
        )
        #: CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE: commands respect only
        #: their explicit wait lists (and barriers), so transfers and
        #: kernels from one queue may overlap across resources.
        self.out_of_order = bool(out_of_order)
        if device_name is None:
            device_name = context.device_names[0]
        if device_name not in context.device_names:
            raise InvalidValue(
                f"device {device_name!r} not in context devices "
                f"{context.device_names}"
            )
        if sched_flags.is_auto and context.scheduler is None:
            raise InvalidOperation(
                f"queue {self.name!r} requests automatic scheduling but the "
                f"context has no CL_CONTEXT_SCHEDULER property"
            )
        #: Current device binding (may be rebound by the scheduler).
        self.device = device_name
        self._sched_flags = sched_flags
        #: ``sched_flags.value`` for the per-launch bit tests
        #: (:attr:`auto_active`, :func:`repro.ocl.issue.relaxed`): the
        #: enum's ``value`` property and operator protocol are an order of
        #: magnitude slower.  Written only together with ``_sched_flags``.
        self._flag_bits: int = sched_flags.value
        _check_flag_hygiene(sched_flags)
        #: Explicit-region state: scheduling active inside start/stop marks.
        self.region_active = False
        #: Deferred commands awaiting a scheduler trigger.  Commands join
        #: by append only; every other change goes through
        #: :meth:`issue_pending` or :meth:`requeue_unfinished`.
        self.pending: List[Command] = []
        #: Count of changes to :attr:`pending` other than an append, so
        #: incremental readers of the list (the fair-share arbiter's running
        #: cost sums) know when what they summed is no longer a prefix.
        self.pending_edits = 0
        #: Shared kernel-task meta of the current epoch (:meth:`_issue_kernel`
        #: builds it once per epoch; each task copies it into its own meta).
        self._kernel_meta: Optional[Dict[str, Any]] = None
        #: Tail of the issued in-order chain (in-order queues).
        self._tail: Optional["SimTask"] = None
        #: Every issued, not-yet-awaited task (finish() drains these; the
        #: settled front leaves earlier, see :meth:`_shed_settled`).
        self._outstanding: List["SimTask"] = []
        #: Issued commands not yet known complete (fault recovery requeues
        #: from this list when a device fails).
        self._inflight: List[Command] = []
        #: Last barrier task (out-of-order queues order around barriers).
        self._barrier: Optional["SimTask"] = None
        #: Completed synchronization epochs (for trace accounting).
        self.epoch_index = 0
        #: History of device bindings chosen by the scheduler.
        self.binding_history: List[str] = [device_name]
        self.released = False
        context._register_queue(self)
        if context.scheduler is not None:
            context.scheduler.on_queue_created(self)

    # ------------------------------------------------------------------
    # Scheduling state
    # ------------------------------------------------------------------
    @property
    def sched_flags(self) -> SchedFlag:
        """The queue's SCHED_* flags (changed by :meth:`set_sched_property`)."""
        return self._sched_flags

    @property
    def auto_active(self) -> bool:
        """Whether commands enqueued *now* should be deferred."""
        flags = self._flag_bits
        if not flags & _AUTO_MASK:
            return False
        if flags & _EXPLICIT_REGION_MASK:
            return self.region_active
        return True

    def set_sched_property(self, flags: SchedFlag) -> None:
        """The proposed ``clSetCommandQueueSchedProperty`` (Section IV.B).

        Passing flags containing ``SCHED_AUTO_*`` starts a scheduling
        region (and merges any additional hint flags); passing ``SCHED_OFF``
        (an empty flag set) stops it, freezing the current device binding.
        """
        self._check_alive()
        scheduler = self.context.scheduler
        if flags.is_auto:
            if scheduler is None:
                raise InvalidOperation(
                    "cannot start a scheduling region without a context scheduler"
                )
            self._sched_flags |= flags
            self._flag_bits = self._sched_flags.value
            _check_flag_hygiene(self._sched_flags)
            if not self.region_active:
                self.region_active = True
                scheduler.on_region_start(self)
        else:
            if self.region_active:
                self.region_active = False
                if scheduler is not None:
                    scheduler.on_region_stop(self)
                # Stopping a region is a scheduling boundary: anything still
                # deferred is scheduled now.
                if self.pending:
                    self.context._sync_pending(trigger_queue=self)

    def rebind(self, device_name: str) -> None:
        """Scheduler-driven device rebinding."""
        if device_name not in self.context.device_names:
            raise InvalidValue(f"unknown device {device_name!r}")
        if device_name != self.device:
            self.device = device_name
        self.binding_history.append(device_name)

    # ------------------------------------------------------------------
    # Enqueue API
    # ------------------------------------------------------------------
    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        host_array: Optional[Any] = None,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueWriteBuffer (host → queue's device)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.WRITE_BUFFER,
            wait_events=self._waits(wait_events),
            buffer=buffer,
            host_array=host_array,
            nbytes=_checked_nbytes(nbytes, buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        host_array: Optional[Any] = None,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueReadBuffer (queue's device → host)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.READ_BUFFER,
            wait_events=self._waits(wait_events),
            buffer=buffer,
            host_array=host_array,
            nbytes=_checked_nbytes(nbytes, buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_fill_buffer(
        self,
        buffer: Buffer,
        value: float = 0.0,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueFillBuffer: device-side constant fill (no host traffic)."""
        self._check_alive()
        self._check_buffer(buffer)
        cmd = Command(
            kind=CommandKind.FILL_BUFFER,
            wait_events=self._waits(wait_events),
            buffer=buffer,
            host_array=value,
            nbytes=_checked_nbytes(nbytes, buffer.nbytes),
        )
        return self._enqueue(cmd)

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueCopyBuffer (device-side copy)."""
        self._check_alive()
        self._check_buffer(src)
        self._check_buffer(dst)
        cmd = Command(
            kind=CommandKind.COPY_BUFFER,
            wait_events=self._waits(wait_events),
            src_buffer=src,
            buffer=dst,
            nbytes=_checked_nbytes(nbytes, min(src.nbytes, dst.nbytes)),
        )
        return self._enqueue(cmd)

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueNDRangeKernel.

        The launch configuration is recorded but, per the proposed
        ``clSetKernelWorkGroupInfo`` semantics, it is ignored for devices
        that carry a pre-set per-device configuration.

        The common launch issues here in one pass: a queue that is not
        deferring, an empty wait list, an available device and every
        argument buffer resident on it.  Its only dependency is the
        in-order tail (out-of-order: the last barrier), and it leaves the
        queue exactly as :meth:`issue` would.  Any other launch takes the
        general :meth:`_enqueue` path.
        """
        self._check_alive()
        kernel.check_args_set()
        launch = WorkGroupConfig.normalize(global_size, local_size)
        args, buffers, written = kernel.snapshot()
        waits = self._waits(wait_events) if wait_events else ()
        # Fields by position (kind, wait_events, buffer, host_array, nbytes,
        # src_buffer, kernel, launch, args_snapshot, arg_buffers,
        # written_buffers, queue): the generated __init__ takes keywords at
        # about twice the cost, and this runs once per launch.
        cmd = Command(
            CommandKind.NDRANGE_KERNEL, waits, None, None, 0, None,
            kernel, launch, args, buffers, written, self,
        )
        device = self.device
        if (
            waits
            or (self._flag_bits & _AUTO_MASK and self.auto_active)
            # Platform.is_available, without the call
            or device in self.context.platform._failed_devices
        ):
            return self._enqueue(cmd)
        for buf in buffers:
            if device not in buf._valid_on:
                return self._enqueue(cmd)
        prior = self._barrier if self.out_of_order else self._tail
        task = self._launch(cmd, [prior] if prior is not None else [])
        cmd.task = task
        self._tail = task
        out = self._outstanding
        if out and out[0].state in _SETTLED:
            self._shed_settled()
        out.append(task)
        self._inflight.append(cmd)
        return cmd

    def enqueue_marker(self, wait_events: Sequence[Command] = ()) -> Command:
        """clEnqueueMarkerWithWaitList."""
        self._check_alive()
        cmd = Command(kind=CommandKind.MARKER, wait_events=self._waits(wait_events))
        return self._enqueue(cmd)

    def enqueue_barrier(self, wait_events: Sequence[Command] = ()) -> Command:
        """clEnqueueBarrierWithWaitList: an intra-queue ordering point.

        On an out-of-order queue the barrier waits for everything issued so
        far and every later command waits for the barrier.  On an in-order
        queue it is equivalent to a marker.
        """
        self._check_alive()
        cmd = Command(kind=CommandKind.BARRIER, wait_events=self._waits(wait_events))
        return self._enqueue(cmd)

    def _waits(self, wait_events: Sequence[Command]) -> Tuple[Command, ...]:
        """``wait_events`` as a checked tuple, the shared ``()`` when empty:
        every entry an enqueued command (``CL_INVALID_EVENT_WAIT_LIST``)
        of this queue's context (``CL_INVALID_CONTEXT``)."""
        if not wait_events:
            return ()
        waits = tuple(wait_events)
        for e in waits:
            if not isinstance(e, Command) or e.queue is None:
                raise InvalidEventWaitList(f"{e!r} is not an enqueued event")
            if e.queue.context is not self.context:
                raise InvalidContext(f"event {e.id} is of another context")
        return waits

    def _enqueue(self, cmd: Command) -> Command:
        cmd.queue = self
        if self.auto_active:
            self.pending.append(cmd)
            scheduler = self.context.scheduler
            assert scheduler is not None
            scheduler.on_enqueue(self, cmd)
        else:
            if cmd.wait_events:
                self._ensure_deps_issued(cmd)
            self.issue(cmd)
        return cmd

    def _ensure_deps_issued(self, cmd: Command) -> None:
        """An immediate command whose wait list references deferred events
        forces those queues to schedule first (a cross-queue sync point)."""
        for e in cmd.wait_events:
            if e.deferred:
                self.context._sync_pending(trigger_queue=e.queue)
        if not cmd.deps_ready():
            raise InvalidOperation(
                f"queue {self.name!r}: wait-list event still unissued after "
                f"scheduler trigger"
            )

    # ------------------------------------------------------------------
    # Issue path (runs once the queue is bound to a device)
    # ------------------------------------------------------------------
    def issue_pending(
        self,
        cmd: Optional[Command] = None,
        ordering_deps: Optional[List["SimTask"]] = None,
        extra_deps: Optional[List["SimTask"]] = None,
    ) -> Command:
        """Take ``cmd`` (default: the head) off :attr:`pending`, issue it,
        and return it.  Issuers must use this, not ``pending.pop``, so
        :attr:`pending_edits` counts the removal."""
        if cmd is None:
            cmd = self.pending.pop(0)
        else:
            self.pending.remove(cmd)
        self.pending_edits += 1
        self.issue(cmd, ordering_deps, extra_deps)
        return cmd

    def issue(
        self,
        cmd: Command,
        ordering_deps: Optional[List["SimTask"]] = None,
        extra_deps: Optional[List["SimTask"]] = None,
    ) -> None:
        """Issue one command to the queue's current device.

        ``ordering_deps`` (relaxed queues of the pool issuer,
        :mod:`repro.ocl.issue`) *replaces* the implicit in-order tail /
        out-of-order barrier chaining with an explicit dependency list, and
        leaves ``_tail`` untouched — the issuer installs a per-epoch join
        task instead.  ``extra_deps`` *adds* dependencies on top of the normal
        chaining (used to restore cross-queue conflict ordering whose
        original happens-before path ran through a relaxed queue).
        """
        if cmd.task is not None:
            raise InvalidCommandQueue(f"command {cmd.kind} issued twice")
        deps: List["SimTask"] = []
        if cmd.wait_events:
            deps = [e.task for e in cmd.wait_events]
            if None in deps:
                raise InvalidCommandQueue(
                    f"queue {self.name!r}: issuing {cmd.kind} before its wait list"
                )
        if not self.context.platform.is_available(self.device):
            raise DeviceNotAvailable(
                f"queue {self.name!r}: device {self.device!r} failed; "
                f"rebind the queue or use an automatic scheduler"
            )
        node = self.context.platform.node
        engine = self.context.platform.engine
        if extra_deps:
            deps.extend(extra_deps)
        if ordering_deps is not None:
            deps.extend(ordering_deps)
        elif self.out_of_order:
            # Only barriers impose intra-queue order.
            if self._barrier is not None:
                deps.append(self._barrier)
        elif self._tail is not None:
            deps.append(self._tail)

        if cmd.kind is CommandKind.NDRANGE_KERNEL:
            # First branch: kernels dominate every scheduled workload.
            if cmd.split_plan is not None:
                task = self._issue_split_kernel(cmd, deps)
            else:
                task = self._issue_kernel(cmd, deps)
        elif cmd.kind is CommandKind.WRITE_BUFFER:
            assert cmd.buffer is not None
            self._check_capacity((cmd.buffer,))
            task = node.submit_h2d(
                self.device, cmd.nbytes, deps=deps, category="transfer",
                name=f"write:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.host_array is not None and cmd.buffer.array is not None:
                _transfer(cmd.buffer.array, cmd.host_array, cmd.nbytes,
                          cmd.buffer.nbytes)
            cmd.buffer.mark_exclusive(HOST)
            cmd.buffer.mark_valid(self.device)
        elif cmd.kind is CommandKind.READ_BUFFER:
            assert cmd.buffer is not None
            mig = self._migrations_for([cmd.buffer], deps, category="migration")
            task = node.submit_d2h(
                self.device, cmd.nbytes, deps=deps + mig, category="transfer",
                name=f"read:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.host_array is not None and cmd.buffer.array is not None:
                _transfer(cmd.host_array, cmd.buffer.array, cmd.nbytes,
                          cmd.buffer.nbytes)
            cmd.buffer.mark_valid(HOST)
        elif cmd.kind is CommandKind.FILL_BUFFER:
            assert cmd.buffer is not None
            self._check_capacity((cmd.buffer,))
            task = node.device(self.device).submit_intradevice_copy(
                cmd.nbytes, deps=deps, category="transfer",
                name=f"fill:{cmd.buffer.name}", meta=self._tenant_meta,
            )
            if cmd.buffer.array is not None:
                _transfer(cmd.buffer.array, cmd.host_array, cmd.nbytes,
                          cmd.buffer.nbytes)
            cmd.buffer.mark_exclusive(self.device)
        elif cmd.kind is CommandKind.COPY_BUFFER:
            assert cmd.buffer is not None and cmd.src_buffer is not None
            mig = self._migrations_for([cmd.src_buffer], deps, category="migration")
            task = node.device(self.device).submit_intradevice_copy(
                cmd.nbytes, deps=deps + mig, category="transfer",
                name=f"copy:{cmd.src_buffer.name}->{cmd.buffer.name}",
                meta=self._tenant_meta,
            )
            if cmd.buffer.array is not None and cmd.src_buffer.array is not None:
                _transfer(cmd.buffer.array, cmd.src_buffer.array, cmd.nbytes,
                          min(cmd.src_buffer.nbytes, cmd.buffer.nbytes))
            cmd.buffer.mark_exclusive(self.device)
        elif cmd.kind is CommandKind.MARKER:
            task = engine.task(
                name=f"marker@{self.name}", duration=0.0, deps=deps,
                category="marker",
            )
        elif cmd.kind is CommandKind.BARRIER:
            barrier_deps = deps + [t for t in self._outstanding if not t.done]
            task = engine.task(
                name=f"barrier@{self.name}", duration=0.0, deps=barrier_deps,
                category="marker",
            )
            self._barrier = task
        else:  # pragma: no cover - exhaustive
            raise InvalidValue(f"unknown command kind {cmd.kind}")

        cmd.task = task
        if cmd.callbacks is not None:
            for fn in cmd.callbacks:
                task.on_complete(fn)
            cmd.callbacks = None
        if cmd.aborted_task is not None:
            # Replay: waiters of the aborted incarnation follow this task.
            engine.adopt(cmd.aborted_task, task)
            cmd.aborted_task = None
        if ordering_deps is None:
            self._tail = task
        out = self._outstanding
        if out and out[0].state in _SETTLED:
            self._shed_settled()
        out.append(task)
        self._inflight.append(cmd)

    def _shed_settled(self) -> None:
        """Drop the settled front of :attr:`_outstanding` and
        :attr:`_inflight`.

        Runs at every scheduling boundary, and at every issue that finds
        the head of :attr:`_outstanding` settled, so a queue that is never
        finished holds its unsettled work, not every command and task it
        ever ran.  An in-order queue settles front first; on other queues
        a settled entry waits behind the first unsettled one.
        """
        out = self._outstanding
        if out and out[0].state in _SETTLED:
            k = 1
            while k < len(out) and out[k].state in _SETTLED:
                k += 1
            del out[:k]
        inflight = self._inflight
        if inflight and inflight[0].task.state in _SETTLED:
            k = 1
            while k < len(inflight) and inflight[k].task.state in _SETTLED:
                k += 1
            del inflight[:k]

    def _issue_kernel(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        device_name = self.device
        buffers = cmd.arg_buffers
        for buf in buffers:
            if device_name not in buf._valid_on:
                # Some argument is not resident yet: check room, move data.
                self._check_capacity(buffers)
                migrations = self._migrations_for(buffers, deps, "migration")
                if migrations:
                    deps = deps + migrations
                break
        return self._launch(cmd, deps)

    def _launch(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Submit an unsplit kernel whose arguments are resident on the
        queue's device, run its payload and mark the written buffers (the
        tail of :meth:`_issue_kernel`, shared with the launch fast path)."""
        kernel = cmd.kernel
        launch = cmd.launch
        assert kernel is not None and launch is not None
        device_name = self.device
        device = self.context.platform.node.device(device_name)
        meta = self._kernel_meta
        if meta is None or meta["epoch"] != self.epoch_index:
            meta = {"queue": self.name, "epoch": self.epoch_index}
            if self._tenant_meta is not None:
                meta.update(self._tenant_meta)
            self._kernel_meta = meta
        task = device.submit_kernel(
            name=kernel.name,
            cost=kernel.launch_cost(device.spec, launch),
            deps=deps,
            category="kernel",
            meta=meta,
        )
        # Functional payload runs in dependency (issue) order — see module
        # doc.  Replays after a device failure only re-charge simulated time:
        # in-place kernels are not idempotent, so exactly-once matters.
        if cmd.attempts == 0 and kernel.host_fn is not None:
            kernel.run_host_function(cmd.args_snapshot)
        for buf in cmd.written_buffers:
            buf.mark_exclusive(device_name)
        return task

    def _issue_split_kernel(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Issue one kernel split across several devices per ``cmd.split_plan``.

        Dimension 0 of the NDRange is partitioned into contiguous per-device
        sub-ranges.  Each device receives the *slices* of the argument
        buffers its sub-range touches (implied sub-buffers, modelled as
        proportional byte-ranged transfers that deliberately do **not** flip
        whole-buffer residency — only a slice moved), runs a sub-range
        launch costed with its own effective workgroup configuration, and
        streams written slices back to the host where the partial results
        merge.  A zero-duration join task stands for the merged completion;
        it becomes the command's task, so downstream consumers observe
        exactly one kernel-completion point, bit-identical to the unsplit
        execution (the functional payload runs once, on the host, over the
        full range).
        """
        kernel = cmd.kernel
        launch = cmd.launch
        plan = cmd.split_plan
        assert kernel is not None and launch is not None and plan is not None
        node = self.context.platform.node
        engine = self.context.platform.engine
        total = launch.global_size[0]
        buffers = list({id(b): b for b in cmd.arg_buffers}.values())
        written = list({id(b): b for b in cmd.written_buffers}.values())
        finals: List["SimTask"] = []
        for device, lo, hi, sub in kernel.split_shares(launch, plan):
            if not self.context.platform.is_available(device):
                raise DeviceNotAvailable(
                    f"queue {self.name!r}: split share [{lo}:{hi}) targets "
                    f"failed device {device!r}"
                )
            dev = node.device(device)
            share = hi - lo
            # ceil(nbytes * share / total), capped at the full buffer
            sizes = {
                id(b): min(b.nbytes, -(-b.nbytes * share // total))
                for b in buffers
            }
            needed = self.context.bytes_to_fit(
                device, ((b, sizes[id(b)]) for b in buffers)
            )
            if needed > dev.spec.mem_size_bytes:
                raise MemAllocationFailure(
                    f"device {device!r}: {needed} bytes needed for split "
                    f"share [{lo}:{hi}), {dev.spec.mem_size_bytes} available"
                )
            moves = [
                self._submit_move(
                    b, device, sizes[id(b)], deps, "migration",
                    f"split:{b.name}[{lo}:{hi}]",
                )
                for b in buffers
                if b.initialized and not b.is_valid_on(device)
            ]
            cost = kernel.config_cost(dev.spec, sub)
            meta: Dict[str, Any] = {
                "queue": self.name,
                "epoch": self.epoch_index,
                "split": f"{lo}:{hi}",
            }
            if self._tenant_meta is not None:
                meta.update(self._tenant_meta)
            sub_task = dev.submit_kernel(
                name=f"{kernel.name}[{lo}:{hi}]",
                cost=cost,
                deps=deps + moves,
                category="kernel",
                meta=meta,
            )
            gathers = [
                node.submit_d2h(
                    device, sizes[id(b)], deps=[sub_task], category="transfer",
                    name=f"gather:{b.name}[{lo}:{hi}]", meta=self._tenant_meta,
                )
                for b in written
            ]
            finals.extend(gathers or [sub_task])
        join = engine.task(
            name=f"split-join:{kernel.name}@{self.name}",
            duration=0.0,
            deps=finals,
            category="marker",
        )
        # Functional payload: once, over the full range (see _issue_kernel).
        if cmd.attempts == 0:
            kernel.run_host_function(cmd.args_snapshot)
        # Merged results live on the host after the gather transfers.
        for buf in written:
            buf.mark_exclusive(HOST)
        return join

    def _migrations_for(
        self,
        buffers: Sequence[Buffer],
        deps: List["SimTask"],
        category: str,
    ) -> List["SimTask"]:
        """Make every buffer resident on the queue's device; return the
        transfer tasks (empty if all data already resident)."""
        tasks: List["SimTask"] = []
        for buf in buffers:
            if buf.is_valid_on(self.device):
                continue
            if not buf.initialized:
                # First touch: allocation only, no data to move.
                buf.mark_valid(self.device)
                continue
            tasks.append(self._submit_move(
                buf, self.device, buf.nbytes, deps, category, f"mig:{buf.name}"
            ))
            buf.mark_valid(self.device)
        return tasks

    def _submit_move(
        self,
        buf: Buffer,
        device: str,
        nbytes: int,
        deps: List["SimTask"],
        category: str,
        name: str,
    ) -> "SimTask":
        """Submit the transfer of ``nbytes`` of ``buf`` to ``device``: H2D
        when the host copy is valid, else D2D from a device holding it.
        The caller keeps the residency bookkeeping."""
        node = self.context.platform.node
        if buf.is_valid_on(HOST):
            return node.submit_h2d(
                device, nbytes, deps=deps, category=category, name=name,
                meta=self._tenant_meta,
            )
        src = buf.any_valid_device()
        assert src is not None
        return node.submit_d2d(
            src, device, nbytes, deps=deps, category=category, name=name,
            meta=self._tenant_meta,
        )

    def _check_capacity(self, incoming: Sequence[Buffer]) -> None:
        """Device-memory capacity check before making ``incoming`` resident."""
        spec = self.context.platform.node.device(self.device).spec
        total = self.context.bytes_to_fit(
            self.device, ((b, b.nbytes) for b in incoming)
        )
        if total > spec.mem_size_bytes:
            raise MemAllocationFailure(
                f"device {self.device!r}: {total} bytes needed, "
                f"{spec.mem_size_bytes} available"
            )

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def requeue_unfinished(self, device: str) -> List[Command]:
        """Pull issued-but-unfinished commands stranded on failed ``device``
        back onto the deferred list for replay; returns them.

        In-order queues replay the contiguous suffix starting at the first
        unfinished command executing on the dead device (everything behind
        it depends on it through the tail chain); the healthy prefix keeps
        draining.  Out-of-order queues replay only the dead-device commands
        — cross-command dependencies are repaired by task adoption when the
        replays issue.  Transfers already on healthy links are left to
        drain (in-flight DMA completes).
        """
        engine = self.context.platform.engine
        resname = f"dev:{device}"
        self._inflight = [
            c for c in self._inflight if c.task is not None and not c.task.done
        ]

        def on_dead(c: Command) -> bool:
            t = c.task
            return t is not None and t.resource is not None and t.resource.name == resname

        if self.out_of_order:
            victims = [c for c in self._inflight if on_dead(c)]
        else:
            first = next(
                (i for i, c in enumerate(self._inflight) if on_dead(c)), None
            )
            victims = [] if first is None else self._inflight[first:]
        if not victims:
            return []
        victim_ids = {id(c) for c in victims}
        self._inflight = [c for c in self._inflight if id(c) not in victim_ids]
        for cmd in victims:
            task = cmd.task
            assert task is not None
            engine.abort(task)
            cmd.aborted_task = task
            cmd.task = None
            cmd.attempts += 1
        # The in-order tail must point at the surviving prefix (or nothing);
        # aborted tasks would otherwise anchor the replayed chain.
        if not self.out_of_order:
            self._tail = self._inflight[-1].task if self._inflight else None
        if self._barrier is not None and self._barrier.aborted:
            self._barrier = None
        # Replays go to the *front* of the deferred list, in original order.
        self.pending[:0] = victims
        self.pending_edits += 1
        return victims

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """clFlush: force deferred commands to be scheduled and issued."""
        self._check_alive()
        if self.pending:
            self.context._sync_pending(trigger_queue=self)

    def finish(self) -> None:
        """clFinish: schedule if needed, then block until the queue drains.

        Fault injection can requeue commands *while* the host blocks here
        (the clock advances inside ``run_until``), so the drain loops until
        no deferred or unfinished work remains.
        """
        self.flush()
        engine = self.context.platform.engine
        while True:
            if self.pending:
                self.context._sync_pending(trigger_queue=self)
                continue
            # Aborted incarnations never complete; their replays were
            # appended to _outstanding when they reissued, so waiting on
            # the live tasks covers them.
            tasks = [t for t in self._outstanding if t.state not in _SETTLED]
            if not tasks:
                break
            engine.run_until(*tasks)
        self._outstanding.clear()
        self._inflight.clear()
        self.epoch_index += 1
        self.context.platform.engine.trace.mark(
            self.context.platform.engine.now, f"epoch:{self.name}:{self.epoch_index}"
        )

    def release(self) -> None:
        """clReleaseCommandQueue (idempotent)."""
        if not self.released:
            if self.pending:
                self.finish()
            self.released = True

    def _check_alive(self) -> None:
        if self.released:
            raise InvalidCommandQueue(f"queue {self.name!r} was released")

    def _check_buffer(self, buffer: Buffer) -> None:
        if buffer.context is not self.context:
            raise InvalidValue(
                f"buffer {buffer.name!r} belongs to a different context"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommandQueue({self.name!r}, device={self.device!r}, "
            f"flags={self.sched_flags!r}, pending={len(self.pending)})"
        )

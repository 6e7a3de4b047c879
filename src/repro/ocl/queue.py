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

from repro.ocl.enums import CommandKind, EventStatus, SchedFlag
from repro.ocl.errors import (
    DeviceNotAvailable,
    InvalidCommandQueue,
    InvalidContext,
    InvalidEventWaitList,
    InvalidOperation,
    InvalidValue,
    MemAllocationFailure,
    MemCopyOverlap,
)
from repro.ocl.kernel import Kernel, WorkGroupConfig, _config_memo
from repro.ocl.memory import HOST, Buffer
from repro.sim.engine import _ABORTED, _DONE
from repro.sim.trace import RECOVERY_CATEGORY

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.split import SplitShare
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
    #: multi-device work-splitting plan attached by the scheduler, one
    #: :class:`repro.core.split.SplitShare` per device; ``None`` = unsplit
    split_plan: Optional[Tuple["SplitShare", ...]] = None
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
        """``(reads, writes)`` buffer tuples for hazard analysis, the
        residency step and the mapper's memory-fit check.

        Kernel write sets are :attr:`written_buffers`, which follow the
        ``writes=`` source annotation (without one, every buffer argument
        counts as written — the same rule issue applies to residency);
        kernel arguments are all counted as read, since the runtime cannot
        see whether a written argument is also consumed.  Markers and
        barriers touch no buffers.
        """
        return COMMAND_KINDS[self.kind._value_][0](self)

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


def _transfer(dst: Any, src: Any, nbytes: int, elementwise: bool) -> None:
    """Move a transfer of ``nbytes`` bytes from ``src`` into ``dst``.

    ``elementwise`` assigns ``dst[...] = src`` (numpy casts, and broadcasts
    a fill value).  Otherwise only the first ``nbytes`` bytes move, through
    byte views of both arrays; a scalar ``src`` (a fill value) repeats as a
    pattern of ``dst``'s element type.
    """
    if elementwise:
        dst[...] = src
        return
    import numpy as np

    if np.ndim(src) == 0:
        src = np.full(-(-nbytes // dst.itemsize), src, dst.dtype)
    head = np.frombuffer(dst, np.uint8)[:nbytes]
    head[:] = np.frombuffer(np.ascontiguousarray(src), np.uint8)[: head.size]


def _host_fits(kind: CommandKind, host: Any, buffer: Buffer, nbytes: int) -> bool:
    """Whether :func:`_transfer` can move ``nbytes`` between ``buffer``'s
    array and ``host`` (a write's source, a read's destination) of another
    shape.  A whole transfer assigns element by element, so the source's
    shape must broadcast to the destination's; a partial one moves bytes.
    A host object without a shape (a list or tuple) is converted: a read
    has nowhere to land in it, a partial write must hold ``nbytes``."""
    import numpy as np

    if not hasattr(host, "shape"):
        if kind is CommandKind.READ_BUFFER:
            return False
        try:
            host = np.asarray(host)
        except ValueError:
            return False
        if nbytes < buffer.nbytes:
            return host.ndim == 0 or host.nbytes >= nbytes
    elif nbytes < buffer.nbytes:
        return True
    src, dst = host.shape, buffer.array.shape
    if kind is CommandKind.READ_BUFFER:
        src, dst = dst, src
    try:
        return np.broadcast_shapes(src, dst) == dst
    except ValueError:
        return False


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
        #: The dict is shared per queue; task factories merge it into meta
        #: dicts that nothing mutates once handed over (repeated launches
        #: and transfers share one), so no mutable state is aliased.
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
        #: The current epoch's kernel-task metas by split share tag
        #: (``"lo:hi"``), ``None`` for an unsplit launch
        #: (:meth:`_launch_meta`): every launch of one share in the epoch
        #: hands the same dict to ``submit_kernel``.  :meth:`finish` starts
        #: the next epoch's table; it starts over past 256 entries.
        self._launch_metas: Dict[Optional[str], Dict[str, Any]] = {}
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
        if flags.is_auto:
            if self.context.scheduler is None:
                raise InvalidOperation(
                    "cannot start a scheduling region without a context scheduler"
                )
            self._sched_flags |= flags
            self._flag_bits = self._sched_flags.value
            _check_flag_hygiene(self._sched_flags)
            self.region_active = True
        elif self.region_active:
            self.region_active = False
            # Stopping a region is a scheduling boundary: anything still
            # deferred is scheduled now.
            if self.pending:
                self.context._sync_pending(trigger_queue=self)

    def rebind(self, device_name: str) -> None:
        """Device rebinding, by a scheduler or by :meth:`issue`.

        Every path that moves a queue calls this, so a move off a failed
        device is recorded here as a remap: a ``recovery`` trace interval
        that fault-recovery accounting counts (``RunStats.remap_count``).
        """
        context = self.context
        if device_name not in context.device_names:
            raise InvalidValue(f"unknown device {device_name!r}")
        old = self.device
        if old != device_name and old in context.platform._failed_devices:
            engine = context.platform.engine
            mapping = getattr(context.scheduler, "last_mapping", None)
            engine.trace.record(
                "host", f"remap:{self.name}", RECOVERY_CATEGORY,
                engine.now, engine.now,
                {
                    "op": "remap",
                    "queue": self.name,
                    "from": old,
                    "to": device_name,
                    "repaired": bool(getattr(mapping, "repaired", False)),
                },
            )
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
        return self._enqueue_transfer(
            CommandKind.WRITE_BUFFER, buffer, nbytes, wait_events, host_array
        )

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        host_array: Optional[Any] = None,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueReadBuffer (queue's device → host)."""
        return self._enqueue_transfer(
            CommandKind.READ_BUFFER, buffer, nbytes, wait_events, host_array
        )

    def enqueue_fill_buffer(
        self,
        buffer: Buffer,
        value: float = 0.0,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueFillBuffer: device-side constant fill (no host traffic)."""
        return self._enqueue_transfer(
            CommandKind.FILL_BUFFER, buffer, nbytes, wait_events, value
        )

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        nbytes: Optional[int] = None,
        wait_events: Sequence[Command] = (),
    ) -> Command:
        """clEnqueueCopyBuffer (device-side copy).

        Copying a region onto an overlapping region of the same data store
        (the buffer itself, or its parent or a sibling sub-buffer) raises
        :class:`MemCopyOverlap`.
        """
        return self._enqueue_transfer(
            CommandKind.COPY_BUFFER, dst, nbytes, wait_events, src=src
        )

    def _enqueue_transfer(
        self,
        kind: CommandKind,
        buffer: Buffer,
        nbytes: Optional[int],
        wait_events: Sequence[Command],
        host_array: Optional[Any] = None,
        src: Optional[Buffer] = None,
    ) -> Command:
        """Check and enqueue a write, read, fill or copy (``src`` → ``buffer``)
        of ``nbytes`` bytes: by default the whole buffer, for a copy the
        smaller of the two; else ``CL_INVALID_VALUE`` outside that, or when
        a write's or read's host array holds fewer bytes, or when
        :func:`_host_fits` says its shape cannot take part."""
        self._check_alive()
        limit = buffer.nbytes
        if src is not None:
            self._check_buffer(src)
            limit = min(src.nbytes, limit)
        self._check_buffer(buffer)
        waits = self._waits(wait_events)
        n = limit if nbytes is None else int(nbytes)
        if not 0 < n <= limit:
            raise InvalidValue(f"nbytes {n} outside 1..{limit}")
        if host_array is not None and kind is not CommandKind.FILL_BUFFER:
            size = getattr(host_array, "nbytes", n)
            if size < n:
                raise InvalidValue(f"host array of {size} bytes, {n} to transfer")
            array = buffer.array
            shape = getattr(host_array, "shape", None)
            if array is not None and shape != array.shape and not _host_fits(
                kind, host_array, buffer, n
            ):
                raise InvalidValue(
                    f"host {type(host_array).__name__} cannot take part "
                    f"in a {n}-byte transfer of {buffer.name!r}"
                )
        if src is not None and (src.parent or src) is (buffer.parent or buffer) and (
            abs(src.origin - buffer.origin) < n
        ):
            raise MemCopyOverlap(f"{n}-byte copy {src.name!r} -> {buffer.name!r}")
        return self._enqueue(Command(kind, waits, buffer, host_array, n, src))

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
        general :meth:`_enqueue` path.  A kernel of another context is
        ``CL_INVALID_CONTEXT``.
        """
        self._check_alive()
        if kernel.program.context is not self.context:
            raise InvalidContext(f"kernel {kernel.name!r} is of another context")
        args, buffers, written = kernel._snapshot or kernel.snapshot()
        try:  # normalize's memo, read first; unhashable sizes convert there
            launch = _config_memo.get((global_size, local_size))
        except TypeError:
            launch = None
        if launch is None:
            launch = WorkGroupConfig.normalize(global_size, local_size)
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
        if self._flag_bits & _AUTO_MASK and self.auto_active:
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

        A queue bound to a failed device first moves to its context's first
        live device (:meth:`rebind` records the remap), or raises
        :class:`DeviceNotAvailable` when none is left.

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
        # Platform.is_available, without the call
        if self.device in self.context.platform._failed_devices:
            live = self.context.active_device_names
            if not live:
                raise DeviceNotAvailable(
                    f"queue {self.name!r}: device {self.device!r} failed and "
                    f"no device of the context is left"
                )
            self.rebind(live[0])
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

        task = COMMAND_KINDS[cmd.kind._value_][1](self, cmd, deps)
        cmd.task = task
        if cmd.callbacks is not None:
            for fn in cmd.callbacks:
                task.on_complete(fn)
            cmd.callbacks = None
        if cmd.aborted_task is not None:
            # Replay: waiters of the aborted incarnation follow this task.
            self.context.platform.engine.adopt(cmd.aborted_task, task)
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
        out, k = self._outstanding, 0
        while k < len(out) and out[k].state in _SETTLED:
            k += 1
        del out[:k]
        inflight, k = self._inflight, 0
        while k < len(inflight) and inflight[k].task.state in _SETTLED:
            k += 1
        del inflight[:k]

    def _issue_kernel(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Issue a kernel: split per its plan, else after the residency
        step on the queue's device."""
        if cmd.split_plan is not None:
            return self._issue_split_kernel(cmd, deps)
        return self._launch(cmd, self._make_resident(cmd, self.device, deps))

    def _issue_barrier(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Issue a barrier: it waits for every unfinished issued task."""
        self._barrier = self.context.platform.engine.task(
            name=f"barrier@{self.name}", duration=0.0,
            deps=deps + [t for t in self._outstanding if not t.done],
            category="marker",
        )
        return self._barrier

    def _issue_transfer(
        self, cmd: Command, deps: List["SimTask"], link: Optional[str]
    ) -> "SimTask":
        """Issue a write (``link`` ``"h2d"``), a read (``"d2h"``), or a fill
        or copy (``None``: within device memory) on the queue's device,
        after the residency step (:meth:`_make_resident`).  A copy moves
        bytes unless both arrays match in shape and element type."""
        buf, src, device, n = cmd.buffer, cmd.src_buffer, self.device, cmd.nbytes
        deps = self._make_resident(cmd, device, deps)
        node = self.context.platform.node
        meta = self._tenant_meta
        dst, data = buf.array, cmd.host_array
        if link == "h2d":
            task = node.submit_h2d(
                device, n, deps=deps, category="transfer",
                name=f"write:{buf.name}", meta=meta,
            )
            buf.mark_exclusive(HOST)
            buf.mark_valid(device)
        elif link == "d2h":
            task = node.submit_d2h(
                device, n, deps=deps, category="transfer",
                name=f"read:{buf.name}", meta=meta,
            )
            dst, data = data, dst
            buf.mark_valid(HOST)
        else:
            task = node.device(device).submit_intradevice_copy(
                n, deps=deps, category="transfer", meta=meta,
                name=f"fill:{buf.name}" if src is None
                else f"copy:{src.name}->{buf.name}",
            )
            if src is not None:
                data = src.array
            buf.mark_exclusive(device)
        if dst is not None and data is not None:
            _transfer(dst, data, n, n >= buf.nbytes and (
                src is None
                or (data.dtype, data.shape) == (dst.dtype, dst.shape)
            ))
        return task

    def _launch_meta(self, tag: Optional[str]) -> Dict[str, Any]:
        """The current epoch's kernel-task meta for split share ``tag``
        (``None``: an unsplit launch), built on the first launch of it."""
        metas = self._launch_metas
        meta = metas.get(tag)
        if meta is None:
            if len(metas) >= 256:
                metas.clear()
            meta = metas[tag] = {"queue": self.name, "epoch": self.epoch_index}
            if tag is not None:
                meta["split"] = tag
            if self._tenant_meta is not None:
                meta.update(self._tenant_meta)
        return meta

    def _launch(self, cmd: Command, deps: List["SimTask"]) -> "SimTask":
        """Submit an unsplit kernel whose arguments are resident on the
        queue's device, run its payload and mark the written buffers
        (:meth:`issue` after the residency step, and the launch fast
        path)."""
        kernel = cmd.kernel
        launch = cmd.launch
        assert kernel is not None and launch is not None
        device_name = self.device
        device = self.context.platform.node.devices[device_name]
        config = kernel.device_configs.get(device_name, launch)
        if kernel._cost_model is None:
            try:  # Kernel.seconds, read inline: this runs once per launch
                seconds = kernel._cost_memo[
                    config.global_size, config.local_size
                ][1][device]
            except KeyError:
                seconds = kernel.seconds(device, config)
        else:
            seconds = kernel.seconds(device, config)
        task = device.submit_kernel(
            kernel.name, seconds, deps, "kernel", False,
            self._launch_metas.get(None) or self._launch_meta(None),
        )
        # Functional payload runs in dependency (issue) order — see module
        # doc.  Replays after a device failure only re-charge simulated time:
        # in-place kernels are not idempotent, so exactly-once matters.
        if cmd.attempts == 0 and kernel.host_fn is not None:
            kernel.run_host_function(cmd.args_snapshot)
        for buf in cmd.written_buffers:
            valid = buf._valid_on
            # mark_exclusive is a no-op on an exclusive, fresh copy
            if len(valid) != 1 or device_name not in valid or buf.host_shadow_stale:
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
        plan = cmd.split_plan
        assert kernel is not None and plan is not None
        node = self.context.platform.node
        engine = self.context.platform.engine
        written = list(dict.fromkeys(cmd.written_buffers))
        touched = dict.fromkeys(b for side in cmd.access_sets() for b in side)
        finals: List["SimTask"] = []
        for share in plan:
            device = share.device
            if not self.context.platform.is_available(device):
                raise DeviceNotAvailable(
                    f"queue {self.name!r}: split share [{share.tag}) targets "
                    f"failed device {device!r}"
                )
            dev = node.device(device)
            sizes = {b: share.slice_bytes(b.nbytes) for b in touched}
            sub_task = dev.submit_kernel(
                name=share.name,
                seconds=kernel.seconds(dev, share.config),
                deps=self._make_resident(cmd, device, deps, share, sizes),
                category="kernel",
                meta=self._launch_meta(share.tag),
            )
            gathers = [
                node.submit_d2h(
                    device, sizes[b],
                    deps=[sub_task], category="transfer",
                    name=f"gather:{b.name}[{share.tag}]", meta=self._tenant_meta,
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
        # Functional payload: once, over the full range (see _launch).
        if cmd.attempts == 0:
            kernel.run_host_function(cmd.args_snapshot)
        # Merged results live on the host after the gather transfers.
        for buf in written:
            buf.mark_exclusive(HOST)
        return join

    def _make_resident(
        self,
        cmd: Command,
        device: str,
        deps: List["SimTask"],
        share: Optional["SplitShare"] = None,
        sizes: Optional[Dict[Buffer, int]] = None,
    ) -> List["SimTask"]:
        """The residency step of every command, and of every split share
        ``[lo, hi)`` of a kernel, on ``device``; returns ``deps`` extended
        by the transfer tasks (``deps`` itself when nothing moves).  A
        share's ``sizes`` are the bytes of each touched buffer's slice.

        A command whose buffers (:meth:`Command.access_sets`) are all
        valid on ``device`` lands nothing there, so it has nothing to check
        or move.  Otherwise every buffer it touches must fit on ``device``
        at once, or :class:`MemAllocationFailure` is raised before anything
        moves.  Then each buffer it reads that is not valid there moves in,
        H2D when the host copy is valid, else D2D from a device holding it.
        A whole command makes those buffers resident (an uninitialized one
        is only allocated); a share moves its slice and leaves whole-buffer
        residency as it was.
        """
        reads, writes = COMMAND_KINDS[cmd.kind._value_][0](cmd)
        touched = reads + writes
        for buf in touched:
            if device not in buf._valid_on:
                break
        else:
            return deps
        if sizes is None:
            sizes = {b: b.nbytes for b in touched}
        context = self.context
        needed = context.overcommit(device, sizes.items())
        if needed:
            where = "" if share is None else f" for split share [{share.tag})"
            available = context.platform.node.device(device).spec.mem_size_bytes
            raise MemAllocationFailure(
                f"device {device!r}: {needed} bytes needed{where}, "
                f"{available} available"
            )
        node = context.platform.node
        moves: List["SimTask"] = []
        for buf in dict.fromkeys(reads):
            if buf.is_valid_on(device):
                continue
            if buf.initialized:
                if share is None:
                    name = f"mig:{buf.name}"
                else:
                    name = f"split:{buf.name}[{share.tag}]"
                if buf.is_valid_on(HOST):
                    move = node.submit_h2d(
                        device, sizes[buf], deps=deps, category="migration",
                        name=name, meta=self._tenant_meta,
                    )
                else:
                    src = buf.any_valid_device()
                    assert src is not None
                    move = node.submit_d2d(
                        src, device, sizes[buf], deps=deps,
                        category="migration", name=name, meta=self._tenant_meta,
                    )
                moves.append(move)
            if share is None:
                buf.mark_valid(device)
        return deps + moves if moves else deps

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
        self._launch_metas = {}
        engine.trace.mark(engine.now, f"epoch:{self.name}:{self.epoch_index}")

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


#: One row per command kind, keyed by the kind's ``_value_`` (reading a
#: ``CommandKind`` member off the class, or hashing one, is a Python-level
#: call): ``(access sets, issue step, relaxed-pool rank, price)``.  The
#: access sets are :meth:`Command.access_sets`; ``step(queue, cmd, deps)``
#: submits the task once :meth:`CommandQueue.issue` gathered its deps; the
#: rank orders a relaxed pool's ready commands (:mod:`repro.ocl.issue`):
#: uploads first (prefetch), then read-backs, compute, synchronisation;
#: ``price(node, device, cmd)`` is what the step charges on ``device``
#: without slowdown or residency moves, the fair-share arbiter's pool price
#: (link prices go through ``node``, so a wrapped ``SimNode`` sees them).
COMMAND_KINDS: Dict[str, tuple] = {
    CommandKind.NDRANGE_KERNEL.value: (
        lambda c: (c.arg_buffers, c.written_buffers),
        CommandQueue._issue_kernel,
        2,
        lambda node, dev, c: c.kernel.seconds(
            dev, c.kernel.device_configs.get(dev.name, c.launch)
        ),
    ),
    CommandKind.WRITE_BUFFER.value: (
        lambda c: ((), (c.buffer,)),
        lambda q, c, deps: q._issue_transfer(c, deps, "h2d"),
        0,
        lambda node, dev, c: node.h2d_seconds(dev.name, c.nbytes),
    ),
    CommandKind.READ_BUFFER.value: (
        lambda c: ((c.buffer,), ()),
        lambda q, c, deps: q._issue_transfer(c, deps, "d2h"),
        1,
        lambda node, dev, c: node.d2h_seconds(dev.name, c.nbytes),
    ),
    CommandKind.FILL_BUFFER.value: (
        lambda c: ((), (c.buffer,)),
        lambda q, c, deps: q._issue_transfer(c, deps, None),
        0,
        lambda node, dev, c: node.d2d_seconds(dev.name, dev.name, c.nbytes),
    ),
    CommandKind.COPY_BUFFER.value: (
        lambda c: ((c.src_buffer,), (c.buffer,)),
        lambda q, c, deps: q._issue_transfer(c, deps, None),
        0,
        lambda node, dev, c: node.d2d_seconds(dev.name, dev.name, c.nbytes),
    ),
    CommandKind.MARKER.value: (
        lambda c: ((), ()),
        lambda q, c, deps: q.context.platform.engine.task(
            name=f"marker@{q.name}", duration=0.0, deps=deps, category="marker"
        ),
        3,
        lambda *a: 0.0,
    ),
    CommandKind.BARRIER.value: (
        lambda c: ((), ()),
        CommandQueue._issue_barrier,
        3,
        lambda *a: 0.0,
    ),
}

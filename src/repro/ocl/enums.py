"""OpenCL constants, including the paper's proposed extensions (Table I).

The stock subset mirrors OpenCL 1.2 names closely enough that the host code
in :mod:`repro.workloads` and :mod:`examples` reads like real OpenCL.  The
extension surface is exactly the paper's:

* ``ContextProperty.CL_CONTEXT_SCHEDULER`` — new context property;
* ``ContextScheduler.ROUND_ROBIN`` / ``AUTO_FIT`` — global policies;
* ``SchedFlag`` — the command-queue local scheduling bitfield
  (``SCHED_OFF``, ``SCHED_AUTO_STATIC``, ``SCHED_AUTO_DYNAMIC``,
  ``SCHED_KERNEL_EPOCH``, ``SCHED_EXPLICIT_REGION``, ``SCHED_ITERATIVE``,
  ``SCHED_COMPUTE_BOUND``, ``SCHED_IO_BOUND``, ``SCHED_MEMORY_BOUND``).
"""

from __future__ import annotations

import enum

__all__ = [
    "DeviceType",
    "ContextProperty",
    "ContextScheduler",
    "SchedFlag",
    "CommandKind",
    "EventStatus",
    "MemFlag",
]


class DeviceType(enum.IntFlag):
    """CL_DEVICE_TYPE_* bitfield."""

    DEFAULT = 1 << 0
    CPU = 1 << 1
    GPU = 1 << 2
    ACCELERATOR = 1 << 3
    ALL = 0xFFFFFFFF


class ContextProperty(enum.IntEnum):
    """Keys accepted in the ``properties`` list of context creation."""

    CL_CONTEXT_PLATFORM = 0x1084
    #: Proposed extension: select the global (context-wide) scheduler.
    CL_CONTEXT_SCHEDULER = 0x5001


class ContextScheduler(enum.IntEnum):
    """Values for :attr:`ContextProperty.CL_CONTEXT_SCHEDULER`."""

    #: Cycle queues over devices at trigger time; least overhead, not
    #: necessarily the optimal mapping.
    ROUND_ROBIN = 1
    #: Decide the optimal queue->device mapping when triggered.
    AUTO_FIT = 2


class SchedFlag(enum.IntFlag):
    """Proposed command-queue local scheduling properties (bitfield).

    ``SCHED_OFF`` opts a queue out of automatic scheduling (manual binding,
    the OpenCL default).  ``SCHED_AUTO_STATIC``/``SCHED_AUTO_DYNAMIC`` opt
    in, trading scheduling speed against optimality (Section V.B/V.C).
    The remaining flags select the scheduler *trigger* (epoch or explicit
    region) and provide workload *hints*.  Two capability flags go beyond
    the paper: ``SCHED_SPLIT`` (multi-device NDRange splitting) and
    ``SCHED_OVERLAP`` (transfer/compute overlap-aware issue).
    """

    SCHED_OFF = 0
    SCHED_AUTO_STATIC = 1 << 0
    SCHED_AUTO_DYNAMIC = 1 << 1
    #: Trigger scheduling when a batch of kernels (kernel epoch) synchronises.
    SCHED_KERNEL_EPOCH = 1 << 2
    #: Trigger scheduling only inside explicit start/stop code regions
    #: (marked via clSetCommandQueueSchedProperty).
    SCHED_EXPLICIT_REGION = 1 << 3
    #: Hint: workload repeats across iterations; cache and reuse profiles.
    SCHED_ITERATIVE = 1 << 4
    #: Hint: compute bound; the runtime uses minikernel profiling.
    SCHED_COMPUTE_BOUND = 1 << 5
    #: Hint: I/O (data transfer) bound.
    SCHED_IO_BOUND = 1 << 6
    #: Hint: memory-bandwidth bound.
    SCHED_MEMORY_BOUND = 1 << 7
    #: Let the scheduler split one kernel epoch across several devices by
    #: partitioning the NDRange into per-device sub-ranges (EngineCL-style
    #: work-splitting).  Requires an automatic scheduling mode.
    SCHED_SPLIT = 1 << 8
    #: Overlap-aware issue: reorder independent commands of this queue so
    #: transfers prefetch and copies run concurrently with kernels, instead
    #: of strict FIFO issue order.
    SCHED_OVERLAP = 1 << 9

    @property
    def is_auto(self) -> bool:
        """Whether the flag set opts into automatic scheduling."""
        return bool(self & (SchedFlag.SCHED_AUTO_STATIC | SchedFlag.SCHED_AUTO_DYNAMIC))

    @property
    def is_dynamic(self) -> bool:
        return bool(self & SchedFlag.SCHED_AUTO_DYNAMIC)

    @property
    def is_static(self) -> bool:
        return bool(self & SchedFlag.SCHED_AUTO_STATIC)


#: Aliases matching the paper's prose ("SCHED_AUTO", "SCHED_MEM_BOUND").
SCHED_AUTO = SchedFlag.SCHED_AUTO_DYNAMIC
SCHED_MEM_BOUND = SchedFlag.SCHED_MEMORY_BOUND


class CommandKind(enum.Enum):
    """Kinds of commands a queue can hold."""

    WRITE_BUFFER = "write_buffer"
    READ_BUFFER = "read_buffer"
    COPY_BUFFER = "copy_buffer"
    FILL_BUFFER = "fill_buffer"
    NDRANGE_KERNEL = "ndrange_kernel"
    MARKER = "marker"
    BARRIER = "barrier"


class EventStatus(enum.IntEnum):
    """CL_* command execution statuses (subset)."""

    QUEUED = 3
    SUBMITTED = 2
    RUNNING = 1
    COMPLETE = 0


class MemFlag(enum.IntFlag):
    """CL_MEM_* flags (subset used by the drivers)."""

    READ_WRITE = 1 << 0
    WRITE_ONLY = 1 << 1
    READ_ONLY = 1 << 2
    COPY_HOST_PTR = 1 << 5

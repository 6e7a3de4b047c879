"""An OpenCL-1.2-style runtime layer over the simulated node.

This package plays the role SnuCL plays in the paper: a vendor-neutral
OpenCL implementation that the MultiCL scheduler (:mod:`repro.core`) extends.
It implements the objects and semantics the paper's extensions touch:

* platforms and devices (:mod:`repro.ocl.platform`),
* contexts with the proposed ``CL_CONTEXT_SCHEDULER`` property
  (:mod:`repro.ocl.context`),
* command queues with the proposed ``SCHED_*`` local scheduling flags and
  deferred command issue (:mod:`repro.ocl.queue`),
* buffers with residency tracking and implicit cross-device migration
  (:mod:`repro.ocl.memory`),
* programs built from annotated toy OpenCL-C source
  (:mod:`repro.ocl.program`, :mod:`repro.ocl.source`),
* kernels with per-device launch configurations — the proposed
  ``clSetKernelWorkGroupInfo`` (:mod:`repro.ocl.kernel`),
* events and synchronization: a command is its own event
  (:class:`~repro.ocl.queue.Command`, also named ``Event``),
* a C-style flat API (:mod:`repro.ocl.api`) so application drivers read
  like the OpenCL host code the paper modifies.

Everything executes on the discrete-event substrate; commands charge
simulated time for kernels, transfers and implicit migrations.
"""

from repro.ocl.enums import (
    CommandKind,
    ContextProperty,
    ContextScheduler,
    DeviceType,
    EventStatus,
    SchedFlag,
)
from repro.ocl.errors import (
    CLError,
    InvalidCommandQueue,
    InvalidContext,
    InvalidDevice,
    InvalidKernel,
    InvalidOperation,
    InvalidValue,
    MemAllocationFailure,
)
from repro.ocl.platform import Platform, get_platforms
from repro.ocl.context import Context
from repro.ocl.queue import CommandQueue, Command, Event
from repro.ocl.memory import Buffer
from repro.ocl.program import Program
from repro.ocl.kernel import Kernel, WorkGroupConfig

__all__ = [
    "CommandKind",
    "ContextProperty",
    "ContextScheduler",
    "DeviceType",
    "EventStatus",
    "SchedFlag",
    "CLError",
    "InvalidCommandQueue",
    "InvalidContext",
    "InvalidDevice",
    "InvalidKernel",
    "InvalidOperation",
    "InvalidValue",
    "MemAllocationFailure",
    "Platform",
    "get_platforms",
    "Context",
    "CommandQueue",
    "Command",
    "Buffer",
    "Program",
    "Kernel",
    "WorkGroupConfig",
    "Event",
]

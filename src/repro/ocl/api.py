"""C-style flat OpenCL API.

Thin wrappers over the object layer so application drivers read like the
OpenCL host code the paper modifies — including the *proposed* entry points
``clSetCommandQueueSchedProperty`` and ``clSetKernelWorkGroupInfo``
(Table I).  The paper counts "about four source lines" of changes per
application; our example drivers make exactly those calls.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.hardware.specs import NodeSpec
from repro.hardware.topology import SimDevice
from repro.ocl.context import Context
from repro.ocl.enums import DeviceType, MemFlag, SchedFlag
from repro.ocl.kernel import Kernel
from repro.ocl.memory import Buffer
from repro.ocl.platform import Platform, get_platforms
from repro.ocl.program import Program
from repro.ocl.queue import CommandQueue, Event, wait_for_events

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "clGetPlatformIDs",
    "clGetDeviceIDs",
    "clCreateSubDevices",
    "clCreateContext",
    "clCreateCommandQueue",
    "clSetCommandQueueSchedProperty",
    "clCreateBuffer",
    "clCreateProgramWithSource",
    "clBuildProgram",
    "clCreateKernel",
    "clSetKernelArg",
    "clSetKernelWorkGroupInfo",
    "clEnqueueNDRangeKernel",
    "clEnqueueWriteBuffer",
    "clEnqueueReadBuffer",
    "clEnqueueCopyBuffer",
    "clEnqueueMarker",
    "clEnqueueBarrier",
    "clWaitForEvents",
    "clFlush",
    "clFinish",
    "clReleaseCommandQueue",
]


def clGetPlatformIDs(
    node_spec: Optional[NodeSpec] = None,
    profile: bool = True,
    profile_dir: Optional[str] = None,
) -> List[Platform]:
    """Discover platforms; triggers the MultiCL device profiler."""
    return get_platforms(node_spec, profile=profile, profile_dir=profile_dir)


def clGetDeviceIDs(
    platform: Platform, device_type: DeviceType = DeviceType.ALL
) -> List[SimDevice]:
    return platform.get_devices(device_type)


def clCreateSubDevices(
    platform: Platform, device: SimDevice, count: int
) -> List[SimDevice]:
    """OpenCL 1.2 device fission (equal partition; paper Section IV.D)."""
    return platform.create_sub_devices(device.name, count)


def clCreateContext(
    platform: Platform,
    devices: Optional[Sequence[SimDevice]] = None,
    properties: Optional[Dict[int, Any]] = None,
) -> Context:
    names = [d.name for d in devices] if devices is not None else None
    return platform.create_context(names, properties)


def clCreateCommandQueue(
    context: Context,
    device: Optional[SimDevice] = None,
    properties: SchedFlag = SchedFlag.SCHED_OFF,
    name: Optional[str] = None,
    out_of_order: bool = False,
) -> CommandQueue:
    device_name = device.name if device is not None else None
    return context.create_queue(
        device_name, properties, name=name, out_of_order=out_of_order
    )


def clSetCommandQueueSchedProperty(queue: CommandQueue, flags: SchedFlag) -> None:
    """Proposed API: start/stop a scheduling region, add hint flags."""
    queue.set_sched_property(flags)


def clCreateBuffer(
    context: Context,
    flags: MemFlag = MemFlag.READ_WRITE,
    size: int = 0,
    host_ptr: Optional[np.ndarray] = None,
    name: Optional[str] = None,
) -> Buffer:
    nbytes = size if size else (host_ptr.nbytes if host_ptr is not None else 0)
    return context.create_buffer(nbytes, flags=flags, host_array=host_ptr, name=name)


def clCreateProgramWithSource(context: Context, source: str) -> Program:
    return context.create_program(source)


def clBuildProgram(program: Program) -> Program:
    return program.build()


def clCreateKernel(program: Program, name: str) -> Kernel:
    return program.create_kernel(name)


def clSetKernelArg(kernel: Kernel, index: int, value: Any) -> None:
    kernel.set_arg(index, value)


def clSetKernelWorkGroupInfo(
    kernel: Kernel,
    device: SimDevice,
    global_size: Sequence[int],
    local_size: Optional[Sequence[int]] = None,
) -> None:
    """Proposed API: per-device kernel launch configuration (Section IV.C)."""
    kernel.set_work_group_info(device.name, global_size, local_size)


def clEnqueueNDRangeKernel(
    queue: CommandQueue,
    kernel: Kernel,
    global_size: Sequence[int],
    local_size: Optional[Sequence[int]] = None,
    wait_events: Sequence[Event] = (),
) -> Event:
    return queue.enqueue_nd_range_kernel(kernel, global_size, local_size, wait_events)


def clEnqueueWriteBuffer(
    queue: CommandQueue,
    buffer: Buffer,
    host_array: Optional[np.ndarray] = None,
    nbytes: Optional[int] = None,
    wait_events: Sequence[Event] = (),
) -> Event:
    return queue.enqueue_write_buffer(buffer, host_array, nbytes, wait_events)


def clEnqueueReadBuffer(
    queue: CommandQueue,
    buffer: Buffer,
    host_array: Optional[np.ndarray] = None,
    nbytes: Optional[int] = None,
    wait_events: Sequence[Event] = (),
) -> Event:
    return queue.enqueue_read_buffer(buffer, host_array, nbytes, wait_events)


def clEnqueueCopyBuffer(
    queue: CommandQueue,
    src: Buffer,
    dst: Buffer,
    nbytes: Optional[int] = None,
    wait_events: Sequence[Event] = (),
) -> Event:
    return queue.enqueue_copy_buffer(src, dst, nbytes, wait_events)


def clEnqueueMarker(queue: CommandQueue, wait_events: Sequence[Event] = ()) -> Event:
    return queue.enqueue_marker(wait_events)


def clEnqueueBarrier(queue: CommandQueue, wait_events: Sequence[Event] = ()) -> Event:
    return queue.enqueue_barrier(wait_events)


def clWaitForEvents(events: Sequence[Event]) -> None:
    wait_for_events(events)


def clFlush(queue: CommandQueue) -> None:
    queue.flush()


def clFinish(queue: CommandQueue) -> None:
    queue.finish()


def clReleaseCommandQueue(queue: CommandQueue) -> None:
    queue.release()

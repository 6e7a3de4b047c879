"""OpenCL-style error hierarchy.

Every error carries a negative ``code`` mirroring the CL error numbering so
C-style host code can check ``err.code == -34`` the way it would check
``CL_INVALID_CONTEXT``.
"""

from __future__ import annotations

__all__ = [
    "CLError",
    "DeviceNotAvailable",
    "InvalidValue",
    "InvalidDevice",
    "InvalidContext",
    "InvalidCommandQueue",
    "InvalidMemObject",
    "InvalidProgram",
    "InvalidKernel",
    "InvalidKernelArgs",
    "InvalidWorkGroupSize",
    "InvalidEventWaitList",
    "InvalidOperation",
    "MemAllocationFailure",
    "MemCopyOverlap",
    "BuildProgramFailure",
]


class CLError(RuntimeError):
    """Base class; ``code`` mirrors the OpenCL error value."""

    code = -9999

    def __init__(self, message: str = "") -> None:
        super().__init__(f"[CL {self.code}] {message}" if message else f"[CL {self.code}]")
        self.message = message


class DeviceNotAvailable(CLError):
    """CL_DEVICE_NOT_AVAILABLE — the device failed or went offline."""

    code = -2


class InvalidValue(CLError):
    code = -30


class InvalidDevice(CLError):
    code = -33


class InvalidContext(CLError):
    code = -34


class InvalidCommandQueue(CLError):
    code = -36


class MemAllocationFailure(CLError):
    """CL_MEM_OBJECT_ALLOCATION_FAILURE — buffer does not fit on device."""

    code = -4


class MemCopyOverlap(CLError):
    """CL_MEM_COPY_OVERLAP — a copy's source and destination regions of one
    data store overlap."""

    code = -8


class InvalidMemObject(CLError):
    code = -38


class BuildProgramFailure(CLError):
    code = -11


class InvalidProgram(CLError):
    code = -44


class InvalidKernel(CLError):
    code = -48


class InvalidKernelArgs(CLError):
    code = -52


class InvalidWorkGroupSize(CLError):
    code = -54


class InvalidEventWaitList(CLError):
    code = -57


class InvalidOperation(CLError):
    code = -59

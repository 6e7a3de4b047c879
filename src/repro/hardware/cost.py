"""Roofline-style kernel cost model.

A kernel's execution time on a device is::

    t = launch_overhead + max(flops / eff_gflops, bytes / eff_bandwidth)

where the effective rates fold in (a) the device's base efficiency for
portable OpenCL code, (b) a divergence penalty on compute, (c) an access
irregularity penalty on bandwidth, (d) occupancy (small launches cannot
saturate a GPU), and (e) an optional per-device-kind efficiency override
supplied by the kernel itself.  The override is how the workloads encode
"this SNU-NPB kernel was ported from MPI Fortran and is unoptimised for
GPUs" (paper Section VI.B.1 / Fig. 3) without hand-picking absolute times.

The same module provides transfer-time and microbenchmark helpers used by
the MultiCL device profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.hardware.specs import DeviceKind, DeviceSpec, LinkSpec

__all__ = [
    "KernelCost",
    "effective_gflops",
    "effective_bandwidth_gbs",
    "kernel_time",
    "workgroup_time",
    "transfer_time",
]

GB = 1e9

# Floor occupancy: even a single work-item launch gets this fraction of the
# device (it still uses one lane); prevents degenerate infinite times.
_MIN_OCCUPANCY = 1e-3


@dataclass(frozen=True)
class KernelCost:
    """Work descriptor for one kernel launch.

    Attributes
    ----------
    flops:
        Total floating-point work in the launch.
    bytes:
        Total device-memory traffic of the launch.
    work_items:
        Global NDRange size (total work items).
    workgroup_size:
        Work-group size used for the launch (needed by minikernel profiling:
        one workgroup's share of the work).
    divergence:
        Branch-divergence intensity in [0, 1].
    irregularity:
        Memory-access irregularity in [0, 1] (0 = fully coalesced/streaming).
    efficiency:
        Optional per-device-kind multiplicative efficiency override,
        e.g. ``{DeviceKind.GPU: 0.08}`` for a kernel whose port is a poor
        match for GPUs.  Defaults to 1.0 for unlisted kinds.
    times:
        Memo of :func:`kernel_time` keyed by the
        :class:`~repro.hardware.topology.SimDevice` that launched the cost,
        for a cost object reused across launches (the annotation model's,
        one per kernel and configuration).  ``None`` — the default, and
        what copies get — means the time is computed on every launch.
    """

    flops: float
    bytes: float
    work_items: int
    workgroup_size: int = 64
    divergence: float = 0.0
    irregularity: float = 0.0
    efficiency: Mapping[DeviceKind, float] = field(default_factory=dict)
    times: Optional[Dict[Any, float]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes < 0:
            raise ValueError("flops/bytes must be non-negative")
        if self.work_items <= 0:
            raise ValueError("work_items must be positive")
        if self.workgroup_size <= 0:
            raise ValueError("workgroup_size must be positive")
        if not 0.0 <= self.divergence <= 1.0:
            raise ValueError(f"divergence={self.divergence} outside [0, 1]")
        if not 0.0 <= self.irregularity <= 1.0:
            raise ValueError(f"irregularity={self.irregularity} outside [0, 1]")
        for kind, eff in self.efficiency.items():
            if eff <= 0:
                raise ValueError(f"efficiency[{kind}] must be positive, got {eff}")

    @property
    def num_workgroups(self) -> int:
        """Number of workgroups in the launch (ceiling division)."""
        return max(1, -(-self.work_items // self.workgroup_size))

    def with_workgroup_size(self, wg: int) -> "KernelCost":
        """Copy of this cost with a different work-group size."""
        return KernelCost(
            flops=self.flops,
            bytes=self.bytes,
            work_items=self.work_items,
            workgroup_size=wg,
            divergence=self.divergence,
            irregularity=self.irregularity,
            efficiency=dict(self.efficiency),
        )

    def scaled(self, factor: float) -> "KernelCost":
        """Copy with flops/bytes/work_items scaled by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return KernelCost(
            flops=self.flops * factor,
            bytes=self.bytes * factor,
            work_items=max(1, int(round(self.work_items * factor))),
            workgroup_size=self.workgroup_size,
            divergence=self.divergence,
            irregularity=self.irregularity,
            efficiency=dict(self.efficiency),
        )


def _occupancy(spec: DeviceSpec, work_items: int) -> float:
    occ = work_items / float(spec.saturation_work_items)
    return min(1.0, max(_MIN_OCCUPANCY, occ))


def effective_gflops(spec: DeviceSpec, cost: KernelCost) -> float:
    """Effective compute rate (GFLOP/s) of ``spec`` running ``cost``."""
    eff = spec.base_compute_efficiency
    eff *= 1.0 - cost.divergence * spec.divergence_penalty
    eff *= cost.efficiency.get(spec.kind, 1.0)
    eff *= _occupancy(spec, cost.work_items)
    return max(spec.peak_gflops * eff, 1e-12)


def effective_bandwidth_gbs(spec: DeviceSpec, cost: KernelCost) -> float:
    """Effective memory bandwidth (GB/s) of ``spec`` running ``cost``."""
    eff = spec.base_memory_efficiency
    eff *= 1.0 - cost.irregularity * spec.irregularity_penalty
    eff *= cost.efficiency.get(spec.kind, 1.0)
    return max(spec.mem_bandwidth_gbs * eff, 1e-12)


def kernel_time(spec: DeviceSpec, cost: KernelCost) -> float:
    """Predicted execution time (s) of one launch of ``cost`` on ``spec``."""
    t_compute = cost.flops / (effective_gflops(spec, cost) * GB)
    t_memory = cost.bytes / (effective_bandwidth_gbs(spec, cost) * GB)
    return spec.launch_overhead_s + max(t_compute, t_memory)


def workgroup_time(spec: DeviceSpec, cost: KernelCost) -> float:
    """Execution time (s) of a launch where only workgroup 0 does work.

    This is the cost of a *minikernel* launch (paper Fig. 2): the full grid
    is launched — so the launch overhead and the (tiny) cost of every other
    workgroup evaluating the guard and returning are preserved — but the
    real work is one workgroup's share.
    """
    groups = cost.num_workgroups
    body = kernel_time(spec, cost) - spec.launch_overhead_s
    # Guard evaluation for the returning groups: one compare per work item.
    guard_flops = cost.work_items
    guard = guard_flops / (effective_gflops(spec, cost) * GB)
    return spec.launch_overhead_s + body / groups + guard


def transfer_time(link: LinkSpec, nbytes: int) -> float:
    """Time (s) to move ``nbytes`` over ``link``."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    return link.latency_s + nbytes / (link.bandwidth_gbs * GB)

"""Frozen hardware descriptions: devices, links, nodes.

These are *pure data*; binding them to the discrete-event engine happens in
:mod:`repro.hardware.topology`.  All bandwidths are GB/s (1e9 bytes/s), all
latencies are seconds, memory sizes are bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Tuple

__all__ = ["DeviceKind", "DeviceSpec", "LinkSpec", "NodeSpec", "HardwareError"]

GB = 1e9
MB = 1e6
KB = 1e3


class HardwareError(ValueError):
    """Raised for inconsistent hardware descriptions."""


class DeviceKind(str, Enum):
    """OpenCL device kinds we model (maps to CL_DEVICE_TYPE_*)."""

    CPU = "cpu"
    GPU = "gpu"
    ACCELERATOR = "accelerator"


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one OpenCL device.

    Attributes
    ----------
    name:
        Unique device name within a node (e.g. ``"gpu0"``).
    kind:
        :class:`DeviceKind`.
    compute_units:
        Number of OpenCL compute units (CPU cores or GPU SMs).
    clock_ghz:
        Core clock; informational and used for the instruction-throughput
        microbenchmark sanity checks.
    peak_gflops:
        Peak single-precision throughput (GFLOP/s).
    mem_bandwidth_gbs:
        Peak device-memory bandwidth (GB/s).
    mem_size_bytes:
        Device memory capacity; allocations beyond it raise CL_MEM errors.
    launch_overhead_s:
        Fixed per-kernel-launch latency charged by the device.
    base_compute_efficiency:
        Fraction of peak compute achievable by well-behaved portable OpenCL
        code on this device (captures how "unoptimised for the architecture"
        the SNU-NPB kernels are, per the paper's Section VI.B.1).
    base_memory_efficiency:
        Fraction of peak bandwidth achievable by streaming portable code.
    divergence_penalty:
        How strongly branch divergence degrades compute efficiency on this
        device (GPUs: high; CPUs: low).
    irregularity_penalty:
        How strongly non-coalesced / strided access degrades effective
        bandwidth (GPUs: high; CPUs: moderate — caches help).
    saturation_work_items:
        Work-item count needed to saturate the device; smaller launches are
        charged proportionally lower occupancy.
    socket:
        NUMA socket the device is attached to (for topology bookkeeping).
    """

    name: str
    kind: DeviceKind
    compute_units: int
    clock_ghz: float
    peak_gflops: float
    mem_bandwidth_gbs: float
    mem_size_bytes: int
    launch_overhead_s: float = 10e-6
    base_compute_efficiency: float = 0.5
    base_memory_efficiency: float = 0.6
    divergence_penalty: float = 0.5
    irregularity_penalty: float = 0.5
    saturation_work_items: int = 1 << 14
    socket: int = 0

    def __post_init__(self) -> None:
        if self.compute_units <= 0:
            raise HardwareError(f"{self.name}: compute_units must be positive")
        if self.peak_gflops <= 0 or self.mem_bandwidth_gbs <= 0:
            raise HardwareError(f"{self.name}: peak rates must be positive")
        if self.mem_size_bytes <= 0:
            raise HardwareError(f"{self.name}: mem_size_bytes must be positive")
        for attr in (
            "base_compute_efficiency",
            "base_memory_efficiency",
            "divergence_penalty",
            "irregularity_penalty",
        ):
            v = getattr(self, attr)
            if not 0.0 <= v <= 1.0:
                raise HardwareError(f"{self.name}: {attr}={v} outside [0, 1]")
        if self.launch_overhead_s < 0:
            raise HardwareError(f"{self.name}: negative launch overhead")


@dataclass(frozen=True)
class LinkSpec:
    """A host↔device transfer link (one direction-pair, shared FIFO)."""

    name: str
    latency_s: float
    bandwidth_gbs: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise HardwareError(f"link {self.name}: negative latency")
        if self.bandwidth_gbs <= 0:
            raise HardwareError(f"link {self.name}: bandwidth must be positive")


@dataclass(frozen=True)
class NodeSpec:
    """A whole compute node: devices plus their host links.

    ``host_links`` maps device name → :class:`LinkSpec` used for both H2D and
    D2H transfers of that device (the paper's testbed has symmetric PCIe
    links).  ``net_links`` maps a *remote* device (SnuCL cluster mode) to
    the network link its transfers cross before (H2D) or after (D2H) its
    host link; devices it does not name are host-local.  Links sharing a
    name share one physical path, so one NIC serves all of a node's
    remote devices.
    """

    name: str
    devices: Tuple[DeviceSpec, ...]
    host_links: Dict[str, LinkSpec] = field(default_factory=dict)
    net_links: Dict[str, LinkSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise HardwareError(f"node {self.name}: duplicate device names {names}")
        if not self.devices:
            raise HardwareError(f"node {self.name}: needs at least one device")
        missing = [n for n in names if n not in self.host_links]
        if missing:
            raise HardwareError(
                f"node {self.name}: devices missing host links: {missing}"
            )
        stray = [n for n in self.net_links if n not in names]
        if stray:
            raise HardwareError(
                f"node {self.name}: network links for unknown devices: {stray}"
            )

    @property
    def device_names(self) -> Tuple[str, ...]:
        return tuple(d.name for d in self.devices)

    def device(self, name: str) -> DeviceSpec:
        for d in self.devices:
            if d.name == name:
                return d
        raise HardwareError(f"node {self.name}: no device named {name!r}")

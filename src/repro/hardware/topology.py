"""Bind hardware specs to the discrete-event engine.

:class:`SimNode` creates one FIFO resource per device execution engine and
one per host↔device link, then exposes task factories for kernel launches
and data transfers.  Device-to-device transfers are staged through host
memory (D2H followed by H2D) because, as the paper notes in Section V.C.3,
"current vendor drivers do not support direct D2D transfer capabilities
across vendors and device types".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.hardware.cost import KernelCost, kernel_time, transfer_time, workgroup_time
from repro.hardware.specs import DeviceSpec, HardwareError, NodeSpec
from repro.sim.engine import SimEngine, SimTask
from repro.sim.resources import FifoResource

__all__ = ["SimDevice", "SimNode"]

GB = 1e9


class SimDevice:
    """A device bound to the engine: spec + serial execution resource."""

    def __init__(self, engine: SimEngine, spec: DeviceSpec) -> None:
        self.engine = engine
        self.spec = spec
        self.resource = FifoResource(f"dev:{spec.name}")
        #: transient service-time multiplier (fault injection: thermal
        #: throttling / noisy neighbours); 1.0 = nominal speed.
        self.slowdown = 1.0
        #: kernel name -> (caller meta, minikernel, task name, task meta)
        #: of its last launch; see :meth:`submit_kernel`
        self._launch_memo: Dict[str, tuple] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def submit_kernel(
        self,
        name: str,
        cost: KernelCost,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "kernel",
        minikernel: bool = False,
        meta: Optional[dict] = None,
    ) -> SimTask:
        """Enqueue a kernel launch on this device's execution resource.

        ``deps`` is handed to the task as is (the engine reads it once at
        submit).  The task's meta is ``meta`` merged into the launch's
        device, kernel and minikernel fields; launches that repeat the
        kernel name, the minikernel flag and the very ``meta`` object (the
        queue's per-epoch dict) share one task name and one meta dict,
        which nothing mutates once handed over.
        """
        spec = self.spec
        if minikernel:
            duration = workgroup_time(spec, cost)
        elif cost.times is None:
            duration = kernel_time(spec, cost)
        else:
            # A cost reused across launches memoises its time per device.
            duration = cost.times.get(self)
            if duration is None:
                duration = cost.times[self] = kernel_time(spec, cost)
        duration *= self.slowdown
        memo = self._launch_memo
        last = memo.get(name)
        if last is not None and last[0] is meta and last[1] == minikernel:
            task_name, info = last[2], last[3]
        else:
            info = {"device": spec.name, "kernel": name, "minikernel": minikernel}
            if meta:
                info.update(meta)
            task_name = f"{name}@{spec.name}"
            if len(memo) >= 256:
                memo.clear()
            memo[name] = (meta, minikernel, task_name, info)
        return self.engine.task(
            name=task_name,
            duration=duration,
            resource=self.resource,
            deps=deps,
            category=category,
            meta=info,
        )

    def submit_intradevice_copy(
        self,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "d2d-local",
        meta: Optional[dict] = None,
    ) -> SimTask:
        """A copy within device memory (charged at device bandwidth)."""
        duration = nbytes / (self.spec.mem_bandwidth_gbs * GB) * self.slowdown
        info = {"device": self.name, "bytes": nbytes, "direction": "local"}
        if meta:
            info.update(meta)
        return self.engine.task(
            name=f"{name}@{self.name}",
            duration=duration,
            resource=self.resource,
            deps=deps,
            category=category,
            meta=info,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimDevice({self.spec.name!r}, kind={self.spec.kind.value})"


class SimNode:
    """A heterogeneous node bound to one engine.

    With ``duplex_links=True`` each physical link gets *two* FIFO resources
    — ``link:<name>:h2d`` and ``link:<name>:d2h`` — modelling the separate
    upload/download DMA engines of modern PCIe devices, so an H2D prefetch
    and a D2H read-back can be in flight simultaneously (the hardware half
    of transfer/compute overlap; the software half is
    :mod:`repro.ocl.issue`).  Off by default: the single shared resource
    per link keeps traces and utilization reports bit-identical for every
    existing workload.
    """

    def __init__(
        self, engine: SimEngine, spec: NodeSpec, duplex_links: bool = False
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.duplex_links = bool(duplex_links)
        self.devices: Dict[str, SimDevice] = {
            d.name: SimDevice(engine, d) for d in spec.devices
        }
        # Devices whose LinkSpec share a *name* share one physical link —
        # one FIFO resource (per direction, if duplex), so their transfers
        # contend.  This is how sub-devices created by clCreateSubDevices
        # keep sharing their parent's PCIe/DRAM path.
        by_name: Dict[str, FifoResource] = {}
        by_name_d2h: Dict[str, FifoResource] = {}
        self.links: Dict[str, FifoResource] = {}
        #: D2H-direction resource per device (== links[dev] when simplex).
        self.d2h_links: Dict[str, FifoResource] = {}
        for dev, link in spec.host_links.items():
            if link.name not in by_name:
                if self.duplex_links:
                    by_name[link.name] = FifoResource(f"link:{link.name}:h2d")
                    by_name_d2h[link.name] = FifoResource(f"link:{link.name}:d2h")
                else:
                    by_name[link.name] = FifoResource(f"link:{link.name}")
                    by_name_d2h[link.name] = by_name[link.name]
            self.links[dev] = by_name[link.name]
            self.d2h_links[dev] = by_name_d2h[link.name]

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def device(self, name: str) -> SimDevice:
        try:
            return self.devices[name]
        except KeyError:
            raise HardwareError(f"no device named {name!r} on node {self.spec.name}")

    def device_list(self) -> List[SimDevice]:
        """Devices in spec order (stable — index == OpenCL device index)."""
        return [self.devices[d.name] for d in self.spec.devices]

    # ------------------------------------------------------------------
    # Analytic transfer costs (used by the scheduler's cost estimates)
    # ------------------------------------------------------------------
    def h2d_seconds(self, device: str, nbytes: int) -> float:
        """Predicted host-to-device transfer time."""
        return transfer_time(self.spec.host_links[device], nbytes)

    def d2h_seconds(self, device: str, nbytes: int) -> float:
        """Predicted device-to-host transfer time (symmetric links)."""
        return transfer_time(self.spec.host_links[device], nbytes)

    def d2d_seconds(self, src: str, dst: str, nbytes: int) -> float:
        """Predicted device-to-device time: staged D2H + H2D via host."""
        if src == dst:
            return nbytes / (self.device(src).spec.mem_bandwidth_gbs * GB)
        return self.d2h_seconds(src, nbytes) + self.h2d_seconds(dst, nbytes)

    # ------------------------------------------------------------------
    # Transfer task factories (charge simulated time on link resources)
    # ------------------------------------------------------------------
    def submit_h2d(
        self,
        device: str,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "h2d",
        meta: Optional[dict] = None,
    ) -> SimTask:
        # Raw link time (not self.h2d_seconds: subclasses may override the
        # estimate to include extra hops they charge as separate tasks).
        duration = transfer_time(self.spec.host_links[device], nbytes)
        info = {"device": device, "bytes": nbytes, "direction": "h2d"}
        if meta:
            info.update(meta)
        return self.engine.task(
            name=f"{name}:host->{device}",
            duration=duration,
            resource=self.links[device],
            deps=deps,
            category=category,
            meta=info,
        )

    def submit_d2h(
        self,
        device: str,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "d2h",
        meta: Optional[dict] = None,
    ) -> SimTask:
        duration = transfer_time(self.spec.host_links[device], nbytes)
        info = {"device": device, "bytes": nbytes, "direction": "d2h"}
        if meta:
            info.update(meta)
        return self.engine.task(
            name=f"{name}:{device}->host",
            duration=duration,
            resource=self.d2h_links[device],
            deps=deps,
            category=category,
            meta=info,
        )

    def submit_d2d(
        self,
        src: str,
        dst: str,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "d2d",
        meta: Optional[dict] = None,
    ) -> SimTask:
        """Device→device move, staged through host memory.

        Returns the final (H2D) task; its completion means the data is
        resident on ``dst``.
        """
        if src == dst:
            return self.device(src).submit_intradevice_copy(
                nbytes, deps=deps, category=category, name=name, meta=meta
            )
        stage = self.submit_d2h(src, nbytes, deps=deps, category=category,
                                name=name, meta=meta)
        return self.submit_h2d(dst, nbytes, deps=[stage], category=category,
                               name=name, meta=meta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimNode({self.spec.name!r}, devices={list(self.devices)})"

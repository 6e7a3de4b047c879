"""Bind hardware specs to the discrete-event engine.

:class:`SimNode` creates one FIFO resource per device execution engine,
one per host↔device link and one per network link, then exposes task
factories for kernel launches and data transfers.  Device-to-device
transfers are staged through host memory (D2H followed by H2D) because, as
the paper notes in Section V.C.3, "current vendor drivers do not support
direct D2D transfer capabilities across vendors and device types".

A remote device of SnuCL cluster mode (one in ``NodeSpec.net_links``)
chains a network hop on its node's NIC with its own PCIe hop, so a
remote↔remote move crosses the network twice; the device profiler
measures these composite paths and the mapper needs no cluster code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.hardware.cost import transfer_time
from repro.hardware.specs import DeviceSpec, HardwareError, NodeSpec
from repro.sim.engine import SimEngine, SimTask
from repro.sim.resources import FifoResource

__all__ = ["SimDevice", "SimNode"]

GB = 1e9

#: Entries a launch or transfer memo holds before it starts over.
MEMO_SIZE = 256


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
        seconds: float,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "kernel",
        minikernel: bool = False,
        meta: Optional[dict] = None,
    ) -> SimTask:
        """Enqueue a kernel launch of ``seconds`` unscaled seconds, the
        caller's price (:meth:`Kernel.seconds <repro.ocl.kernel.Kernel.seconds>`,
        or ``kernel_time`` / ``workgroup_time`` of a bare cost), on this
        device's execution resource; the task lasts that × :attr:`slowdown`.

        ``deps`` is handed to the task as is (the engine reads it once at
        submit).  The task's meta is ``meta`` merged into the launch's
        device, kernel and minikernel fields.  Launches of one kernel name
        share one task name (kept across a change of ``meta``); those that
        also repeat the minikernel flag and the very ``meta`` object (the
        queue's per-epoch dict) share one meta dict, which nothing mutates
        once handed over.
        """
        spec = self.spec
        duration = seconds * self.slowdown
        memo = self._launch_memo
        last = memo.get(name)
        if last is not None and last[0] is meta and last[1] == minikernel:
            task_name, info = last[2], last[3]
        else:
            info = {"device": spec.name, "kernel": name, "minikernel": minikernel}
            if meta:
                info.update(meta)
            task_name = f"{name}@{spec.name}" if last is None else last[2]
            if len(memo) >= MEMO_SIZE:
                memo.clear()
            memo[name] = (meta, minikernel, task_name, info)
        # (name, duration, resource, deps, category, meta) by position:
        # keywords cost more, and this runs once per kernel launch
        return self.engine.task(
            task_name, duration, self.resource, deps, category, info
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
        # One FIFO per NIC, shared by both directions even when duplex.
        nics = {
            nic.name: FifoResource(f"link:{nic.name}")
            for nic in spec.net_links.values()
        }
        #: remote device -> (NIC spec, NIC resource, peer label in task names)
        self.net_hops: Dict[str, tuple] = {
            dev: (nic, nics[nic.name], nic.name.removeprefix("nic-"))
            for dev, nic in spec.net_links.items()
        }
        #: (name, device, nbytes, direction) -> (caller meta, task name,
        #: task meta, seconds, resource) of its last transfer; see
        #: :meth:`_link_task`
        self._transfer_memo: Dict[tuple, tuple] = {}

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
        """Predicted host-to-device transfer time: the host link plus, for
        a remote device, the network hop.  Links are symmetric, so this is
        the device-to-host time too."""
        seconds = transfer_time(self.spec.host_links[device], nbytes)
        nic = self.spec.net_links.get(device)
        return seconds if nic is None else seconds + transfer_time(nic, nbytes)

    d2h_seconds = h2d_seconds

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
        if device in self.net_hops:
            deps = [self._link_task(name, device, nbytes, "net-out", deps,
                                    category, meta)]
        return self._link_task(name, device, nbytes, "h2d", deps, category, meta)

    def submit_d2h(
        self,
        device: str,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "d2h",
        meta: Optional[dict] = None,
    ) -> SimTask:
        task = self._link_task(name, device, nbytes, "d2h", deps, category, meta)
        if device not in self.net_hops:
            return task
        return self._link_task(name, device, nbytes, "net-in", [task],
                               category, meta)

    def _link_task(
        self,
        name: str,
        device: str,
        nbytes: int,
        direction: str,
        deps: Optional[Sequence[SimTask]],
        category: str,
        meta: Optional[dict],
    ) -> SimTask:
        """One hop of a transfer: ``direction`` is ``h2d`` or ``d2h`` on
        the device's host link, ``net-out`` or ``net-in`` on a remote
        device's NIC.

        The task meta is ``meta`` merged into the hop's device, bytes and
        direction fields.  Transfers that repeat the name, device, size,
        direction and the very ``meta`` object share one task name and one
        meta dict, which nothing mutates once handed over; links never
        change after construction (a link outage is a task on its FIFO),
        so the memoised seconds are exact.
        """
        key = (name, device, nbytes, direction)
        memo = self._transfer_memo
        last = memo.get(key)
        if last is None or last[0] is not meta:
            if direction == "h2d":
                link, resource = self.spec.host_links[device], self.links[device]
                task_name = f"{name}:host->{device}"
            elif direction == "d2h":
                link, resource = self.spec.host_links[device], self.d2h_links[device]
                task_name = f"{name}:{device}->host"
            else:
                link, resource, peer = self.net_hops[device]
                arrow = "->" if direction == "net-out" else "<-"
                task_name = f"{name}:net{arrow}{peer}"
            info = {"device": device, "bytes": nbytes, "direction": direction}
            if meta:
                info.update(meta)
            if len(memo) >= MEMO_SIZE:
                memo.clear()
            last = memo[key] = (
                meta, task_name, info, transfer_time(link, nbytes), resource,
            )
        return self.engine.task(
            name=last[1],
            duration=last[3],
            resource=last[4],
            deps=deps,
            category=category,
            meta=last[2],
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

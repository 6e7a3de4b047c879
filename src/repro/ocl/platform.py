"""Platforms: the entry point binding a simulated node to the runtime.

``get_platforms()`` plays the role of ``clGetPlatformIds``: it creates a
platform over a node spec (the paper's testbed by default) and — as in
MultiCL — triggers the *device profiler*, which loads static device profiles
from the on-disk cache or measures them with microbenchmarks on a cache miss
(Section V.A).  Pass ``profile=False`` to skip profiling for scheduler-less
unit tests.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Dict, List, Optional, Sequence

from repro import knobs
from repro.hardware.presets import aji_cluster15_node
from repro.hardware.specs import DeviceKind, NodeSpec
from repro.hardware.topology import SimDevice, SimNode
from repro.ocl.context import Context
from repro.ocl.enums import DeviceType
from repro.ocl.errors import InvalidDevice
from repro.sim.engine import SimEngine

__all__ = ["Platform", "get_platforms"]

_KIND_TO_TYPE = {
    DeviceKind.CPU: DeviceType.CPU,
    DeviceKind.GPU: DeviceType.GPU,
    DeviceKind.ACCELERATOR: DeviceType.ACCELERATOR,
}


class Platform:
    """One OpenCL platform over one simulated node.

    Each platform owns a fresh :class:`~repro.sim.engine.SimEngine`, so
    experiments are isolated: creating a new platform resets virtual time.
    """

    def __init__(
        self,
        node_spec: Optional[NodeSpec] = None,
        profile: bool = True,
        profile_dir: Optional[str] = None,
        duplex_links: Optional[bool] = None,
    ) -> None:
        self.engine = SimEngine()
        #: separate per-direction link resources (see SimNode.duplex_links).
        #: Overlap-aware contexts need independent upload/download DMA
        #: engines to actually overlap, so None follows the same env opt-in.
        self.duplex_links = bool(knobs.get("MULTICL_OVERLAP", duplex_links))
        if node_spec is None:
            node_spec = aji_cluster15_node()
        elif not isinstance(node_spec, NodeSpec):
            # A ClusterSpec (SnuCL cluster mode): one node whose remote
            # devices carry network links; everything above is agnostic.
            node_spec = node_spec.flattened()
        self._bind(node_spec)
        self.vendor = "repro"
        self._device_profile = None
        self._profile_dir = profile_dir
        self._contexts_created = 0
        #: contexts created here, weakly held in creation order (dead
        #: references are pruned when read)
        self._contexts: List["weakref.ref[Context]"] = []
        #: devices taken offline by fault injection (permanent failures)
        self._failed_devices: set = set()
        #: device name -> bytes of buffers of every context resident there,
        #: kept exact by the Buffer methods that change residency; the
        #: memory-fit check (``Context.overcommit``) reads it in O(1).
        self._resident_bytes: Dict[str, int] = {}
        #: numbers default buffer names (``buf1``, ...): one engine trace
        #: is one namespace, so names follow only this platform's history
        self._buffer_ids = itertools.count(1)
        if profile:
            # Device profiling is invoked once during clGetPlatformIds
            # (paper Section V.A); with a warm cache this reads a JSON file
            # and charges no simulated time.
            _ = self.device_profile

    def _bind(self, spec: NodeSpec) -> None:
        """Make ``spec`` this platform's node (on the same engine)."""
        self.spec = spec
        self.node = SimNode(self.engine, spec, duplex_links=self.duplex_links)
        self.name = f"MultiCL simulated platform ({spec.name})"

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    @property
    def device_names(self) -> List[str]:
        return [d.name for d in self.spec.devices]

    def get_devices(self, device_type: DeviceType = DeviceType.ALL) -> List[SimDevice]:
        """clGetDeviceIDs."""
        out = []
        for dev in self.node.device_list():
            if device_type == DeviceType.ALL or (
                _KIND_TO_TYPE[dev.spec.kind] & device_type
            ):
                out.append(dev)
        if not out:
            raise InvalidDevice(f"no devices of type {device_type!r} on platform")
        return out

    def device(self, name: str) -> SimDevice:
        return self.node.device(name)

    # ------------------------------------------------------------------
    # Device availability (fault injection)
    # ------------------------------------------------------------------
    def mark_device_failed(self, name: str) -> None:
        """Take ``name`` offline permanently (injected hardware failure)."""
        if name not in self.device_names:
            raise InvalidDevice(f"cannot fail unknown device {name!r}")
        self._failed_devices.add(name)

    def is_available(self, name: str) -> bool:
        """Whether ``name`` is still serving work."""
        return name not in self._failed_devices

    @property
    def available_device_names(self) -> List[str]:
        """Device names in spec order, minus failed devices."""
        return [n for n in self.device_names if n not in self._failed_devices]

    # ------------------------------------------------------------------
    # Device profiles (MultiCL's static device profiler)
    # ------------------------------------------------------------------
    @property
    def device_profile(self):
        """The static device profile (measured or loaded from cache).

        Lazily imports the MultiCL package so :mod:`repro.ocl` stays usable
        standalone.
        """
        if self._device_profile is None:
            from repro.core.device_profiler import get_or_measure

            self._device_profile = get_or_measure(self, cache_dir=self._profile_dir)
        return self._device_profile

    # ------------------------------------------------------------------
    # Device fission (clCreateSubDevices, paper Section IV.D)
    # ------------------------------------------------------------------
    def create_sub_devices(self, device_name: str, count: int) -> List[SimDevice]:
        """Partition ``device_name`` equally into ``count`` sub-devices.

        The parent is replaced in the platform's device list; sub-devices
        share the parent's physical host link (their transfers contend)
        and the scheduler treats them uniformly, as the paper specifies.
        Must be called before any context is created, and invalidates the
        static device profile (the node configuration changed, so the
        profiler re-runs or reloads its per-configuration cache).
        """
        if self._contexts_created:
            raise InvalidDevice(
                "clCreateSubDevices must be called before creating contexts"
            )
        from repro.hardware.fission import fission_node_spec

        if device_name in self.spec.net_links:
            # Splitting a *remote* device would need remote-runtime
            # cooperation the real SnuCL cluster mode does not provide.
            raise InvalidDevice(
                f"cannot fission remote device {device_name!r}; only "
                f"root-node devices can be partitioned"
            )
        spec, sub_names = fission_node_spec(self.spec, device_name, count)
        self._bind(spec)
        self._device_profile = None  # configuration changed: re-profile
        return [self.node.device(n) for n in sub_names]

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def create_context(
        self,
        device_names: Optional[Sequence[str]] = None,
        properties: Optional[Dict[int, Any]] = None,
    ) -> Context:
        """clCreateContext (with the proposed CL_CONTEXT_SCHEDULER)."""
        self._contexts_created += 1
        context = Context(self, device_names, properties)
        self._contexts.append(weakref.ref(context))
        return context

    @property
    def contexts(self) -> List[Context]:
        """Live contexts created on this platform, in creation order."""
        self._contexts = [ref for ref in self._contexts if ref() is not None]
        return [c for c in (ref() for ref in self._contexts) if c is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Platform({self.spec.name!r}, devices={self.device_names})"


def get_platforms(
    node_spec: Optional[NodeSpec] = None,
    profile: bool = True,
    profile_dir: Optional[str] = None,
    duplex_links: Optional[bool] = None,
) -> List[Platform]:
    """clGetPlatformIds: one simulated platform per call."""
    return [
        Platform(
            node_spec,
            profile=profile,
            profile_dir=profile_dir,
            duplex_links=duplex_links,
        )
    ]

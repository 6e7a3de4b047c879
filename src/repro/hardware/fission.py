"""Device fission: the model behind ``clCreateSubDevices``.

Paper Section IV.D: "The function clCreateSubDevices from OpenCL 1.2
creates a group of cl_device_id subobjects from a parent device object.
Our solution works seamlessly with cl_device_id objects that are ...
created by clCreateSubDevices.  Our example scheduler handles all
cl_device_id objects and makes queue–device mapping decisions uniformly."

The model: partitioning a device *equally* into ``count`` sub-devices
splits its compute units, peak throughput, memory bandwidth, capacity, and
occupancy saturation proportionally; the per-launch overhead is inherited.
Sub-devices keep the parent's host link *shared* (same physical PCIe/DRAM
path — :class:`~repro.hardware.topology.SimNode` gives same-named links
one FIFO resource), so transfers to sibling sub-devices contend exactly
like the real thing.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.hardware.specs import DeviceSpec, HardwareError, NodeSpec

__all__ = ["split_device_spec", "fission_node_spec"]


def split_device_spec(spec: DeviceSpec, count: int) -> List[DeviceSpec]:
    """Partition ``spec`` equally into ``count`` sub-device specs.

    Sub-devices are named ``<parent>.<i>``.  Raises if the device has
    fewer compute units than requested partitions.
    """
    if count < 2:
        raise HardwareError("fission needs at least 2 sub-devices")
    if spec.compute_units < count:
        raise HardwareError(
            f"{spec.name}: cannot split {spec.compute_units} compute units "
            f"into {count} sub-devices"
        )
    subs = []
    for i in range(count):
        subs.append(
            dataclasses.replace(
                spec,
                name=f"{spec.name}.{i}",
                compute_units=spec.compute_units // count,
                peak_gflops=spec.peak_gflops / count,
                mem_bandwidth_gbs=spec.mem_bandwidth_gbs / count,
                mem_size_bytes=spec.mem_size_bytes // count,
                saturation_work_items=max(
                    1, spec.saturation_work_items // count
                ),
            )
        )
    return subs


def fission_node_spec(
    node: NodeSpec, device_name: str, count: int
) -> Tuple[NodeSpec, List[str]]:
    """Return a new node spec with ``device_name`` replaced by sub-devices.

    The sub-devices inherit the parent's :class:`LinkSpec` verbatim, so the
    shared-link rule in :class:`~repro.hardware.topology.SimNode` makes
    them contend for the parent's physical path.  The node's network links
    carry over unchanged.  Returns the new spec and the sub-device names.
    """
    parent = node.device(device_name)
    subs = split_device_spec(parent, count)
    devices = []
    for d in node.devices:
        if d.name == device_name:
            devices.extend(subs)
        else:
            devices.append(d)
    links = {k: v for k, v in node.host_links.items() if k != device_name}
    for sub in subs:
        links[sub.name] = node.host_links[device_name]
    new_spec = NodeSpec(
        name=f"{node.name}+fission({device_name}x{count})",
        devices=tuple(devices),
        host_links=links,
        net_links=node.net_links,
    )
    return new_spec, [s.name for s in subs]

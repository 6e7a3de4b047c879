"""Cluster descriptions: nodes + interconnect."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.hardware.presets import aji_cluster15_node
from repro.hardware.specs import DeviceSpec, HardwareError, LinkSpec, NodeSpec

__all__ = ["ClusterSpec", "two_node_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Several nodes joined by a network; the host process runs on node 0.

    ``nic`` describes one node's network interface (the per-node shared
    path all remote traffic to/from that node's devices traverses).  The
    root node's devices are host-local and keep their plain names; devices
    of node *i* (i ≥ 1) are exposed as ``node<i>.<name>``.
    """

    name: str
    nodes: Tuple[NodeSpec, ...]
    nic: LinkSpec = field(
        default_factory=lambda: LinkSpec("ib-qdr", latency_s=3e-6, bandwidth_gbs=3.2)
    )

    def __post_init__(self) -> None:
        if not self.nodes:
            raise HardwareError("cluster needs at least one node")

    def device_node_index(self, device_name: str) -> int:
        """Which node a flattened device name lives on."""
        if device_name.startswith("node"):
            prefix = device_name.split(".", 1)[0]
            try:
                idx = int(prefix[len("node"):])
            except ValueError:
                raise HardwareError(f"bad cluster device name {device_name!r}")
            if not 1 <= idx < len(self.nodes):
                raise HardwareError(f"no node {idx} in cluster {self.name!r}")
            return idx
        return 0

    def flattened(self) -> NodeSpec:
        """One NodeSpec exposing every device in the cluster.

        Remote devices keep their *local* PCIe link specs; their
        ``net_links`` entry is the NIC named ``nic-node<i>``, one per
        remote node, so all traffic to a node's devices contends on it.
        Link names are prefixed per node so same-named links on different
        nodes stay physically distinct.
        """
        devices: List[DeviceSpec] = []
        links: Dict[str, LinkSpec] = {}
        net_links: Dict[str, LinkSpec] = {}
        for i, node in enumerate(self.nodes):
            nic = dataclasses.replace(self.nic, name=f"nic-node{i}")
            for dev in node.devices:
                name = dev.name if i == 0 else f"node{i}.{dev.name}"
                devices.append(dataclasses.replace(dev, name=name))
                link = node.host_links[dev.name]
                link_name = link.name if i == 0 else f"node{i}.{link.name}"
                links[name] = dataclasses.replace(link, name=link_name)
                if i:
                    net_links[name] = nic
        return NodeSpec(
            name=f"cluster:{self.name}",
            devices=tuple(devices),
            host_links=links,
            net_links=net_links,
        )


def two_node_cluster(remote_gpus_only: bool = True) -> ClusterSpec:
    """The paper's node plus one remote node reachable over InfiniBand.

    With ``remote_gpus_only`` the remote node contributes its two GPUs
    (a typical "borrow the neighbour's accelerators" setup).
    """
    root = aji_cluster15_node()
    remote = aji_cluster15_node()
    if remote_gpus_only:
        remote = NodeSpec(
            name="remote",
            devices=tuple(d for d in remote.devices if d.name != "cpu"),
            host_links={
                k: v for k, v in remote.host_links.items() if k != "cpu"
            },
        )
    return ClusterSpec(name="two-node", nodes=(root, remote))

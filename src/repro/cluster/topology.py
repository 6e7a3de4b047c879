"""SimCluster: the SimNode interface over several physical nodes.

Transfers to a *local* device behave exactly like :class:`SimNode`.
Transfers to a *remote* device chain two hops:

* a network hop over the remote node's NIC (one FIFO resource per node, so
  all traffic to that node's devices contends — the MPI progress path in
  SnuCL's cluster mode);
* the remote PCIe hop on the device's own link.

Device-to-device moves stage through the root host, as in the single-node
case — which means a remote↔remote move crosses the network twice, exactly
the penalty a distance-aware scheduler must learn.  It learns it without
any cluster-specific code: the device profiler *measures* these composite
paths, and measured bandwidth is all the mapper ever sees.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.hardware.cost import transfer_time
from repro.hardware.topology import SimNode
from repro.sim.engine import SimEngine, SimTask
from repro.sim.resources import FifoResource

__all__ = ["SimCluster"]


class SimCluster(SimNode):
    """A cluster bound to one engine, indistinguishable from a SimNode."""

    def __init__(
        self,
        engine: SimEngine,
        cluster: ClusterSpec,
        duplex_links: bool = False,
    ) -> None:
        super().__init__(engine, cluster.flattened(), duplex_links=duplex_links)
        self.cluster = cluster
        #: one NIC resource per non-root node
        self.nics: Dict[int, FifoResource] = {
            i: FifoResource(f"link:nic-node{i}")
            for i in range(1, len(cluster.nodes))
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _node_of(self, device: str) -> int:
        return self.cluster.device_node_index(device)

    def is_remote(self, device: str) -> bool:
        return self._node_of(device) != 0

    def _net_seconds(self, nbytes: int) -> float:
        return transfer_time(self.cluster.nic, nbytes)

    # ------------------------------------------------------------------
    # Analytic estimates
    # ------------------------------------------------------------------
    def h2d_seconds(self, device: str, nbytes: int) -> float:
        base = super().h2d_seconds(device, nbytes)
        if self.is_remote(device):
            base += self._net_seconds(nbytes)
        return base

    def d2h_seconds(self, device: str, nbytes: int) -> float:
        base = super().d2h_seconds(device, nbytes)
        if self.is_remote(device):
            base += self._net_seconds(nbytes)
        return base

    # (d2d_seconds inherits: d2h + h2d of the composite paths.)

    # ------------------------------------------------------------------
    # Transfer tasks
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
        node_idx = self._node_of(device)
        if node_idx == 0:
            return super().submit_h2d(device, nbytes, deps, category, name, meta)
        info = {"device": device, "bytes": nbytes, "direction": "net-out"}
        if meta:
            info.update(meta)
        net = self.engine.task(
            name=f"{name}:net->node{node_idx}",
            duration=self._net_seconds(nbytes),
            resource=self.nics[node_idx],
            deps=list(deps or []),
            category=category,
            meta=info,
        )
        return super().submit_h2d(device, nbytes, [net], category, name, meta)

    def submit_d2h(
        self,
        device: str,
        nbytes: int,
        deps: Optional[Sequence[SimTask]] = None,
        category: str = "transfer",
        name: str = "d2h",
        meta: Optional[dict] = None,
    ) -> SimTask:
        node_idx = self._node_of(device)
        if node_idx == 0:
            return super().submit_d2h(device, nbytes, deps, category, name, meta)
        pcie = super().submit_d2h(device, nbytes, deps, category, name, meta)
        info = {"device": device, "bytes": nbytes, "direction": "net-in"}
        if meta:
            info.update(meta)
        return self.engine.task(
            name=f"{name}:net<-node{node_idx}",
            duration=self._net_seconds(nbytes),
            resource=self.nics[node_idx],
            deps=[pcie],
            category=category,
            meta=info,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimCluster({self.cluster.name!r}, nodes={len(self.cluster.nodes)}, "
            f"devices={list(self.devices)})"
        )

"""Simulated SnuCL *cluster mode*: remote accelerators in one platform.

Background (paper Section II.B): "SnuCL features an optional cluster mode
providing seamless access to remote accelerators using MPI for internode
communications. ... Although our optimizations can be applied directly to
the cluster mode as well, these fall out of the scope of this paper."

This package builds that substrate so the claim is exercisable: a
:class:`~repro.cluster.spec.ClusterSpec` describes several nodes joined by
a network, and :meth:`~repro.cluster.spec.ClusterSpec.flattened` turns it
into one plain :class:`~repro.hardware.specs.NodeSpec` whose remote
devices carry a network link (``NodeSpec.net_links``).  The ordinary
:class:`~repro.hardware.topology.SimNode` then chains each remote
transfer's network hop (contending on the remote node's NIC) with its
PCIe hop, so the *measured* device profiles encode how far away each
device is, and the unmodified MultiCL scheduler makes distance-aware
decisions across the whole cluster.  A :class:`ClusterSpec` can be passed
wherever a node spec is accepted.
"""

from repro.cluster.spec import ClusterSpec, two_node_cluster

__all__ = ["ClusterSpec", "two_node_cluster"]

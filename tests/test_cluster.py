"""SnuCL cluster mode: specs, composite transfers, distance-aware mapping."""

import dataclasses
import hashlib
import os

import pytest

from repro.cluster import ClusterSpec, two_node_cluster
from repro.core.profile_store import node_fingerprint
from repro.core.runtime import MultiCL
from repro.hardware.cost import transfer_time
from repro.hardware.fission import fission_node_spec
from repro.hardware.presets import (
    aji_cluster15_node,
    cpu_only_node,
    symmetric_dual_gpu_node,
)
from repro.hardware.specs import HardwareError, LinkSpec
from repro.hardware.topology import SimNode
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.platform import Platform
from repro.sim.engine import SimEngine

COMPUTE_SRC = """
// @multicl flops_per_item=2000 bytes_per_item=4 writes=1
__kernel void crunch(__global float* a, __global float* b, int n) { }
"""
IO_SRC = """
// @multicl flops_per_item=2 bytes_per_item=16 writes=1
__kernel void touch(__global float* a, __global float* b, int n) { }
"""

DYN = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


# ---------------------------------------------------------------------------
# Spec
# ---------------------------------------------------------------------------
def test_empty_cluster_rejected():
    with pytest.raises(HardwareError):
        ClusterSpec(name="x", nodes=())


def test_flattened_names_and_links():
    spec = two_node_cluster().flattened()
    assert "cpu" in spec.device_names  # root devices keep plain names
    assert "node1.gpu0" in spec.device_names
    # Per-node link names stay distinct.
    assert spec.host_links["gpu0"].name != spec.host_links["node1.gpu0"].name
    # Remote devices, and only they, cross their node's NIC.
    assert set(spec.net_links) == {"node1.gpu0", "node1.gpu1"}
    assert {link.name for link in spec.net_links.values()} == {"nic-node1"}


def test_device_node_index():
    c = two_node_cluster()
    assert c.device_node_index("cpu") == 0
    assert c.device_node_index("node1.gpu1") == 1
    with pytest.raises(HardwareError):
        c.device_node_index("node9.gpu0")
    with pytest.raises(HardwareError):
        c.device_node_index("nodeX.gpu0")


def test_remote_gpus_only_filter():
    c = two_node_cluster(remote_gpus_only=True)
    assert all(d.kind.value == "gpu" for d in c.nodes[1].devices)
    full = two_node_cluster(remote_gpus_only=False)
    assert any(d.kind.value == "cpu" for d in full.nodes[1].devices)


def test_fission_carries_network_links():
    flat = two_node_cluster().flattened()
    spec, _ = fission_node_spec(flat, "cpu", 2)
    assert spec.name == "cluster:two-node+fission(cpux2)"
    assert spec.net_links == flat.net_links
    # Splitting a remote device would strand its network link.
    with pytest.raises(HardwareError):
        fission_node_spec(flat, "node1.gpu0", 2)


# ---------------------------------------------------------------------------
# Transfers over a flattened cluster
# ---------------------------------------------------------------------------
@pytest.fixture
def cluster():
    engine = SimEngine()
    return engine, SimNode(engine, two_node_cluster().flattened())


def test_local_transfers_unchanged(cluster):
    engine, c = cluster
    nbytes = 1 << 24
    local = c.h2d_seconds("gpu0", nbytes)
    assert local == pytest.approx(
        SimNode(SimEngine(), aji_cluster15_node()).h2d_seconds("gpu0", nbytes)
    )
    task = c.submit_h2d("gpu0", nbytes)
    engine.run_until(task)
    assert engine.now == pytest.approx(local)


def test_remote_h2d_adds_network_hop(cluster):
    engine, c = cluster
    nbytes = 1 << 24
    assert "node1.gpu0" in c.spec.net_links and "gpu0" not in c.spec.net_links
    remote = c.h2d_seconds("node1.gpu0", nbytes)
    local = c.h2d_seconds("gpu0", nbytes)
    assert remote > local
    t = c.submit_h2d("node1.gpu0", nbytes)
    engine.run_until(t)
    assert engine.now == pytest.approx(remote)
    # The trace shows both hops.
    directions = [iv.meta.get("direction") for iv in engine.trace]
    assert "net-out" in directions and "h2d" in directions


def test_remote_d2h_symmetric(cluster):
    engine, c = cluster
    nbytes = 1 << 22
    assert c.d2h_seconds("node1.gpu1", nbytes) == pytest.approx(
        c.h2d_seconds("node1.gpu1", nbytes)
    )


def test_remote_to_remote_crosses_network_twice(cluster):
    engine, c = cluster
    nbytes = 1 << 22
    cross = c.d2d_seconds("node1.gpu0", "gpu0", nbytes)
    assert cross == pytest.approx(
        c.d2h_seconds("node1.gpu0", nbytes) + c.h2d_seconds("gpu0", nbytes)
    )
    rr = c.d2d_seconds("node1.gpu0", "node1.gpu1", nbytes)
    assert rr > c.d2d_seconds("gpu0", "gpu1", nbytes)


def test_nic_contention_serialises_per_node(cluster):
    engine, c = cluster
    nbytes = 1 << 24
    a = c.submit_h2d("node1.gpu0", nbytes)
    b = c.submit_h2d("node1.gpu1", nbytes)
    engine.run_until_idle()
    net = transfer_time(two_node_cluster().nic, nbytes)
    # The second transfer's network hop waited for the first.
    assert b.end_time - a.end_time >= net * 0.99


# ---------------------------------------------------------------------------
# Scheduling over the cluster
# ---------------------------------------------------------------------------
def _kernel(mcl, src, name, n=1 << 20):
    ctx = mcl.context
    prog = ctx.create_program(src).build()
    k = prog.create_kernel(name)
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    return k, a, n


def test_profile_measures_remote_distance(tmp_path):
    mcl = MultiCL(
        node_spec=two_node_cluster(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=str(tmp_path),
    )
    prof = mcl.platform.device_profile
    nbytes = 64 << 20
    assert prof.h2d_seconds("node1.gpu0", nbytes) > 2 * prof.h2d_seconds(
        "gpu0", nbytes
    )
    # Compute throughput is unaffected by distance.
    assert prof.gflops["node1.gpu0"] == pytest.approx(prof.gflops["gpu0"], rel=0.01)


def test_compute_heavy_pool_spreads_to_remote_gpus(tmp_path):
    mcl = MultiCL(
        node_spec=two_node_cluster(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=str(tmp_path),
    )
    k, _, n = _kernel(mcl, COMPUTE_SRC, "crunch", n=1 << 21)
    queues = [mcl.queue(flags=DYN, name=f"q{i}") for i in range(6)]
    for q in queues:
        for _ in range(4):
            q.enqueue_nd_range_kernel(k, (n,), (128,))
    for q in queues:
        q.finish()
    used = {q.device for q in queues}
    assert any(d.startswith("node1.") for d in used), used
    assert "gpu0" in used  # local GPUs used too


def test_transfer_heavy_work_stays_local(tmp_path):
    """A queue whose data sits on the host and whose kernels are trivial
    must not be shipped across the network."""
    mcl = MultiCL(
        node_spec=two_node_cluster(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=str(tmp_path),
    )
    ctx = mcl.context
    prog = ctx.create_program(IO_SRC).build()
    n = 1 << 22
    k = prog.create_kernel("touch")
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    a.mark_valid("host")
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q = mcl.queue(flags=DYN)
    q.enqueue_nd_range_kernel(k, (n,), (128,))
    q.finish()
    assert not q.device.startswith("node1.")


def test_single_node_cluster_degenerates_to_node(tmp_path):
    c = ClusterSpec(name="solo", nodes=(cpu_only_node(),))
    mcl = MultiCL(node_spec=c, policy=ContextScheduler.AUTO_FIT,
                  profile_dir=str(tmp_path))
    assert list(mcl.device_names) == ["cpu"]


# ---------------------------------------------------------------------------
# The network hop is part of the node spec, so it is part of the cache key
# ---------------------------------------------------------------------------
def test_nic_is_part_of_the_profile_cache_key(tmp_path):
    """Two clusters that differ only in their NIC must not share one
    device profile: each profile matches a fresh measurement of its own
    cluster, and the fingerprints differ."""
    fast = two_node_cluster()
    slow = dataclasses.replace(
        fast, nic=LinkSpec("ib-slow", latency_s=3e-6, bandwidth_gbs=0.1)
    )
    nbytes = 64 << 20
    shared = str(tmp_path / "shared")
    h2d, prints = [], set()
    for i, cluster in enumerate((fast, slow)):
        platform = Platform(cluster, profile_dir=shared)
        fresh = Platform(cluster, profile_dir=str(tmp_path / f"fresh{i}"))
        h2d.append(platform.device_profile.h2d_seconds("node1.gpu0", nbytes))
        assert h2d[-1] == fresh.device_profile.h2d_seconds("node1.gpu0", nbytes)
        prints.add(node_fingerprint(platform.spec))
    assert len(prints) == 2
    assert h2d[1] > 10 * h2d[0]


def test_single_node_fingerprints_unchanged():
    """A spec without network links hashes as it did before they existed."""
    assert [
        node_fingerprint(f())
        for f in (aji_cluster15_node, symmetric_dual_gpu_node, cpu_only_node)
    ] == ["e4963feb2faf9391", "2f77daf150943dcb", "f8e5afa531e3de63"]


# ---------------------------------------------------------------------------
# Golden: cluster-mode simulation, bit for bit
# ---------------------------------------------------------------------------
#: sha256 prefixes of the full trace of one 6-queue AUTO_FIT cluster run
#: (cold profile cache, so the microbenchmarks are in it too), per overlap.
TRACE_DIGESTS = {False: "9937b3bb7860331e", True: "0446722e02deeaff"}

#: sha256 prefix of the ``cluster`` experiment's rows at fast scale.
CLUSTER_ROWS_DIGEST = "4999de6e711c7e17"


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("MULTICL_"):
            monkeypatch.delenv(name)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _cluster_trace_digest(tmp_path, overlap):
    mcl = MultiCL(
        node_spec=two_node_cluster(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=str(tmp_path),
        overlap=overlap,
    )
    ctx = mcl.context
    prog = ctx.create_program(COMPUTE_SRC).build()
    n = 1 << 21
    queues = []
    for i in range(6):
        k = prog.create_kernel("crunch")
        a = ctx.create_buffer(4 * n)
        b = ctx.create_buffer(4 * n)
        a.mark_valid("host")
        k.set_arg(0, a)
        k.set_arg(1, b)
        k.set_arg(2, n)
        q = mcl.queue(flags=DYN, name=f"q{i}")
        for _ in range(4):
            q.enqueue_nd_range_kernel(k, (n,), (128,))
        q.enqueue_read_buffer(b)  # remote queues read back over the NIC
        queues.append(q)
    for q in queues:
        q.finish()
    assert {q.device for q in queues} >= {"node1.gpu0", "node1.gpu1"}
    records = [
        (iv.resource, iv.task, iv.category, iv.start, iv.end,
         sorted(iv.meta.items()))
        for iv in mcl.engine.trace
    ]
    on_nic = {dict(r[5])["direction"] for r in records if r[0] == "link:nic-node1"}
    assert on_nic == {"net-out", "net-in"}
    return _digest(records)


@pytest.mark.parametrize("overlap", [False, True])
def test_cluster_trace_pinned(tmp_path, clean_env, overlap):
    assert _cluster_trace_digest(tmp_path, overlap) == TRACE_DIGESTS[overlap]


def test_cluster_trace_ignores_buffers_of_other_platforms(tmp_path, clean_env):
    """Default buffer names, which trace task names carry, count per
    platform: buffers made on another platform first leave the trace as
    pinned."""
    other = Platform(profile=False).create_context()
    for _ in range(5):
        other.create_buffer(64)
    assert _cluster_trace_digest(tmp_path, False) == TRACE_DIGESTS[False]


def test_cluster_experiment_rows_pinned(tmp_path, clean_env):
    from repro.bench.figures import run_experiment
    from repro.core import profile_store

    profile_store.set_profile_dir(str(tmp_path))
    try:
        rows = run_experiment("cluster", fast=True).rows
    finally:
        profile_store.set_profile_dir(None)
    assert _digest(rows) == CLUSTER_ROWS_DIGEST

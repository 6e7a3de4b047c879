"""Scheduler edge cases: multi-context platforms, env-driven config,
iterative re-profiling end-to-end, region/hint interactions."""

import numpy as np
import pytest

from repro.core.flags import ITERATIVE_FREQ_ENV, SchedulerConfig
from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.ocl.platform import Platform

SRC = """
// @multicl flops_per_item=200 bytes_per_item=8 writes=1
__kernel void gk(__global float* a, __global float* b, int n) { }
// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.7 irregularity=0.8 gpu_eff=0.1 writes=1
__kernel void ck(__global float* a, __global float* b, int n) { }
"""

DYN = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def _kernel(ctx, prog, name, n=1 << 16):
    k = prog.create_kernel(name)
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    return k, n


def test_two_contexts_with_independent_schedulers(profile_dir):
    """One platform, two scheduled contexts: pools never mix."""
    platform = Platform(profile=True, profile_dir=profile_dir)
    props = {ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    ctx1 = platform.create_context(properties=props)
    ctx2 = platform.create_context(properties=props)
    assert ctx1.scheduler is not ctx2.scheduler
    p1 = ctx1.create_program(SRC).build()
    p2 = ctx2.create_program(SRC).build()
    k1, n = _kernel(ctx1, p1, "gk")
    k2, _ = _kernel(ctx2, p2, "ck")
    q1 = ctx1.create_queue(sched_flags=DYN, name="c1q")
    q2 = ctx2.create_queue(sched_flags=DYN, name="c2q")
    q1.enqueue_nd_range_kernel(k1, (n,), (64,))
    q2.enqueue_nd_range_kernel(k2, (n,), (64,))
    # Finishing ctx1's queue must not issue ctx2's pool.
    q1.finish()
    assert q2.pending
    q2.finish()
    assert q1.device in ("gpu0", "gpu1") and q2.device == "cpu"
    assert ctx1.scheduler.mapping_history[0].keys() == {"c1q"}


def test_mixed_policy_contexts(profile_dir):
    platform = Platform(profile=True, profile_dir=profile_dir)
    rr = platform.create_context(
        properties={
            ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.ROUND_ROBIN
        }
    )
    af = platform.create_context(
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    )
    prog_rr = rr.create_program(SRC).build()
    prog_af = af.create_program(SRC).build()
    k_rr, n = _kernel(rr, prog_rr, "ck")
    k_af, _ = _kernel(af, prog_af, "ck")
    q_rr = rr.create_queue(sched_flags=DYN)
    q_af = af.create_queue(sched_flags=DYN)
    q_rr.enqueue_nd_range_kernel(k_rr, (n,), (64,))
    q_af.enqueue_nd_range_kernel(k_af, (n,), (64,))
    q_rr.finish()
    q_af.finish()
    # Round-robin ignores affinity (GPU first); autofit learns it (CPU).
    assert q_rr.device == "gpu0"
    assert q_af.device == "cpu"


def test_iterative_refresh_env_plumbed_end_to_end(profile_dir, monkeypatch):
    """MULTICL_ITERATIVE_FREQUENCY re-profiles every Nth trigger."""
    monkeypatch.setenv(ITERATIVE_FREQ_ENV, "2")
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    prog = mcl.context.create_program(SRC).build()
    k, n = _kernel(mcl.context, prog, "gk")
    q = mcl.queue(flags=DYN)
    for _ in range(4):
        q.enqueue_nd_range_kernel(k, (n,), (64,))
        q.finish()
    profiler = mcl.context.scheduler.profiler
    assert profiler.config.iterative_refresh == 2
    assert profiler.stats.refreshes >= 1
    # Re-profiling really ran more than once.
    assert profiler.stats.profiling_runs >= 2


def test_explicit_config_beats_env(profile_dir, monkeypatch):
    monkeypatch.setenv(ITERATIVE_FREQ_ENV, "7")
    cfg = SchedulerConfig(iterative_refresh=0)
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, config=cfg, profile_dir=profile_dir
    )
    assert mcl.context.scheduler.config.iterative_refresh == 0


def test_hint_flags_during_region(profile_dir):
    """clSetCommandQueueSchedProperty can add hint flags at region start."""
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    prog = mcl.context.create_program(SRC).build()
    k, n = _kernel(mcl.context, prog, "gk")
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_EXPLICIT_REGION
    q = mcl.queue(device="cpu", flags=flags)
    q.set_sched_property(
        SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_COMPUTE_BOUND
    )
    assert q.sched_flags & SchedFlag.SCHED_COMPUTE_BOUND
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    q.set_sched_property(SchedFlag.SCHED_OFF)
    # COMPUTE_BOUND enabled minikernel profiling inside the region.
    assert mcl.engine.trace.filter(
        category="profile-kernel",
        predicate=lambda iv: iv.meta.get("minikernel"),
    )


def test_empty_finish_is_harmless(autofit):
    q = autofit.queue(flags=DYN)
    q.finish()  # nothing pending: no scheduler trigger, no crash
    assert autofit.scheduler_mappings() == []


def test_marker_only_epoch_schedules_without_profiling(autofit):
    q = autofit.queue(flags=DYN)
    q.enqueue_marker()
    q.finish()
    assert autofit.engine.trace.count(category="profile-kernel") == 0
    assert len(autofit.scheduler_mappings()) == 1


def test_write_only_epoch_maps_by_transfer_estimates(autofit):
    """An epoch of pure data movement still gets a sensible device."""
    buf = autofit.context.create_buffer(64 << 20)
    q = autofit.queue(flags=DYN)
    q.enqueue_write_buffer(buf)
    q.finish()
    assert q.device in autofit.device_names
    assert buf.is_valid_on(q.device)


def test_fission_and_cluster_compose(profile_dir):
    """Sub-devices on the root node of a cluster platform."""
    from repro.cluster import two_node_cluster

    platform = Platform(
        node_spec=two_node_cluster(), profile=True, profile_dir=profile_dir
    )
    platform.create_sub_devices("cpu", 2)
    names = platform.device_names
    assert "cpu.0" in names and "node1.gpu0" in names
    prof = platform.device_profile
    assert set(prof.gflops) == set(names)


def test_cluster_fission_keeps_network_hops(profile_dir):
    """After root-node fission, remote devices still charge the network."""
    from repro.cluster import two_node_cluster

    platform = Platform(
        node_spec=two_node_cluster(), profile=True, profile_dir=profile_dir
    )
    platform.create_sub_devices("cpu", 2)
    assert "node1.gpu0" in platform.spec.net_links
    prof = platform.device_profile
    nbytes = 64 << 20
    assert prof.h2d_seconds("node1.gpu0", nbytes) > 2 * prof.h2d_seconds(
        "gpu0", nbytes
    )


def test_remote_device_fission_rejected(profile_dir):
    from repro.cluster import two_node_cluster
    from repro.ocl.errors import InvalidDevice

    platform = Platform(
        node_spec=two_node_cluster(), profile=True, profile_dir=profile_dir
    )
    with pytest.raises(InvalidDevice):
        platform.create_sub_devices("node1.gpu0", 2)

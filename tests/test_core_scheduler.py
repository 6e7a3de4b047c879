"""Global scheduling policies: ROUND_ROBIN and AUTO_FIT behaviour."""

import numpy as np
import pytest

from repro.core.baselines import KERNEL_GRANULARITY_POLICY
from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.ocl.memory import HOST

SRC = """
// @multicl flops_per_item=300 bytes_per_item=8 writes=1
__kernel void gpuish(__global float* in, __global float* out, int n) { }
// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.7 irregularity=0.8 gpu_eff=0.1 writes=1
__kernel void cpuish(__global float* in, __global float* out, int n) { }
"""

DYN = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def _setup_kernel(mcl, name, n=1 << 18):
    ctx = mcl.context
    prog = getattr(mcl, "_test_prog", None)
    if prog is None:
        prog = ctx.create_program(SRC).build()
        mcl._test_prog = prog
    k = prog.create_kernel(name)
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    return k, n


# ---------------------------------------------------------------------------
# ROUND_ROBIN
# ---------------------------------------------------------------------------
def test_round_robin_assigns_gpus_first(roundrobin):
    k, n = _setup_kernel(roundrobin, "gpuish")
    queues = [roundrobin.queue(flags=DYN, name=f"q{i}") for i in range(3)]
    for q in queues:
        q.enqueue_nd_range_kernel(k, (n,), (64,))
    for q in queues:
        q.finish()
    # SnuCL enumeration order: accelerators first, CPU last.
    assert [q.device for q in queues] == ["gpu0", "gpu1", "cpu"]


def test_round_robin_sticky_across_epochs(roundrobin):
    k, n = _setup_kernel(roundrobin, "gpuish")
    q = roundrobin.queue(flags=DYN)
    for _ in range(3):
        q.enqueue_nd_range_kernel(k, (n,), (64,))
        q.finish()
    # The queue keeps its first assignment; no per-epoch thrash.
    assert q.binding_history.count("gpu0") == len(q.binding_history) - 1


def test_round_robin_wraps_around(roundrobin):
    k, n = _setup_kernel(roundrobin, "gpuish")
    queues = [roundrobin.queue(flags=DYN) for _ in range(5)]
    for q in queues:
        q.enqueue_nd_range_kernel(k, (n,), (64,))
    for q in queues:
        q.finish()
    assert [q.device for q in queues] == ["gpu0", "gpu1", "cpu", "gpu0", "gpu1"]


def test_round_robin_does_no_profiling(roundrobin):
    k, n = _setup_kernel(roundrobin, "gpuish")
    q = roundrobin.queue(flags=DYN)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    trace = roundrobin.engine.trace
    assert trace.count(category="profile-kernel") == 0
    assert trace.count(category="profile-transfer") == 0


# ---------------------------------------------------------------------------
# AUTO_FIT — dynamic
# ---------------------------------------------------------------------------
def test_autofit_maps_by_affinity(autofit):
    kg, n = _setup_kernel(autofit, "gpuish")
    kc, _ = _setup_kernel(autofit, "cpuish")
    qg = autofit.queue(flags=DYN, name="qg")
    qc = autofit.queue(flags=DYN, name="qc")
    qg.enqueue_nd_range_kernel(kg, (n,), (64,))
    qc.enqueue_nd_range_kernel(kc, (n,), (64,))
    qg.finish()
    qc.finish()
    assert qg.device in ("gpu0", "gpu1")
    assert qc.device == "cpu"


def test_autofit_balances_identical_queues(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    queues = [autofit.queue(flags=DYN) for _ in range(4)]
    for q in queues:
        q.enqueue_nd_range_kernel(k, (n,), (64,))
    for q in queues:
        q.finish()
    devices = [q.device for q in queues]
    # GPU-friendly work across two GPUs: no device gets more than 2 queues
    # and both GPUs participate.
    assert devices.count("gpu0") <= 2 and devices.count("gpu1") <= 2
    assert "gpu0" in devices and "gpu1" in devices


def test_autofit_records_mapping_history(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    q = autofit.queue(flags=DYN, name="q0")
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    history = autofit.scheduler_mappings()
    assert history and "q0" in history[0]


def test_autofit_respects_memory_capacity(autofit):
    """A queue whose working set exceeds GPU memory must land on the CPU,
    even for GPU-friendly kernels."""
    ctx = autofit.context
    prog = ctx.create_program(SRC).build()
    k = prog.create_kernel("gpuish")
    n = 1 << 20
    big = ctx.create_buffer(4 * 10 ** 9)  # 4 GB > 3 GB C2050
    out = ctx.create_buffer(4 * n)
    k.set_arg(0, big)
    k.set_arg(1, out)
    k.set_arg(2, n)
    q = autofit.queue(flags=DYN)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert q.device == "cpu"


def test_autofit_accounts_for_data_location(profile_dir):
    """With profile data cached on every device the mapper is free; but a
    huge resident working set on one device pins the queue there."""
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        # Disable data caching so residency stays where we put it.
        config=SchedulerConfig(data_caching=False),
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    prog = ctx.create_program(SRC).build()
    k = prog.create_kernel("cpuish")
    n = 1 << 16
    a = ctx.create_buffer(2 * 10 ** 9)  # 2 GB resident on gpu0
    b = ctx.create_buffer(4 * n)
    a.mark_exclusive("gpu0")
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q = mcl.queue(flags=DYN)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    # 'cpuish' prefers the CPU, but moving 2 GB over PCIe dwarfs the kernel
    # time; the mapper keeps the queue at the data.
    assert q.device == "gpu0"


# ---------------------------------------------------------------------------
# AUTO_FIT — static (hint-only) scheduling
# ---------------------------------------------------------------------------
def test_static_compute_bound_picks_highest_gflops(autofit):
    k, n = _setup_kernel(autofit, "cpuish")
    flags = (
        SchedFlag.SCHED_AUTO_STATIC
        | SchedFlag.SCHED_KERNEL_EPOCH
        | SchedFlag.SCHED_COMPUTE_BOUND
    )
    q = autofit.queue(flags=flags)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    # Hint-only: GPUs have the highest measured throughput, so the static
    # scheduler picks one — even though profiling would have said CPU.
    assert q.device in ("gpu0", "gpu1")
    assert autofit.engine.trace.count(category="profile-kernel") == 0


def test_static_io_bound_picks_fastest_link(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    flags = (
        SchedFlag.SCHED_AUTO_STATIC
        | SchedFlag.SCHED_KERNEL_EPOCH
        | SchedFlag.SCHED_IO_BOUND
    )
    q = autofit.queue(flags=flags)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    # The CPU's DRAM link is the fastest host link on this node.
    assert q.device == "cpu"


def test_static_spreads_load(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    flags = (
        SchedFlag.SCHED_AUTO_STATIC
        | SchedFlag.SCHED_KERNEL_EPOCH
        | SchedFlag.SCHED_COMPUTE_BOUND
    )
    queues = [autofit.queue(flags=flags) for _ in range(2)]
    for q in queues:
        q.enqueue_nd_range_kernel(k, (n,), (64,))
    for q in queues:
        q.finish()
    assert queues[0].device != queues[1].device


# ---------------------------------------------------------------------------
# Explicit regions
# ---------------------------------------------------------------------------
def test_explicit_region_freezes_binding(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_EXPLICIT_REGION
    q = autofit.queue(device="cpu", flags=flags)
    # Outside the region commands run on the creation-time binding.
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert q.device == "cpu"
    # Inside the region the scheduler takes over.
    q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    q.set_sched_property(SchedFlag.SCHED_OFF)
    chosen = q.device
    assert chosen in ("gpu0", "gpu1")
    # After the region, the binding is frozen again.
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert q.device == chosen


def test_region_stop_schedules_leftover_commands(autofit):
    k, n = _setup_kernel(autofit, "gpuish")
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_EXPLICIT_REGION
    q = autofit.queue(device="cpu", flags=flags)
    q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)
    ev = q.enqueue_nd_range_kernel(k, (n,), (64,))
    # Stopping the region with pending work triggers scheduling.
    q.set_sched_property(SchedFlag.SCHED_OFF)
    assert ev.task is not None
    q.finish()
    assert ev.complete


def test_per_kernel_trigger_mode(profile_dir):
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        config=SchedulerConfig(per_kernel_trigger=True),
        profile_dir=profile_dir,
    )
    k, n = _setup_kernel(mcl, "gpuish")
    q = mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    ev = q.enqueue_nd_range_kernel(k, (n,), (64,))
    # Scheduled immediately at enqueue, not at the sync point.
    assert ev.task is not None
    assert len(mcl.scheduler_mappings()) == 1


def test_static_memory_bound_picks_highest_bandwidth(autofit):
    k, n = _setup_kernel(autofit, "cpuish")
    flags = (
        SchedFlag.SCHED_AUTO_STATIC
        | SchedFlag.SCHED_KERNEL_EPOCH
        | SchedFlag.SCHED_MEMORY_BOUND
    )
    q = autofit.queue(flags=flags)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    # GPUs have the highest measured memory bandwidth on this node.
    assert q.device in ("gpu0", "gpu1")
    assert autofit.engine.trace.count(category="profile-kernel") == 0


# ---------------------------------------------------------------------------
# Per-kernel triggers and the SOCL-style baseline
# ---------------------------------------------------------------------------
#: policy -> (CL_CONTEXT_SCHEDULER value, per_kernel_trigger); the
#: kernel-granularity baseline triggers on every kernel by design.
PER_KERNEL_POLICIES = {
    "auto-fit": (ContextScheduler.AUTO_FIT, True),
    "round-robin": (ContextScheduler.ROUND_ROBIN, True),
    "kernel-granularity": (KERNEL_GRANULARITY_POLICY, False),
}


@pytest.mark.parametrize("waiter_first", [True, False],
                         ids=["waiter-first", "producer-first"])
@pytest.mark.parametrize("policy", sorted(PER_KERNEL_POLICIES))
def test_per_kernel_trigger_pools_cross_queue_producers(
    profile_dir, policy, waiter_first
):
    """A kernel waiting on another queue's deferred write issues at its
    own trigger: the trigger pools the producer's queue too."""
    token, per_kernel = PER_KERNEL_POLICIES[policy]
    mcl = MultiCL(
        policy=token,
        config=SchedulerConfig(per_kernel_trigger=per_kernel),
        profile_dir=profile_dir,
    )
    k, n = _setup_kernel(mcl, "gpuish")
    names = ["waiter", "producer"] if waiter_first else ["producer", "waiter"]
    queues = {name: mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC, name=name)
              for name in names}
    waiter, producer = queues["waiter"], queues["producer"]
    src = mcl.context.create_buffer(4 * n)
    k.set_arg(0, src)
    write = producer.enqueue_write_buffer(src, np.ones(n, np.float32))
    ev = waiter.enqueue_nd_range_kernel(k, (n,), (64,), wait_events=[write])
    # Both issued at the kernel's trigger, the write first.
    assert write.task is not None and ev.task is not None
    other = producer.enqueue_nd_range_kernel(k, (n,), (64,))
    assert other.task is not None
    waiter.finish()
    producer.finish()
    assert ev.profile_start >= write.profile_end
    if policy == "kernel-granularity":
        # A kernel is placed once, when it issues.
        assert mcl.context.scheduler.decisions == 2


def test_kernel_granularity_places_each_kernel_once(profile_dir):
    mcl = MultiCL(policy=KERNEL_GRANULARITY_POLICY, profile_dir=profile_dir)
    gk, n = _setup_kernel(mcl, "gpuish")
    ck, _ = _setup_kernel(mcl, "cpuish")
    q = mcl.queue(flags=DYN, name="mixed")
    events = [q.enqueue_nd_range_kernel(k, (n,), (64,)) for k in (gk, ck, gk)]
    # Every kernel is a trigger of its own: issued at enqueue.
    assert all(ev.task is not None for ev in events)
    q.finish()
    sched = mcl.context.scheduler
    assert sched.decisions == 3
    assert len(sched.mapping_history) == 3
    devices = {f"dev:{d}" for d in mcl.device_names}
    assert all(ev.task.resource.name in devices for ev in events)
    maps = mcl.engine.trace.filter(
        category="schedule", predicate=lambda iv: iv.task == "per-kernel-map"
    )
    assert len(maps) == 3

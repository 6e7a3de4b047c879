"""Dynamic kernel profiler: measurement, caches, minikernel estimation."""

import numpy as np
import pytest

from repro.core.flags import SchedulerConfig
from repro.core.kernel_profiler import EPOCH_CACHE_SIZE, KernelProfiler
from repro.hardware.cost import kernel_time
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.ocl.memory import HOST
from repro.ocl.platform import Platform
from repro.ocl.queue import Command, CommandKind
from repro.ocl.kernel import WorkGroupConfig

SRC = """
// @multicl flops_per_item=100 bytes_per_item=16 gpu_eff=0.3 writes=1
__kernel void work(__global float* in, __global float* out, int n) { }
// @multicl flops_per_item=500 bytes_per_item=4 writes=1
__kernel void crunch(__global float* in, __global float* out, int n) { }
"""


@pytest.fixture
def ctx(profile_dir):
    platform = Platform(profile=True, profile_dir=profile_dir)
    return platform.create_context(
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    )


def _kernel_command(ctx, prog, name="work", n=1 << 14, init=True):
    k = prog.create_kernel(name)
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    if init:
        a.mark_valid(HOST)
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    args, buffers, written = k.snapshot()
    return Command(
        kind=CommandKind.NDRANGE_KERNEL,
        kernel=k,
        launch=WorkGroupConfig.normalize((n,), (64,)),
        args_snapshot=args,
        arg_buffers=buffers,
        written_buffers=written,
    )


def _queue(ctx, device_name=None, flags=SchedFlag.SCHED_AUTO_DYNAMIC):
    """A queue with ``flags``: the profiler reads its hints from them."""
    return ctx.create_queue(device_name, sched_flags=flags)


def test_profile_epoch_returns_all_devices(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog)
    epoch = prof.profile_epoch(q, [cmd])
    assert set(epoch) == {"cpu", "gpu0", "gpu1"}
    assert all(v > 0 for v in epoch.values())


def test_profiling_charges_simulated_time(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    t0 = ctx.platform.engine.now
    prof.profile_epoch(q, [_kernel_command(ctx, prog)])
    assert ctx.platform.engine.now > t0


def test_cache_hit_is_free(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog)
    first = prof.profile_epoch(q, [cmd])
    t0 = ctx.platform.engine.now
    again = prof.profile_epoch(q, [cmd])
    assert ctx.platform.engine.now == t0  # epoch cache: no new work
    assert again == first
    assert prof.stats.epoch_cache_hits == 1


def test_epoch_cache_stays_bounded_on_never_repeating_epochs(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog)
    # Epoch k runs the kernel k times: every epoch key is new, as in a
    # service replay whose pools never repeat.
    first = prof.profile_epoch(q, [cmd])
    measured = prof.stats.kernels_measured
    for k in range(2, EPOCH_CACHE_SIZE + 40):
        prof.profile_epoch(q, [cmd] * k)
        assert len(prof.epoch_cache) <= EPOCH_CACHE_SIZE
    assert len(prof.epoch_cache) == EPOCH_CACHE_SIZE
    assert prof.stats.epoch_cache_hits == 0
    # A repeated epoch still hits; an evicted one re-sums from the kernel
    # cache to the same floats without measuring again.
    last = [cmd] * (EPOCH_CACHE_SIZE + 39)
    hit = prof.profile_epoch(q, last)
    assert prof.stats.epoch_cache_hits == 1
    assert hit == prof.profile_epoch(q, last)
    assert prof.profile_epoch(q, [cmd]) == first
    assert prof.stats.epoch_cache_hits == 2
    assert prof.stats.kernels_measured == measured


def test_kernel_cache_shared_across_epochs(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    c1 = _kernel_command(ctx, prog, "work")
    prof.profile_epoch(q, [c1])
    # A different epoch containing the same kernel plus a new one only
    # measures the new one.
    c2 = _kernel_command(ctx, prog, "work")
    c3 = _kernel_command(ctx, prog, "crunch")
    measured_before = prof.stats.kernels_measured
    prof.profile_epoch(q, [c2, c3])
    assert prof.stats.kernel_cache_hits >= 1
    assert prof.stats.kernels_measured == measured_before + 3  # crunch x3 devs


def test_caching_disabled_remeasures(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig(profile_caching=False))
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog)
    prof.profile_epoch(q, [cmd])
    t0 = ctx.platform.engine.now
    prof.profile_epoch(q, [cmd])
    assert ctx.platform.engine.now > t0


def test_different_sizes_are_different_cache_keys(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    prof.profile_epoch(q, [_kernel_command(ctx, prog, n=1 << 12)])
    runs = prof.stats.profiling_runs
    prof.profile_epoch(q, [_kernel_command(ctx, prog, n=1 << 16)])
    assert prof.stats.profiling_runs == runs + 1


def test_iterative_refresh_clears_caches(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig(iterative_refresh=2))
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog)
    prof.profile_epoch(q, [cmd])  # trigger 1: measure
    prof.profile_epoch(q, [cmd])  # trigger 2: refresh + measure
    assert prof.stats.refreshes == 1


def test_empty_epoch_returns_zeros(ctx):
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    epoch = prof.profile_epoch(q, [])
    assert all(v == 0.0 for v in epoch.values())


def test_profiling_preserves_epoch_relative_order(ctx):
    """The profiled vector must rank devices like the true model does:
    'work' has gpu_eff=0.3 and still beats the CPU on raw throughput."""
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    epoch = prof.profile_epoch(q, [_kernel_command(ctx, prog, n=1 << 20)])
    assert min(epoch, key=epoch.get) in ("gpu0", "gpu1")


def test_minikernel_used_for_compute_bound_queues(ctx):
    prog = ctx.create_program(SRC).build()
    # Full profiling first (fresh profiler), then minikernel: compare cost.
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog, "crunch", n=1 << 22)
    full_prof = KernelProfiler(ctx, SchedulerConfig())
    t0 = ctx.platform.engine.now
    full_prof.profile_epoch(q, [cmd])
    full_cost = ctx.platform.engine.now - t0

    mini_prof = KernelProfiler(ctx, SchedulerConfig())
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_COMPUTE_BOUND
    mini_q = _queue(ctx, flags=flags)
    t0 = ctx.platform.engine.now
    cmd2 = _kernel_command(ctx, prog, "crunch", n=1 << 22)
    mini_prof.profile_epoch(mini_q, [cmd2])
    mini_cost = ctx.platform.engine.now - t0
    # Both modes pay the same input staging; the kernel-execution part of
    # the minikernel run is near-free, so a 5x margin is conservative.
    assert mini_cost < full_cost / 5


def test_minikernel_estimate_preserves_device_ranking(ctx):
    prog = ctx.create_program(SRC).build()
    q = _queue(ctx)
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_COMPUTE_BOUND
    mini_q = _queue(ctx, flags=flags)
    cmd = _kernel_command(ctx, prog, "crunch", n=1 << 22)
    mini = KernelProfiler(ctx, SchedulerConfig()).profile_epoch(mini_q, [cmd])
    cmd2 = _kernel_command(ctx, prog, "crunch", n=1 << 22)
    full = KernelProfiler(ctx, SchedulerConfig()).profile_epoch(q, [cmd2])
    mini_rank = sorted(mini, key=mini.get)
    full_rank = sorted(full, key=full.get)
    assert mini_rank[0] == full_rank[0]


def test_minikernel_requires_transformed_program(ctx):
    """Without minikernel source (config disabled at build), profiling
    falls back to full kernels even for compute-bound queues."""
    cfg = SchedulerConfig(allow_minikernel=False)
    ctx2 = ctx.platform.create_context(
        properties={
            ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT,
            "multicl.config": cfg,
        }
    )
    prog = ctx2.create_program(SRC).build()
    assert prog.minikernel_source is None
    prof = KernelProfiler(ctx2, cfg)
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_COMPUTE_BOUND
    q = _queue(ctx2, flags=flags)
    cmd = _kernel_command(ctx2, prog, "crunch", n=1 << 20)
    assert prof._use_minikernel(q, [cmd]) is False


def test_minikernel_follows_compute_bound_hint(ctx):
    """SCHED_COMPUTE_BOUND selects minikernel profiling; other hints do
    not."""
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    cmd = _kernel_command(ctx, prog, "crunch")
    compute = _queue(ctx, flags=SchedFlag.SCHED_AUTO_DYNAMIC
                     | SchedFlag.SCHED_COMPUTE_BOUND | SchedFlag.SCHED_ITERATIVE)
    memory = _queue(ctx, flags=SchedFlag.SCHED_AUTO_DYNAMIC
                    | SchedFlag.SCHED_MEMORY_BOUND)
    assert prof._use_minikernel(compute, [cmd]) is True
    assert prof._use_minikernel(memory, [cmd]) is False


def test_staging_happens_for_initialized_inputs(ctx):
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx)
    cmd = _kernel_command(ctx, prog, init=True)
    prof.profile_epoch(q, [cmd])
    assert prof.stats.bytes_staged > 0
    assert ctx.platform.engine.trace.count(category="profile-transfer") > 0


def test_full_profile_estimates_match_actual_execution(ctx):
    """Internal consistency: in the noise-free simulator, a full-kernel
    profile measurement equals the kernel's actual execution time on the
    same device (what makes 'always optimal' possible)."""
    prog = ctx.create_program(SRC).build()
    prof = KernelProfiler(ctx, SchedulerConfig())
    q = _queue(ctx, "gpu0")
    cmd = _kernel_command(ctx, prog, "work", n=1 << 18)
    epoch = prof.profile_epoch(q, [cmd])
    # Execute the same launch for real on each device and compare.
    engine = ctx.platform.engine
    for dev_name in ctx.device_names:
        device = ctx.platform.node.device(dev_name)
        kernel, launch = cmd.kernel, cmd.launch
        cost = kernel.launch_cost(device.spec, launch)
        task = device.submit_kernel("actual", kernel_time(device.spec, cost))
        engine.run_until(task)
        assert epoch[dev_name] == pytest.approx(task.duration, rel=1e-9)

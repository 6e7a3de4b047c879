"""SCHED_OVERLAP / SCHED_SPLIT: overlap-aware issue, multi-device splitting,
flag hygiene, and the WorkGroupConfig edge cases the splitter relies on."""

import hashlib
import warnings

import numpy as np
import pytest

import repro.ocl.queue as queue_mod
from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.core.split import SplitShare, plan_split
from repro.hardware.cost import kernel_time
from repro.hardware.specs import DeviceKind, DeviceSpec, LinkSpec, NodeSpec
from repro.ocl.enums import CommandKind, ContextScheduler, SchedFlag
from repro.ocl.errors import (
    DeviceNotAvailable, InvalidValue, InvalidWorkGroupSize, MemAllocationFailure,
)
from repro.ocl.kernel import Kernel, WorkGroupConfig
from repro.ocl.queue import Command

STREAM_SRC = """
// @multicl flops_per_item=200 bytes_per_item=8 writes=1
__kernel void stream(__global float* in, __global float* out, int n) { }
"""

WORK_SRC = """
// @multicl flops_per_item=400 bytes_per_item=8 writes=1
__kernel void work(__global float* in, __global float* out, int n) { }
"""


def asym_node() -> NodeSpec:
    """Two asymmetric devices: a fast GPU and a ~3x slower CPU."""
    gpu = DeviceSpec(
        name="gpu0", kind=DeviceKind.GPU, compute_units=16, clock_ghz=1.0,
        peak_gflops=1000.0, mem_bandwidth_gbs=200.0, mem_size_bytes=4 << 30,
    )
    cpu = DeviceSpec(
        name="cpu", kind=DeviceKind.CPU, compute_units=8, clock_ghz=2.5,
        peak_gflops=300.0, mem_bandwidth_gbs=50.0, mem_size_bytes=16 << 30,
    )
    return NodeSpec(
        name="asym2",
        devices=(gpu, cpu),
        host_links={
            "gpu0": LinkSpec(name="pcie-gpu0", latency_s=1.8e-5, bandwidth_gbs=8.0),
            "cpu": LinkSpec(name="dram-cpu", latency_s=2e-6, bandwidth_gbs=20.0),
        },
    )


# ---------------------------------------------------------------------------
# Overlap-aware issue
# ---------------------------------------------------------------------------
def _stream_pipeline(overlap, profile_dir, iters=8, n=1 << 20):
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir,
        sanitize=True, overlap=overlap,
    )
    ctx = mcl.context
    k = ctx.create_program(STREAM_SRC).build().create_kernel("stream")
    k.set_host_function(lambda a: a["out"].__setitem__(..., a["in"] * 2.0))
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    )
    chunks = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
              for _ in range(2)]
    outs = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
            for _ in range(2)]
    data = [np.full(n, float(i), np.float32) for i in range(iters)]
    res = [np.empty(n, np.float32) for _ in range(iters)]
    t0 = mcl.now
    for i in range(iters):
        c, o = chunks[i % 2], outs[i % 2]
        q.enqueue_write_buffer(c, data[i])
        k.set_arg(0, c)
        k.set_arg(1, o)
        k.set_arg(2, n)
        q.enqueue_nd_range_kernel(k, (n,), (64,))
        q.enqueue_read_buffer(o, res[i])
    q.finish()
    ok = all(np.array_equal(r, d * 2.0) for r, d in zip(res, data))
    return mcl.now - t0, ok


def test_overlap_reduces_streaming_makespan(profile_dir):
    """Acceptance: >= 25% makespan reduction on the streaming workload,
    with bit-identical functional results and the sanitizer on."""
    t_fifo, ok_fifo = _stream_pipeline(False, profile_dir)
    t_over, ok_over = _stream_pipeline(True, profile_dir)
    assert ok_fifo and ok_over
    assert t_over <= 0.75 * t_fifo


def test_overlap_env_opt_in(monkeypatch, profile_dir):
    """MULTICL_OVERLAP engages both halves of overlap — the context's issue
    mode and the platform's duplex links — also under a config that leaves
    overlap unset."""
    for raw, on in (("1", True), ("off", False)):
        monkeypatch.setenv("MULTICL_OVERLAP", raw)
        for config in (None, SchedulerConfig(split=True)):
            mcl = MultiCL(
                policy=ContextScheduler.AUTO_FIT, config=config,
                profile_dir=profile_dir,
            )
            assert mcl.context.overlap is on
            assert mcl.platform.duplex_links is on


def test_overlap_property_wins_over_env(monkeypatch, profile_dir):
    """MultiCL(overlap=False) beats MULTICL_OVERLAP=1."""
    monkeypatch.setenv("MULTICL_OVERLAP", "1")
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir, overlap=False
    )
    assert mcl.context.overlap is False
    assert mcl.platform.duplex_links is False


def test_duplex_links_split_directions(profile_dir):
    mcl = MultiCL(profile_dir=profile_dir, overlap=True)
    node = mcl.platform.node
    assert node.links["gpu0"] is not node.d2h_links["gpu0"]
    assert node.links["gpu0"].name.endswith(":h2d")
    assert node.d2h_links["gpu0"].name.endswith(":d2h")
    simplex = MultiCL(profile_dir=profile_dir, overlap=False).platform.node
    assert simplex.links["gpu0"] is simplex.d2h_links["gpu0"]


def test_overlap_preserves_cross_queue_conflict_order(profile_dir):
    """A producer kernel on one queue and a consumer read on another stay
    ordered through the relaxed issue (conflict-restoration edges)."""
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir,
        sanitize=True, overlap=True,
    )
    ctx = mcl.context
    n = 1 << 12
    k = ctx.create_program(STREAM_SRC).build().create_kernel("stream")
    k.set_host_function(lambda a: a["out"].__setitem__(..., a["in"] + 1.0))
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    q1 = ctx.create_queue(sched_flags=flags, name="producer")
    q2 = ctx.create_queue(sched_flags=flags, name="consumer")
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    q1.enqueue_write_buffer(a, np.full(n, 5.0, np.float32))
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    ev = q1.enqueue_nd_range_kernel(k, (n,), (64,))
    res = np.empty(n, np.float32)
    q2.enqueue_read_buffer(b, res, wait_events=[ev])
    ctx.finish_all()
    assert np.array_equal(res, np.full(n, 6.0, np.float32))


# ---------------------------------------------------------------------------
# Multi-device splitting
# ---------------------------------------------------------------------------
def _split_run(split, profile_dir, n=1 << 20):
    mcl = MultiCL(
        node_spec=asym_node(), policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir, sanitize=True, split=split,
    )
    ctx = mcl.context
    k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    k.set_host_function(
        lambda a: a["out"].__setitem__(..., np.sqrt(np.abs(a["in"])) + 1.5)
    )
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    )
    rng = np.random.default_rng(7)
    data = rng.standard_normal(n).astype(np.float32)
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    q.enqueue_write_buffer(a, data)
    q.finish()
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    t0 = mcl.now
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    if not split:
        # The split epoch delivers results to host (gathers); make the
        # single-device epoch do the same for a fair makespan.
        res = np.empty(n, np.float32)
        q.enqueue_read_buffer(b, res)
    q.finish()
    elapsed = mcl.now - t0
    split_tasks = [
        iv for iv in mcl.engine.trace if iv.task.startswith("split-join:")
    ]
    return elapsed, b.array.copy(), split_tasks


def test_split_beats_best_single_device_bit_identically(tmp_path):
    """Acceptance: a SCHED_SPLIT epoch on a 2-device asymmetric spec beats
    the best single device with bit-identical output buffers."""
    pd = str(tmp_path)
    t_single, out_single, joins_single = _split_run(False, pd)
    t_split, out_split, joins_split = _split_run(True, pd)
    assert not joins_single and joins_split  # split actually engaged
    assert np.array_equal(out_single, out_split)
    assert t_split < t_single


def test_split_flag_on_queue_opts_in(tmp_path):
    mcl = MultiCL(
        node_spec=asym_node(), policy=ContextScheduler.AUTO_FIT,
        profile_dir=str(tmp_path), sanitize=True,
    )
    ctx = mcl.context
    n = 1 << 18
    k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    k.set_host_function(lambda a: a["out"].__setitem__(..., a["in"] * 3.0))
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC
        | SchedFlag.SCHED_KERNEL_EPOCH
        | SchedFlag.SCHED_SPLIT
    )
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    q.enqueue_write_buffer(a, np.arange(n, dtype=np.float32))
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    q.enqueue_nd_range_kernel(k, (n,), (64,))
    q.finish()
    assert any(iv.task.startswith("split-join:") for iv in mcl.engine.trace)
    assert np.array_equal(b.array, np.arange(n, dtype=np.float32) * 3.0)


def test_npb_split_bit_identical(profile_dir):
    """Property: split execution is bit-identical to unsplit across the
    NPB kernels (functional checks compare equal)."""
    from repro.workloads.base import ProblemClass
    from repro.workloads.npb import BENCHMARKS
    from repro.workloads.npb.common import run_npb

    for name, cls in sorted(BENCHMARKS.items()):
        app_plain = cls(cls.VALID_CLASSES[0], cls.QUEUE_RULE.allowed[0])
        app_split = cls(cls.VALID_CLASSES[0], cls.QUEUE_RULE.allowed[0])
        plain = run_npb(app_plain, mode="auto", profile_dir=profile_dir)
        split = run_npb(
            app_split, mode="auto", profile_dir=profile_dir,
            config=SchedulerConfig(split=True),
        )
        assert set(plain.checks) == set(split.checks), name
        for key in plain.checks:
            a, b = plain.checks[key], split.checks[key]
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f"{name}:{key}"
            else:
                assert a == b, f"{name}:{key}"


# ---------------------------------------------------------------------------
# Split plans memoised per kernel
# ---------------------------------------------------------------------------
def _split_launcher(profile_dir, monkeypatch, n=1 << 18):
    """A per-kernel-trigger split queue on the default node, and a
    ``launch()`` that runs the kernel once and returns its split plan.
    ``plans`` counts the planner's calls."""
    import repro.core.scheduler as scheduler_mod

    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir, split=True,
    )
    ctx = mcl.context
    k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    )
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    q.enqueue_write_buffer(a, np.ones(n, np.float32))
    q.finish()
    k.set_arg(0, a)
    k.set_arg(1, b)
    k.set_arg(2, n)
    plans = []
    planner = scheduler_mod.plan_split
    monkeypatch.setattr(
        scheduler_mod, "plan_split",
        lambda *args: plans.append(args) or planner(*args),
    )

    def launch():
        event = q.enqueue_nd_range_kernel(k, (n,), (64,))
        q.finish()
        return event.split_plan

    return mcl, k, launch, plans


def _share_of(plan, device):
    """Work items ``plan`` gives ``device``."""
    return sum(s.hi - s.lo for s in plan if s.device == device)


def test_split_plan_memo_cleared_by_work_group_info(profile_dir, monkeypatch):
    """A repeat trigger reuses the plan; a new per-device local size
    re-plans, aligned to it."""
    _, k, launch, plans = _split_launcher(profile_dir, monkeypatch)
    first = launch()
    assert first is not None and launch() is first
    assert len(plans) == 1
    (cpu_share,) = [s.hi - s.lo for s in first if s.device == "cpu"]
    assert cpu_share % 1024  # the old plan is not 1024-aligned on cpu
    k.set_work_group_info("cpu", (1 << 18,), (1024,))
    again = launch()
    assert len(plans) == 2
    assert _share_of(again, "cpu") % 1024 == 0
    assert _share_of(again, "cpu") != cpu_share


def test_split_cost_model_priced_on_every_sub_range_launch(
    profile_dir, monkeypatch
):
    """Sub-range configs are memoised, their prices are not: a custom cost
    model sees every share of every launch, and a new argument re-prices
    without re-planning."""
    from repro.hardware.cost import KernelCost

    _, k, launch, planned = _split_launcher(profile_dir, monkeypatch)
    priced = []

    def cost_model(spec, config, args):
        priced.append((spec.name, config.global_size[0]))
        n = config.work_items
        return KernelCost(flops=400.0 * n, bytes=8.0 * n, work_items=n,
                          workgroup_size=config.workgroup_size)

    k.set_cost_model(cost_model)
    plans = [launch() for _ in range(3)]
    assert plans[0] is not None and plans[1] is plans[0] is plans[2]
    for share in plans[0]:
        assert priced.count((share.device, share.hi - share.lo)) == 3
    k.set_arg(0, k.args[1])
    assert launch() is plans[0] and len(planned) == 1
    for share in plans[0]:
        assert priced.count((share.device, share.hi - share.lo)) == 4


def _sub_kernels(mcl, since=0.0):
    """``{task name: seconds}`` of the split sub-kernels ending after
    ``since``."""
    return {
        iv.task: iv.duration for iv in mcl.engine.trace
        if iv.category == "kernel" and "split" in iv.meta and iv.end > since
    }


def test_split_sub_kernels_follow_work_group_info(profile_dir, monkeypatch):
    """Share names and prices are memoised with the plan: a new per-device
    configuration must rename and re-price every sub-kernel."""
    mcl, k, launch, _ = _split_launcher(profile_dir, monkeypatch)
    old_plan = launch()
    old = _sub_kernels(mcl)
    t0 = mcl.now
    k.set_work_group_info("cpu", (1 << 18,), (1024,))
    plan = launch()
    new = _sub_kernels(mcl, since=t0)
    node = mcl.platform.node
    launch_config = WorkGroupConfig.normalize((1 << 18,), (64,))
    expected = {}
    for share in plan:
        dev = node.device(share.device)
        sub = k.sub_range_config(share.device, launch_config, share.lo, share.hi)
        expected[f"work[{share.lo}:{share.hi}]@{share.device}"] = (
            kernel_time(dev.spec, k.config_cost(dev.spec, sub))
        )
    assert plan != old_plan
    assert set(new) == set(expected) != set(old)
    for name, seconds in expected.items():
        assert new[name] == pytest.approx(seconds)


def test_split_share_refused_on_a_failed_device(manual_context):
    """Memoised shares still check their device on every launch."""
    ctx = manual_context
    n = 1 << 20
    k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    a = ctx.create_buffer(4 * n)
    b = ctx.create_buffer(4 * n)
    a.mark_valid("host")
    assert _split_on_gpu0(ctx, a, b, n, k).task is not None
    ctx.platform.mark_device_failed("cpu")
    with pytest.raises(DeviceNotAvailable, match=r"split share \[524288:1048576\) "
                       r"targets failed device 'cpu'"):
        _split_on_gpu0(ctx, a, b, n, k)


def test_split_plan_drops_a_device_failed_between_triggers(
    profile_dir, monkeypatch
):
    from repro.sim.faults import FaultPlan

    mcl, _, launch, plans = _split_launcher(profile_dir, monkeypatch)
    before = launch()
    assert "gpu1" in [s.device for s in before]
    mcl.inject_faults(FaultPlan().fail_device("gpu1", at=mcl.now))
    after = launch()
    assert len(plans) == 2
    assert after is not None and len(after) >= 2
    assert "gpu1" not in [s.device for s in after]


# ---------------------------------------------------------------------------
# Split planner
# ---------------------------------------------------------------------------
class _FakeKernel:
    name = "fake"

    def __init__(self, configs=None):
        self.device_configs = configs or {}

    def effective_config(self, device, launch):
        return self.device_configs.get(device, launch)

    sub_range_config = Kernel.sub_range_config


def test_plan_split_proportional_and_aligned():
    launch = WorkGroupConfig.normalize((1024,), (32,))
    plan = plan_split(
        _FakeKernel(), launch, ["fast", "slow"], {"fast": 1.0, "slow": 3.0}
    )
    assert all(isinstance(s, SplitShare) for s in plan)
    s0, s1 = plan
    assert (s0.device, s1.device) == ("fast", "slow")
    assert s0.lo == 0 and s0.hi == s1.lo and s1.hi == 1024  # contiguous cover
    assert _share_of(plan, "slow") % 32 == 0  # workgroup aligned
    # fast device is 3x the rate: it takes ~3/4 of the range (plus remainder)
    assert _share_of(plan, "fast") > 2 * _share_of(plan, "slow")
    # every share carries its launch constants
    assert s1.config == WorkGroupConfig.normalize((1024 - s1.lo,), (32,))
    assert (s1.tag, s1.name, s1.total) == (
        f"{s1.lo}:1024", f"fake[{s1.lo}:1024]", 1024
    )
    assert s1.slice_bytes(4096) == 4 * (1024 - s1.lo)


def test_plan_split_odd_global_size_remainder_to_fastest():
    launch = WorkGroupConfig.normalize((1001,), (64,))
    plan = plan_split(
        _FakeKernel(), launch, ["fast", "slow"], {"fast": 1.0, "slow": 2.0}
    )
    assert plan is not None
    assert sum(s.hi - s.lo for s in plan) == 1001
    # the non-multiple remainder lands on the fastest device
    assert _share_of(plan, "slow") % 64 == 0
    assert _share_of(plan, "fast") % 64 != 0


def test_plan_split_degenerate_cases():
    launch = WorkGroupConfig.normalize((96,), (64,))
    fake = _FakeKernel()
    # too small for two aligned shares -> no split
    assert plan_split(fake, launch, ["a", "b"], {"a": 1.0, "b": 1.0}) is None
    # fewer than two usable devices -> no split
    big = WorkGroupConfig.normalize((4096,), (64,))
    assert plan_split(fake, big, ["a"], {"a": 1.0}) is None
    assert plan_split(fake, big, ["a", "b"], {"a": 1.0}) is None
    assert (
        plan_split(fake, big, ["a", "b"], {"a": 1.0, "b": float("inf")}) is None
    )


def test_plan_split_honours_per_device_configs():
    launch = WorkGroupConfig.normalize((4096,), (32,))
    fake = _FakeKernel({"wide": WorkGroupConfig.normalize((4096,), (256,))})
    plan = plan_split(fake, launch, ["wide", "b"], {"wide": 1.0, "b": 1.0})
    assert plan is not None
    assert plan[0].device == "wide"
    # non-remainder share on "b" is 32-aligned; "wide"'s chunking was 256
    assert _share_of(plan, "b") % 32 == 0


# ---------------------------------------------------------------------------
# WorkGroupConfig / clSetKernelWorkGroupInfo edge cases
# ---------------------------------------------------------------------------
def test_workgroup_config_invalid_dims():
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig.normalize((4, 4, 4, 4))  # 4 dims
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig.normalize((16, 16), (4,))  # mismatched dims
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig.normalize((0,), (1,))  # zero global size
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig.normalize((16,), (0,))  # zero local size


def test_sub_range_config_clips_local_to_share(manual_context):
    prog = manual_context.create_program(STREAM_SRC).build()
    k = prog.create_kernel("stream")
    launch = WorkGroupConfig.normalize((1024,), (64,))
    sub = k.sub_range_config("gpu0", launch, 0, 32)
    assert sub.global_size == (32,)
    assert sub.local_size == (32,)  # clipped from 64


def test_sub_range_config_honours_device_override(manual_context):
    prog = manual_context.create_program(STREAM_SRC).build()
    k = prog.create_kernel("stream")
    k.set_work_group_info("gpu0", (1024,), (128,))
    launch = WorkGroupConfig.normalize((1024,), (64,))
    sub = k.sub_range_config("gpu0", launch, 0, 512)
    assert sub.local_size == (128,)  # per-device config, not the launch's
    other = k.sub_range_config("cpu", launch, 0, 512)
    assert other.local_size == (64,)


def test_sub_range_config_rejects_out_of_bounds(manual_context):
    prog = manual_context.create_program(STREAM_SRC).build()
    k = prog.create_kernel("stream")
    launch = WorkGroupConfig.normalize((1024,), (64,))
    with pytest.raises(InvalidValue):
        k.sub_range_config("gpu0", launch, 512, 512)  # empty
    with pytest.raises(InvalidValue):
        k.sub_range_config("gpu0", launch, 0, 2048)  # past the end


# ---------------------------------------------------------------------------
# SchedFlag hygiene
# ---------------------------------------------------------------------------
@pytest.fixture
def _reset_flag_warnings():
    saved = set(queue_mod._warned_flag_values)
    queue_mod._warned_flag_values.clear()
    yield
    queue_mod._warned_flag_values.clear()
    queue_mod._warned_flag_values.update(saved)


def test_split_without_auto_warns_once(manual_context, _reset_flag_warnings):
    flags = SchedFlag.SCHED_OFF | SchedFlag.SCHED_SPLIT
    with pytest.warns(RuntimeWarning, match="SCHED_SPLIT"):
        manual_context.create_queue(sched_flags=flags)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second identical set: no warning
        manual_context.create_queue(sched_flags=flags)


def test_overlap_without_auto_warns(manual_context, _reset_flag_warnings):
    with pytest.warns(RuntimeWarning, match="SCHED_OVERLAP"):
        manual_context.create_queue(sched_flags=SchedFlag.SCHED_OVERLAP)


def test_split_with_auto_does_not_warn(autofit, _reset_flag_warnings):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        autofit.context.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_SPLIT
        )


# ---------------------------------------------------------------------------
# Split-share memory fit
# ---------------------------------------------------------------------------
def _split_on_gpu0(ctx, src, dst, n=1 << 20, k=None):
    """Issue ``work(src, dst)`` (on kernel ``k`` if given) on a manual gpu0
    queue, its first half split onto gpu0 and the rest onto the cpu."""
    if k is None:
        k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    k.set_arg(0, src)
    k.set_arg(1, dst)
    k.set_arg(2, n)
    args, buffers, written = k.snapshot()
    q = ctx.create_queue("gpu0")
    launch = WorkGroupConfig.normalize((n,), (64,))
    plan = plan_split(k, launch, ["gpu0", "cpu"], {"gpu0": 1.0, "cpu": 1.0})
    assert [(s.device, s.lo, s.hi) for s in plan] == [
        ("gpu0", 0, n // 2), ("cpu", n // 2, n)
    ]
    return q._enqueue(Command(
        kind=CommandKind.NDRANGE_KERNEL,
        kernel=k,
        launch=launch,
        args_snapshot=args,
        arg_buffers=buffers,
        written_buffers=written,
        split_plan=plan,
    ))


def test_split_share_overflowing_its_device_raises(manual_context):
    ctx = manual_context
    mem = ctx.platform.node.device("gpu0").spec.mem_size_bytes
    # Each half-share slice is 0.75 of the device: 1.5x together.
    a = ctx.create_buffer(3 * mem // 2)
    b = ctx.create_buffer(3 * mem // 2)
    with pytest.raises(MemAllocationFailure, match="split share"):
        _split_on_gpu0(ctx, a, b)


def test_split_share_fit_skips_slices_already_resident(manual_context):
    ctx = manual_context
    mem = ctx.platform.node.device("gpu0").spec.mem_size_bytes
    a = ctx.create_buffer(4 * mem // 10)
    b = ctx.create_buffer(3 * mem // 10)
    pad = ctx.create_buffer(4 * mem // 10)
    a.mark_valid("gpu0")
    pad.mark_valid("gpu0")
    # 0.8 resident + b's 0.15 slice fits; counting a's 0.2 slice as
    # well would not.
    event = _split_on_gpu0(ctx, a, b)
    assert event.task is not None
    # Slices leave whole-buffer residency as it was.
    assert ctx.resident_bytes("gpu0") == a.nbytes + pad.nbytes


# ---------------------------------------------------------------------------
# Golden trace of a split stream
# ---------------------------------------------------------------------------
#: sha256 prefix of every interval (resource, task, category, start, end,
#: sorted meta) of :func:`_golden_split_stream`'s trace.
SPLIT_STREAM_DIGEST = "fe836757220e3b3c"


def _golden_split_stream(profile_dir):
    """Two double-buffered tenant queues with overlap, split and a
    scheduler trigger per kernel, configured explicitly (no ``MULTICL_*``
    variable reaches it); returns the engine trace."""
    from repro.core.flags import CONFIG_PROPERTY_KEY
    from repro.ocl.context import TENANT_PROPERTY_KEY
    from repro.ocl.enums import ContextProperty
    from repro.ocl.platform import Platform

    config = SchedulerConfig(
        per_kernel_trigger=True, split=True, overlap=True, sanitize=False,
    )
    platform = Platform(profile=True, profile_dir=profile_dir,
                        duplex_links=True)
    ctx = platform.create_context(properties={
        ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT,
        CONFIG_PROPERTY_KEY: config,
        TENANT_PROPERTY_KEY: "t0",
    })
    n = 1 << 16
    flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    streams = []
    for qi in range(2):
        # One kernel name per queue, as in the e2e stream-modes workload.
        source = STREAM_SRC.replace("stream(", f"stream{qi}(")
        k = ctx.create_program(source).build().create_kernel(f"stream{qi}")
        k.set_host_function(lambda a: np.multiply(a["in"], 2.0, out=a["out"]))
        ins = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32),
                                 name=f"in{qi}.{b}") for b in range(2)]
        outs = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32),
                                  name=f"out{qi}.{b}") for b in range(2)]
        q = ctx.create_queue(sched_flags=flags, name=f"q{qi}")
        streams.append((q, k, ins, outs))
    host = np.empty(n, np.float32)
    for r in range(6):
        for q, k, ins, outs in streams:
            q.enqueue_write_buffer(ins[r % 2], np.full(n, r, np.float32))
            k.set_arg(0, ins[r % 2])
            k.set_arg(1, outs[r % 2])
            k.set_arg(2, n)
            q.enqueue_nd_range_kernel(k, (n,), (64,))
            q.enqueue_read_buffer(outs[r % 2], host)
        if r % 3 == 2:
            for q, *_ in streams:
                q.finish()
    assert (host == 10.0).all()
    return platform.engine.trace


def test_split_stream_trace_pinned(tmp_path):
    """A split stream's trace is pinned interval by interval, and it holds
    one meta dict per distinct (task, meta): repeated split launches and
    transfers share theirs instead of a copy per interval."""
    trace = _golden_split_stream(str(tmp_path))
    records = [
        (iv.resource, iv.task, iv.category, iv.start, iv.end,
         sorted(iv.meta.items()))
        for iv in trace
    ]
    assert any(dict(r[5]).get("split") for r in records)
    assert all(dict(r[5]).get("tenant") == "t0" for r in records
               if r[2] in ("kernel", "transfer"))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == SPLIT_STREAM_DIGEST
    metas = {}
    for iv, record in zip(trace, records):
        metas.setdefault((record[1], repr(record[5])), set()).add(id(iv.meta))
    assert not [key for key, ids in metas.items() if len(ids) > 1]

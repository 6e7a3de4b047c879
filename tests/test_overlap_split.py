"""SCHED_OVERLAP / SCHED_SPLIT: overlap-aware issue, multi-device splitting,
flag hygiene, and the WorkGroupConfig edge cases the splitter relies on."""

import warnings

import numpy as np
import pytest

import repro.ocl.queue as queue_mod
from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.core.split import SplitPlan, plan_split
from repro.hardware.specs import DeviceKind, DeviceSpec, LinkSpec, NodeSpec
from repro.ocl.enums import CommandKind, ContextScheduler, SchedFlag
from repro.ocl.errors import (
    InvalidValue, InvalidWorkGroupSize, MemAllocationFailure,
)
from repro.ocl.kernel import WorkGroupConfig
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


def test_split_plan_memo_cleared_by_work_group_info(profile_dir, monkeypatch):
    """A repeat trigger reuses the plan; a new per-device local size
    re-plans, aligned to it."""
    _, k, launch, plans = _split_launcher(profile_dir, monkeypatch)
    first = launch()
    assert first is not None and launch() is first
    assert len(plans) == 1
    (cpu_share,) = [hi - lo for d, lo, hi in first.shares if d == "cpu"]
    assert cpu_share % 1024  # the old plan is not 1024-aligned on cpu
    k.set_work_group_info("cpu", (1 << 18,), (1024,))
    again = launch()
    assert len(plans) == 2
    assert again.share_of("cpu") % 1024 == 0
    assert again.share_of("cpu") != cpu_share


def test_split_cost_model_priced_on_every_sub_range_launch(
    profile_dir, monkeypatch
):
    """Sub-range configs are memoised, their prices are not: a custom cost
    model sees every share of every launch."""
    from repro.hardware.cost import KernelCost

    _, k, launch, _ = _split_launcher(profile_dir, monkeypatch)
    priced = []

    def cost_model(spec, config, args):
        priced.append((spec.name, config.global_size[0]))
        n = config.work_items
        return KernelCost(flops=400.0 * n, bytes=8.0 * n, work_items=n,
                          workgroup_size=config.workgroup_size)

    k.set_cost_model(cost_model)
    plans = [launch() for _ in range(3)]
    assert plans[0] is not None and plans[1] is plans[0] is plans[2]
    for device, lo, hi in plans[0].shares:
        assert priced.count((device, hi - lo)) == 3


def test_split_plan_drops_a_device_failed_between_triggers(
    profile_dir, monkeypatch
):
    from repro.sim.faults import FaultPlan

    mcl, _, launch, plans = _split_launcher(profile_dir, monkeypatch)
    before = launch()
    assert "gpu1" in before.devices
    mcl.inject_faults(FaultPlan().fail_device("gpu1", at=mcl.now))
    after = launch()
    assert len(plans) == 2
    assert after is not None and len(after.devices) >= 2
    assert "gpu1" not in after.devices


# ---------------------------------------------------------------------------
# Split planner
# ---------------------------------------------------------------------------
class _FakeKernel:
    name = "fake"

    def __init__(self, configs=None):
        self.device_configs = configs or {}

    def effective_config(self, device, launch):
        return self.device_configs.get(device, launch)


def test_plan_split_proportional_and_aligned():
    launch = WorkGroupConfig.normalize((1024,), (32,))
    plan = plan_split(
        _FakeKernel(), launch, ["fast", "slow"], {"fast": 1.0, "slow": 3.0}
    )
    assert isinstance(plan, SplitPlan)
    (d0, lo0, hi0), (d1, lo1, hi1) = plan.shares
    assert (d0, d1) == ("fast", "slow")
    assert lo0 == 0 and hi0 == lo1 and hi1 == 1024  # contiguous cover
    assert plan.share_of("slow") % 32 == 0  # workgroup aligned
    # fast device is 3x the rate: it takes ~3/4 of the range (plus remainder)
    assert plan.share_of("fast") > 2 * plan.share_of("slow")


def test_plan_split_odd_global_size_remainder_to_fastest():
    launch = WorkGroupConfig.normalize((1001,), (64,))
    plan = plan_split(
        _FakeKernel(), launch, ["fast", "slow"], {"fast": 1.0, "slow": 2.0}
    )
    assert plan is not None
    assert sum(hi - lo for _d, lo, hi in plan.shares) == 1001
    # the non-multiple remainder lands on the fastest device
    assert plan.share_of("slow") % 64 == 0
    assert plan.share_of("fast") % 64 != 0


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
    assert plan.shares[0][0] == "wide"
    # non-remainder share on "b" is 32-aligned; "wide"'s chunking was 256
    assert plan.share_of("b") % 32 == 0


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
def _split_on_gpu0(ctx, src, dst, n=1 << 20):
    """Issue ``work(src, dst)`` on a manual gpu0 queue, its first half
    split onto gpu0 and the rest onto the cpu."""
    k = ctx.create_program(WORK_SRC).build().create_kernel("work")
    k.set_arg(0, src)
    k.set_arg(1, dst)
    k.set_arg(2, n)
    args, buffers, written = k.snapshot()
    q = ctx.create_queue("gpu0")
    return q._enqueue(Command(
        kind=CommandKind.NDRANGE_KERNEL,
        kernel=k,
        launch=WorkGroupConfig.normalize((n,), (64,)),
        args_snapshot=args,
        arg_buffers=buffers,
        written_buffers=written,
        split_plan=SplitPlan((("gpu0", 0, n // 2), ("cpu", n // 2, n))),
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

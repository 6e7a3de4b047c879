"""Profiling data staging: brute-force vs cached (paper Section V.C.3)."""

import pytest

from repro.core.data_cache import stage_inputs
from repro.ocl.enums import SchedFlag
from repro.ocl.memory import HOST, Buffer


@pytest.fixture
def ctx(manual_context):
    return manual_context


def _staged_ops(engine):
    return engine.trace.filter(category="profile-transfer")


def test_uninitialized_buffers_move_nothing(ctx, engine):
    node = ctx.platform.node
    buf = ctx.create_buffer(1 << 20)
    plan = stage_inputs(node, [buf], ["cpu", "gpu0", "gpu1"], caching=True)
    assert plan.bytes_moved == 0
    assert plan.operations == 0


def test_cached_from_host_is_one_h2d_per_target(ctx):
    node = ctx.platform.node
    engine = ctx.platform.engine
    buf = ctx.create_buffer(1 << 20)
    buf.mark_valid(HOST)
    plan = stage_inputs(node, [buf], ["cpu", "gpu0", "gpu1"], caching=True)
    engine.run_until_idle()
    ops = _staged_ops(engine)
    assert len(ops) == 3  # one H2D per device, no D2H needed
    assert all(iv.meta["direction"] == "h2d" for iv in ops)
    assert plan.operations == 3
    # Caching keeps the staged copies resident.
    for dev in ("cpu", "gpu0", "gpu1"):
        assert buf.is_valid_on(dev)


def test_cached_from_device_is_single_d2h_plus_h2d(ctx):
    """The optimisation: 1 D2H + (n-1) H2D instead of (n-1)x(D2H+H2D)."""
    node = ctx.platform.node
    engine = ctx.platform.engine
    buf = ctx.create_buffer(1 << 20)
    buf.mark_exclusive("gpu0")
    plan = stage_inputs(node, [buf], ["cpu", "gpu0", "gpu1"], caching=True)
    engine.run_until_idle()
    ops = _staged_ops(engine)
    d2h = [iv for iv in ops if iv.meta["direction"] == "d2h"]
    h2d = [iv for iv in ops if iv.meta["direction"] == "h2d"]
    assert len(d2h) == 1  # single D2H from the source device
    assert len(h2d) == 2  # n-1 targets
    assert buf.is_valid_on(HOST)
    assert plan.bytes_moved == 3 * (1 << 20)


def test_brute_from_device_is_d2d_double_op_per_target(ctx):
    """The unoptimised path: every D2D is a D2H+H2D via the host."""
    node = ctx.platform.node
    engine = ctx.platform.engine
    buf = ctx.create_buffer(1 << 20)
    buf.mark_exclusive("gpu0")
    plan = stage_inputs(node, [buf], ["cpu", "gpu0", "gpu1"], caching=False)
    engine.run_until_idle()
    ops = _staged_ops(engine)
    d2h = [iv for iv in ops if iv.meta["direction"] == "d2h"]
    h2d = [iv for iv in ops if iv.meta["direction"] == "h2d"]
    assert len(d2h) == 2 and len(h2d) == 2  # (n-1) x (D2H + H2D)
    assert plan.operations == 4
    # Scratch copies: residency unchanged.
    assert buf.valid_on == {"gpu0"}


def test_brute_moves_more_bytes_than_cached(ctx):
    node = ctx.platform.node
    nbytes = 1 << 22
    b1 = ctx.create_buffer(nbytes)
    b1.mark_exclusive("gpu0")
    brute = stage_inputs(node, [b1], ["cpu", "gpu0", "gpu1"], caching=False)
    b2 = ctx.create_buffer(nbytes)
    b2.mark_exclusive("gpu0")
    cached = stage_inputs(node, [b2], ["cpu", "gpu0", "gpu1"], caching=True)
    assert brute.bytes_moved > cached.bytes_moved


def test_already_resident_targets_skipped(ctx):
    node = ctx.platform.node
    buf = ctx.create_buffer(1 << 20)
    buf.mark_valid(HOST)
    buf.mark_valid("gpu0")
    plan = stage_inputs(node, [buf], ["cpu", "gpu0", "gpu1"], caching=True)
    assert plan.operations == 2  # only cpu and gpu1 need copies
    assert not plan.deps_for("gpu0")


def test_duplicate_buffers_staged_once(ctx):
    node = ctx.platform.node
    buf = ctx.create_buffer(1 << 20)
    buf.mark_valid(HOST)
    plan = stage_inputs(node, [buf, buf, buf], ["gpu0"], caching=True)
    assert plan.operations == 1


def test_barriers_gate_per_device(ctx):
    node = ctx.platform.node
    engine = ctx.platform.engine
    buf = ctx.create_buffer(1 << 24)
    buf.mark_valid(HOST)
    plan = stage_inputs(node, [buf], ["gpu0", "gpu1"], caching=True)
    assert len(plan.deps_for("gpu0")) == 1
    assert len(plan.deps_for("gpu1")) == 1
    assert plan.deps_for("cpu") == []
    engine.run_until_idle()


def test_deps_respected(ctx):
    node = ctx.platform.node
    engine = ctx.platform.engine
    gate = engine.task("gate", 1.0)
    buf = ctx.create_buffer(1 << 20)
    buf.mark_valid(HOST)
    plan = stage_inputs(node, [buf], ["gpu0"], caching=True, deps=[gate])
    engine.run_until_idle()
    staged = plan.deps_for("gpu0")[0]
    assert staged.start_time >= 1.0


def test_profiling_staging_never_overcommits_a_device(autofit, monkeypatch):
    """Caching keeps a staged copy resident only where it fits: profiling a
    kernel over two host-valid 1.6 GB buffers must not leave 3.2 GB on a
    3 GB GPU, not even between staging and mapping."""
    ctx = autofit.context
    node = ctx.platform.node
    peak = dict.fromkeys(ctx.device_names, 0)
    count = Buffer._count

    def counting(self, holders, sign):
        count(self, holders, sign)
        for dev in peak:
            peak[dev] = max(peak[dev], ctx.resident_bytes(dev))

    monkeypatch.setattr(Buffer, "_count", counting)
    program = ctx.create_program(
        "// @multicl flops_per_item=1 bytes_per_item=8 writes=1\n"
        "__kernel void pair(__global float* a, __global float* b) { }\n"
    ).build()
    kernel = program.create_kernel("pair")
    q = autofit.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
    buffers = [ctx.create_buffer(1_600_000_000) for _ in range(2)]
    for i, buf in enumerate(buffers):
        buf.mark_valid(HOST)
        kernel.set_arg(i, buf)
    q.enqueue_nd_range_kernel(kernel, (1 << 20,))
    q.finish()
    assert ctx.scheduler.profiler.stats.bytes_staged > 0
    for dev, held in peak.items():
        assert held <= node.device(dev).spec.mem_size_bytes, dev

"""Trace pins over the kernel-launch chain.

Each case runs one small program and folds every trace interval —
resource, task name, category, start, end, meta (sorted, and its key
order) — into a sha256 prefix.  A change to the launch chain that alters
a task name, a meta key or a duration fails here, not only in the
full-scale benchmark pins.

Every case passes its scheduler config explicitly and clears the
``MULTICL_*`` environment, so the digests hold in every CI mode.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.core.flags import CONFIG_PROPERTY_KEY, SchedulerConfig
from repro.ocl.context import TENANT_PROPERTY_KEY
from repro.ocl.platform import Platform
from repro.workloads.base import ProblemClass
from repro.workloads.npb import BENCHMARKS
from repro.workloads.npb.common import run_npb

PLAIN = SchedulerConfig(overlap=False, split=False, sanitize=False)
SPLIT_OVERLAP = SchedulerConfig(overlap=True, split=True, sanitize=False)

#: case -> sha256 prefix of its folded trace
DIGESTS = {
    "ft-manual": "c6bc317df7a76069",
    "ft-auto": "c5deaeed253c3539",
    "ft-auto-split-overlap": "a1d74bfc398f6124",
    "immediate-tenant": "7ee70b349f58dcdd",
}


def _digest(trace) -> str:
    rows = [
        (iv.resource, iv.task, iv.category, iv.start, iv.end,
         tuple(sorted(iv.meta.items())), tuple(iv.meta))
        for iv in trace
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _ft_trace(mode, config, profile_dir):
    """FT at class S on two queues (it sets per-device work-group
    configurations in auto mode)."""
    app = BENCHMARKS["FT"](ProblemClass.S, 2, iterations_override=2)
    devices = ["gpu0", "cpu"] if mode == "manual" else None
    run_npb(app, mode=mode, devices=devices, config=config,
            profile_dir=profile_dir)
    return app.context.platform.engine.trace


def _immediate_trace():
    """Immediate launches on a tenant-tagged context: an in-order and an
    out-of-order queue on two devices, with barriers, finishes,
    cross-queue waits, a per-device configuration set mid-run and a
    device slowdown."""
    ctx = Platform(profile=False).create_context(properties={
        TENANT_PROPERTY_KEY: "tenant-a", CONFIG_PROPERTY_KEY: PLAIN,
    })
    src = (
        "// @multicl flops_per_item=60 bytes_per_item=8 writes=1\n"
        "__kernel void k(__global float* a, __global float* b, int n) { }"
    )
    n = 1 << 12
    prog = ctx.create_program(src).build()
    lanes = []
    for device, out_of_order in zip(ctx.device_names[1:], (False, True)):
        name = f"{device}-{'ooo' if out_of_order else 'fifo'}"
        kern = prog.create_kernel("k")
        kern.set_arg(0, ctx.create_buffer(
            4 * n, name=f"{name}-a", host_array=np.ones(n, np.float32)))
        kern.set_arg(1, ctx.create_buffer(4 * n, name=f"{name}-b"))
        kern.set_arg(2, n)
        queue = ctx.create_queue(device, name=name, out_of_order=out_of_order)
        lanes.append([queue, kern, None])
    for i in range(160):
        if i == 60:
            lanes[0][1].set_work_group_info(lanes[0][0].device, (n,), (128,))
        if i == 100:
            ctx.platform.node.device(lanes[1][0].device).slowdown = 1.5
        for lane, other in zip(lanes, lanes[::-1]):
            queue, kern, _ = lane
            waits = [other[2]] if i % 32 == 31 and other[2] is not None else []
            lane[2] = queue.enqueue_nd_range_kernel(
                kern, (n,), (64,), wait_events=waits
            )
            if i % 16 == 15:
                queue.enqueue_barrier()
            if i % 8 == 7:
                queue.finish()
    for queue, _, _ in lanes:
        queue.finish()
    return ctx.platform.engine.trace


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_launch_trace_pinned(case, tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("MULTICL_"):
            monkeypatch.delenv(name)
    if case == "immediate-tenant":
        trace = _immediate_trace()
    else:
        mode = "manual" if case == "ft-manual" else "auto"
        config = SPLIT_OVERLAP if case.endswith("split-overlap") else PLAIN
        trace = _ft_trace(mode, config, str(tmp_path))
    assert len(trace) > 0
    assert _digest(trace) == DIGESTS[case]

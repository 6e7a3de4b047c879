#!/usr/bin/env python
"""Tracked performance baseline for the library's hot paths.

Holds every library bench body once (:data:`BENCHES`, which
``bench_library_perf.py`` parametrises under pytest-benchmark) and
writes ``BENCH_library_perf.json`` at the repo root: per-bench median/min
wall time plus a *simulation-correctness checksum* (a deterministic value
computed from virtual-clock results, identical on every machine).  The
committed JSON serves two purposes:

* a perf reference — CI re-runs the benches (``--quick``) and fails when
  any bench regresses more than ``--factor`` (default 3x) against the
  committed medians, a deliberately loose bound that survives noisy shared
  runners while still catching accidental big-O regressions;
* a correctness pin — checksums must match exactly-ish (relative 1e-9), so
  a "speedup" that changes simulation results fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/run_perf_baseline.py            # write baseline
    PYTHONPATH=src python benchmarks/run_perf_baseline.py --quick \
        --check BENCH_library_perf.json                              # CI smoke
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.device_mapper import optimal_mapping  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.sim.resources import FifoResource  # noqa: E402
from repro.sim.trace import Trace  # noqa: E402
from repro.workloads.npb import numerics  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_library_perf.json"


# ---------------------------------------------------------------------------
# Bench cases: zero-arg callables returning a deterministic checksum.
# ---------------------------------------------------------------------------

def bench_engine_event_throughput() -> float:
    engine = SimEngine()
    resources = [FifoResource(f"r{i}") for i in range(4)]
    for i in range(10_000):
        engine.task(f"t{i}", 1e-6, resource=resources[i % 4])
    engine.run_until_idle()
    return engine.now


def bench_open_loop_injection() -> float:
    """Open-loop arrival injection through the engine alone: 4 epochs of
    8,192 time-sorted arrivals over four FIFO resources, each injected
    with ``schedule_batch`` and drained with ``run_until_time`` (the
    replay driver's loop without the replay layer).  Every time sits on a
    2**-12 s grid, so arrivals tie with completions and ``(time, seq)``
    decides the order; the checksum folds the completion order and the
    final clock."""
    engine = SimEngine()
    resources = [FifoResource(f"r{i}") for i in range(4)]
    task = engine.task
    tick = 2.0**-12
    durations = [tick * k for k in (1, 3, 4, 6, 2)]

    def arrive(i: int) -> None:
        task("req", durations[i % 5], resource=resources[i & 3])

    x, t, i = 12345, 0, 0
    for _ in range(4):
        batch = []
        for _ in range(8192):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            t += (x >> 16) % 3
            batch.append((t * tick, arrive, i))
            i += 1
        engine.schedule_batch(batch)
        engine.run_until_time(batch[-1][0])
    total = engine.run_until_idle()
    for k, iv in enumerate(engine.trace):
        total += (k % 13 + 1) * (iv.end + 3.0 * iv.start) + int(iv.resource[1])
    return total


def bench_mapper_solve_8x4() -> float:
    queues = [f"q{i}" for i in range(8)]
    devices = ["cpu", "gpu0", "gpu1", "gpu2"]
    cost = {
        q: {d: 1.0 + ((i * 7 + j * 3) % 5) * 0.37 for j, d in enumerate(devices)}
        for i, q in enumerate(queues)
    }
    result = optimal_mapping(queues, devices, cost)
    return result.makespan


def bench_mapper_solve_32x8() -> float:
    queues = [f"q{i}" for i in range(32)]
    devices = [f"d{j}" for j in range(8)]
    cost = {
        q: {d: 1.0 + ((i * 13 + j * 5) % 7) * 0.29 for j, d in enumerate(devices)}
        for i, q in enumerate(queues)
    }
    result = optimal_mapping(queues, devices, cost)
    return result.makespan


def bench_trace_query() -> float:
    resources = [f"dev:{i}" for i in range(8)]
    categories = ("kernel", "transfer", "migration")
    trace = Trace()
    t = 0.0
    for i in range(24_000):
        trace.record(resources[i % 8], f"t{i}", categories[i % 3], t, t + 1e-6)
        t += 5e-7
    total = 0.0
    for c in categories:
        total += trace.total_time(category=c)
        total += len(trace.filter(category=c)) + trace.count(category=c)
    for r in resources:
        total += trace.total_time(resource=r)
    total += sum(trace.by_resource(category="kernel").values())
    total += sum(trace.counts_by_resource().values())
    return total


_EPOCH_PROFILE_DIR = None


def bench_full_scheduled_epoch() -> float:
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    global _EPOCH_PROFILE_DIR
    if _EPOCH_PROFILE_DIR is None:
        # One shared on-disk profile cache across repeats, as in real use:
        # the first run pays static profiling, the rest are pure epoch cost.
        _EPOCH_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-profile-")
    src = (
        "// @multicl flops_per_item=100 bytes_per_item=16 writes=1\n"
        "__kernel void k(__global float* a, __global float* b, int n) { }"
    )
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=_EPOCH_PROFILE_DIR)
    prog = mcl.context.create_program(src).build()
    n = 1 << 16
    queues = []
    for _ in range(4):
        kern = prog.create_kernel("k")
        a = mcl.context.create_buffer(4 * n)
        b = mcl.context.create_buffer(4 * n)
        kern.set_arg(0, a)
        kern.set_arg(1, b)
        kern.set_arg(2, n)
        q = mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH)
        for _ in range(8):
            q.enqueue_nd_range_kernel(kern, (n,), (64,))
        queues.append(q)
    for q in queues:
        q.finish()
    return mcl.now


_WIDE_PROFILE_DIR = None


def bench_issue_pool_wide() -> float:
    """Wide-pool issue throughput: 24 auto queues x 12 kernels with
    cross-queue wait events — the FIFO ready heap of the pool issuer
    (:mod:`repro.ocl.issue`, behind ``Context.issue_pool``)."""
    global _WIDE_PROFILE_DIR
    if _WIDE_PROFILE_DIR is None:
        _WIDE_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-wide-")
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    src = (
        "// @multicl flops_per_item=50 bytes_per_item=8 writes=1\n"
        "__kernel void k(__global float* a, int n) { }"
    )
    n = 1 << 12
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=_WIDE_PROFILE_DIR)
    prog = mcl.context.create_program(src).build()
    queues, events = [], []
    for i in range(24):
        kern = prog.create_kernel("k")
        buf = mcl.context.create_buffer(4 * n)
        kern.set_arg(0, buf)
        kern.set_arg(1, n)
        q = mcl.queue(flags=SchedFlag.SCHED_AUTO_DYNAMIC)
        for j in range(12):
            waits = [events[-1]] if events and (i + j) % 3 == 0 else []
            events.append(
                q.enqueue_nd_range_kernel(kern, (n,), (64,), wait_events=waits)
            )
        queues.append(q)
    for q in queues:
        q.finish()
    return mcl.now


_OVERLAP_PROFILE_DIR = None


def bench_overlap_issue() -> float:
    """Overlap-aware issue of a double-buffered streaming pool: 8 rounds of
    upload + kernel + read-back on one in-order queue under
    ``SCHED_OVERLAP``: the pool issuer's relaxed branch (graph build,
    conflict restoration and its safety check, kind-ranked ready heap) and
    duplex-link scheduling.  The checksum is the virtual makespan, so a
    change to the relaxed issue order fails the gate."""
    global _OVERLAP_PROFILE_DIR
    if _OVERLAP_PROFILE_DIR is None:
        _OVERLAP_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-overlap-")
    import numpy as np

    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    src = (
        "// @multicl flops_per_item=200 bytes_per_item=8 writes=1\n"
        "__kernel void s(__global float* a, __global float* b, int n) { }"
    )
    n = 1 << 18
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=_OVERLAP_PROFILE_DIR,
        overlap=True,
    )
    ctx = mcl.context
    kern = ctx.create_program(src).build().create_kernel("s")
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    )
    chunks = [
        ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
        for _ in range(2)
    ]
    outs = [
        ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
        for _ in range(2)
    ]
    data = np.ones(n, np.float32)
    res = np.empty(n, np.float32)
    for i in range(8):
        a, b = chunks[i % 2], outs[i % 2]
        q.enqueue_write_buffer(a, data)
        kern.set_arg(0, a)
        kern.set_arg(1, b)
        kern.set_arg(2, n)
        q.enqueue_nd_range_kernel(kern, (n,), (64,))
        q.enqueue_read_buffer(b, res)
    q.finish()
    return mcl.now


_SPLIT_PROFILE_DIR = None


def bench_split_epoch() -> float:
    """SCHED_SPLIT epoch cost: plan + issue of 4 kernel epochs partitioned
    across all three stock devices (slice transfers, sub-kernels, gathers,
    merging joins).  The checksum is the virtual makespan, so a change to
    share computation or sub-task emission fails the gate."""
    global _SPLIT_PROFILE_DIR
    if _SPLIT_PROFILE_DIR is None:
        _SPLIT_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-split-")
    import numpy as np

    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler, SchedFlag

    src = (
        "// @multicl flops_per_item=400 bytes_per_item=8 writes=1\n"
        "__kernel void w(__global float* a, __global float* b, int n) { }"
    )
    n = 1 << 18
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=_SPLIT_PROFILE_DIR,
        split=True,
    )
    ctx = mcl.context
    kern = ctx.create_program(src).build().create_kernel("w")
    q = ctx.create_queue(
        sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
    )
    a = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    b = ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32))
    q.enqueue_write_buffer(a, np.ones(n, np.float32))
    kern.set_arg(0, a)
    kern.set_arg(1, b)
    kern.set_arg(2, n)
    for _ in range(4):
        q.enqueue_nd_range_kernel(kern, (n,), (64,))
    q.finish()
    return mcl.now


def bench_immediate_launch() -> float:
    """Immediate kernel issue on ``SCHED_OFF`` queues, the launch fast path
    of ``CommandQueue.enqueue_nd_range_kernel``: an in-order and an
    out-of-order queue on two devices, 1,500 launches each, a barrier
    every 16 launches, a ``finish`` every 8, and every 32nd launch waiting
    on the other queue's last event (the general path).  The checksum
    folds every trace interval, so a change to task order, timing or
    naming fails the gate."""
    from repro.ocl.platform import Platform

    src = (
        "// @multicl flops_per_item=60 bytes_per_item=8 writes=1\n"
        "__kernel void k(__global float* a, __global float* b, int n) { }"
    )
    n = 1 << 12
    ctx = Platform(profile=False).create_context()
    prog = ctx.create_program(src).build()
    lanes = []
    for device, out_of_order in zip(ctx.device_names[1:], (False, True)):
        name = f"{device}-{'ooo' if out_of_order else 'fifo'}"
        kern = prog.create_kernel("k")
        kern.set_arg(0, ctx.create_buffer(4 * n, name=f"{name}-a"))
        kern.set_arg(1, ctx.create_buffer(4 * n, name=f"{name}-b"))
        kern.set_arg(2, n)
        queue = ctx.create_queue(device, name=name, out_of_order=out_of_order)
        lanes.append([queue, kern, None])
    for i in range(1500):
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
    total = 0.0
    for i, iv in enumerate(ctx.platform.engine.trace):
        total += (i % 13 + 1) * iv.end + iv.start
        total += len(iv.resource) + len(iv.task) + len(iv.category)
    return total


def bench_vectorised_lcg() -> float:
    uniforms, seed = numerics.vranlc_fast(1 << 18, 271828183.0)
    return float(uniforms[:64].sum()) + seed / 2.0**46


def bench_numerics_setup() -> float:
    """Workload-setup numerics: CSR assembly, LCG stream, FT evolution.

    These run inside every NPB functional setup, so they are the per-worker
    hot path of a parallel experiment fleet.
    """
    import numpy as np

    data, idx, ptr, size = numerics.make_poisson_csr(64)
    uniforms, seed = numerics.vranlc(1 << 16, 271828183.0)
    shape = (32, 32, 32)
    u0 = uniforms[: 32 * 32 * 32].reshape(shape)
    _, csum = numerics.ft_evolve(
        np.fft.fftn(u0), numerics.ft_indexmap(shape), 1e-4, 2
    )
    return (
        float(data.sum())
        + float(idx[:128].sum())
        + float(ptr[-1]) / size
        + float(uniforms.sum())
        + seed / 2.0**46
        + csum.real * 1e3
    )


_SWEEP_PROFILE_DIR = None


def bench_parallel_sweep() -> float:
    """Process-pool fleet over two sweep experiments (12 + 6 units, 2 jobs).

    The checksum folds every numeric table cell of the merged results, so
    any scheduling/merging divergence from the serial reference changes it.
    """
    global _SWEEP_PROFILE_DIR
    if _SWEEP_PROFILE_DIR is None:
        # Shared warm profile cache across repeats, as in real fleet use.
        _SWEEP_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-sweep-")
    from repro.bench.parallel import run_parallel

    results = run_parallel(
        ["fig3", "fig9"], fast=True, jobs=2, profile_dir=_SWEEP_PROFILE_DIR
    )
    total = 0.0
    for res in results.values():
        for row in res.rows:
            for value in row.values():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total += float(value)
    return total


_TENANT_PROFILE_DIR = None


def bench_tenant_service() -> float:
    """Multi-tenant arbitration throughput: 6 tenants × 2 queues, 40 rounds.

    Exercises the service hot path — pool cost estimation, weighted DRR
    rounds, telemetry folding — under sustained backlog.  The checksum
    folds final virtual time with every tenant's device-seconds, so any
    arbitration-order or accounting change shows up.
    """
    global _TENANT_PROFILE_DIR
    if _TENANT_PROFILE_DIR is None:
        _TENANT_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-tenant-")
    from repro.ocl.enums import ContextScheduler, SchedFlag
    from repro.service import SchedulingService

    src = (
        "// @multicl flops_per_item=150 bytes_per_item=8 writes=0\n"
        "__kernel void k(__global float* a, int n) { }"
    )
    n = 1 << 14
    svc = SchedulingService(profile_dir=_TENANT_PROFILE_DIR)
    clients = []
    for i in range(6):
        s = svc.create_session(
            f"tenant{i}", weight=float(1 + i % 3),
            policy=ContextScheduler.ROUND_ROBIN,
        )
        prog = s.create_program(src).build()
        pairs = []
        for j in range(2):
            kern = prog.create_kernel("k")
            buf = s.create_buffer(4 * n)
            kern.set_arg(0, buf)
            kern.set_arg(1, n)
            q = s.create_queue(sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC)
            pairs.append((kern, q))
        clients.append((s, pairs))
    for _ in range(40):
        for s, pairs in clients:
            if not s.pending_queues():
                for kern, q in pairs:
                    q.enqueue_nd_range_kernel(kern, (n,), (64,))
        svc.trigger()
        svc.run_until_idle()
    svc.drain()
    total = svc.now
    for i in range(6):
        total += svc.telemetry.device_seconds(f"tenant{i}")
    return total


_REPLAY_PROFILE_DIR = None


def bench_replay_throughput() -> float:
    """Open-loop replay rate: 20k Poisson arrivals through the batched
    event loop with a streaming (discard) trace sink.

    The wall time is the engine-scalability figure — commands replayed per
    second of host time — and the checksum is the replay's deterministic
    fold (completions + horizon + latency sum + device seconds), so any
    change to arrival generation, dispatch, or trace accounting fails the
    perf gate loudly.
    """
    global _REPLAY_PROFILE_DIR
    if _REPLAY_PROFILE_DIR is None:
        _REPLAY_PROFILE_DIR = tempfile.mkdtemp(prefix="perf-baseline-replay-")
    from repro.replay import ReplayConfig, run_tenant
    from repro.replay.shard import ensure_profile_cache

    config = ReplayConfig(
        commands=20_000,
        tenants=1,
        rate=300.0,
        seed=17,
        spill_every=4096,
        profile_dir=ensure_profile_cache(_REPLAY_PROFILE_DIR),
    )
    return run_tenant(config, 0).checksum


_PREDICT_DIR = None


def _predict_model():
    """Fit-once/load-many predictor model shared across repeats."""
    global _PREDICT_DIR
    from repro.hardware.presets import aji_cluster15_node
    from repro.predict import load_or_fit

    if _PREDICT_DIR is None:
        _PREDICT_DIR = tempfile.mkdtemp(prefix="perf-baseline-predict-")
    model, _ = load_or_fit(aji_cluster15_node(), _PREDICT_DIR)
    return model


def bench_predict_fit() -> float:
    """Offline ridge fit over the full probe corpus: 1,152 probes on three
    devices of a throwaway engine, features extracted once per probe shape
    (36 shapes) and each ridge head's normal equations folded as one
    in-order numpy batch, then solved in plain Python.

    The checksum folds one prediction per device from the freshly fitted
    model, so any change to the corpus, the feature basis, or the solver
    changes it.
    """
    from repro.hardware.presets import aji_cluster15_node
    from repro.predict import PredictorModel
    from repro.predict.features import extract_program

    model = PredictorModel.fit(aji_cluster15_node())
    src = (
        "// @multicl flops_per_item=220 bytes_per_item=8 divergence=0.1 "
        "irregularity=0.2 cpu_eff=0.9 gpu_eff=0.6 writes=1\n"
        "__kernel void scale(__global float* a, int n) { }\n"
    )
    feat = extract_program(src)["scale"]
    total = 0.0
    for _, seconds in sorted(model.predict(feat, 1 << 16).items()):
        total += seconds * 1e6
    return total


def bench_predict_infer() -> float:
    """Inference hot path: feature extraction + confidence + prediction for
    a batch of kernels against a warm fitted model (the per-epoch cost the
    scheduler pays when prediction replaces profiling)."""
    from repro.predict import Predictor
    from repro.predict.features import extract_program

    model = _predict_model()
    kinds = {"cpu": "cpu", "gpu0": "gpu", "gpu1": "gpu"}
    predictor = Predictor(model, kinds=kinds, overheads={})
    total = 0.0
    for i in range(64):
        flops = 10.0 + 13.0 * (i % 17)
        nbytes = 4.0 + 8.0 * (i % 5)
        src = (
            f"// @multicl flops_per_item={flops!r} bytes_per_item={nbytes!r} "
            f"divergence=0.1 irregularity=0.1 writes=1\n"
            f"__kernel void k{i}(__global float* a, int n) {{ }}\n"
        )
        feat = extract_program(src)[f"k{i}"]
        n = 1 << (10 + i % 8)
        for device in sorted(kinds):
            total += predictor.confidence(feat, device, n)
            total += predictor.predict_seconds(feat, device, n) * 1e6
    return total


_REPAIR_INSTANCE = None


def _repair_instance():
    """Healthy solve of the pinned 64x8 instance of
    ``bench_mapper_repair.py``, shared across repeats (the failure's
    *prior*)."""
    global _REPAIR_INSTANCE
    if _REPAIR_INSTANCE is None:
        from bench_mapper_repair import pinned_instance

        queues, devices, cost = pinned_instance()
        prev = optimal_mapping(queues, devices, cost)
        _REPAIR_INSTANCE = (queues, devices, cost, prev)
    return _REPAIR_INSTANCE


def bench_mapper_repair() -> float:
    """Incremental repair of a 64-queue / 8-device mapping after one device
    failure — the fault-recovery hot path (:mod:`repro.core.constraints`).

    Times only the repair against a precomputed healthy solve; the checksum
    folds the repaired makespan with the migration count so any change to
    the placement search or its acceptance gate shows up.
    """
    from bench_mapper_repair import DEAD
    from repro.core.constraints import repair_mapping

    queues, devices, cost, prev = _repair_instance()
    degraded = [d for d in devices if d != DEAD]
    cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}
    result = repair_mapping(prev, queues, degraded, cost2)
    if not result.repaired:
        raise RuntimeError("mapper_repair bench instance fell back to full solve")
    return result.makespan + float(len(result.migrated_queues))


BENCHES = {
    "engine_event_throughput": bench_engine_event_throughput,
    "open_loop_injection": bench_open_loop_injection,
    "mapper_solve_8x4": bench_mapper_solve_8x4,
    "mapper_solve_32x8": bench_mapper_solve_32x8,
    "mapper_repair": bench_mapper_repair,
    "trace_query": bench_trace_query,
    "full_scheduled_epoch": bench_full_scheduled_epoch,
    "issue_pool_wide": bench_issue_pool_wide,
    "overlap_issue": bench_overlap_issue,
    "split_epoch": bench_split_epoch,
    "immediate_launch": bench_immediate_launch,
    "vectorised_lcg": bench_vectorised_lcg,
    "numerics_setup": bench_numerics_setup,
    "parallel_sweep": bench_parallel_sweep,
    "tenant_service": bench_tenant_service,
    "replay_throughput": bench_replay_throughput,
    "predict_fit": bench_predict_fit,
    "predict_infer": bench_predict_infer,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def measure(fn, repeats: int, warmup: int):
    for _ in range(warmup):
        checksum = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        checksum = fn()
        times.append(time.perf_counter() - t0)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "repeats": repeats,
        "checksum": checksum,
    }


def run_all(repeats: int, warmup: int) -> dict:
    benches = {}
    for name, fn in BENCHES.items():
        benches[name] = measure(fn, repeats, warmup)
        print(
            f"{name:28s} median {benches[name]['median_s'] * 1e3:9.3f} ms  "
            f"min {benches[name]['min_s'] * 1e3:9.3f} ms",
            flush=True,
        )
    return {
        "schema": 1,
        "note": (
            "Library hot-path perf baseline; regenerate with "
            "`PYTHONPATH=src python benchmarks/run_perf_baseline.py`. "
            "Checksums are deterministic simulation results; times are "
            "machine-dependent medians."
        ),
        "python": platform.python_version(),
        "benches": benches,
    }


def check_against(results: dict, baseline_path: Path, factor: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, ref in baseline.get("benches", {}).items():
        got = results["benches"].get(name)
        if got is None:
            failures.append(f"{name}: missing from this run")
            continue
        if not math.isclose(got["checksum"], ref["checksum"], rel_tol=1e-9):
            failures.append(
                f"{name}: checksum {got['checksum']!r} != baseline "
                f"{ref['checksum']!r} (simulation behaviour changed)"
            )
        if got["median_s"] > factor * ref["median_s"]:
            failures.append(
                f"{name}: median {got['median_s'] * 1e3:.2f} ms exceeds "
                f"{factor}x baseline {ref['median_s'] * 1e3:.2f} ms"
            )
    if failures:
        print("PERF CHECK FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"perf check OK against {baseline_path} (factor {factor}x)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer repeats (CI smoke; noisier medians)")
    ap.add_argument("--output", type=Path, default=None,
                    help=f"write results JSON here (default {DEFAULT_OUTPUT})")
    ap.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                    help="compare against a committed baseline instead of "
                         "overwriting it; exit 1 on regression")
    ap.add_argument("--factor", type=float, default=3.0,
                    help="allowed slowdown factor for --check (default 3.0)")
    args = ap.parse_args(argv)

    repeats, warmup = (5, 1) if args.quick else (15, 3)
    results = run_all(repeats, warmup)

    if args.check is not None:
        out = args.output
        if out is not None:
            out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        return check_against(results, args.check, args.factor)

    out = args.output if args.output is not None else DEFAULT_OUTPUT
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

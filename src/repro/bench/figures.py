"""One experiment per table/figure of the paper's evaluation (Section VI).

Every experiment is one row of the :data:`EXPERIMENTS` table: a title, its
columns, its independent *units* (one configuration of a sweep — a
benchmark, a queue count, a noise level, a policy) and a ``run(key, fast)``
function returning that unit's rows.  One generic merge concatenates the
rows in unit order and appends the experiment's notes, so the serial path
(:func:`run_experiment`) and the process-pool fleet
(:mod:`repro.bench.parallel`) build identical tables.  ``fast`` selects a
reduced problem scale (for tests and CI); ``--full`` runs the paper-scale
configurations: the Fig. 4 problem classes (BT.B, CG.C, EP.D, FT.A, MG.B,
SP.C), four command queues, full NPB iteration counts.

Absolute times are simulated seconds on the modelled testbed and are *not*
expected to match the paper's wall-clock numbers; the shape claims are
(and are asserted by the test suite):

* Fig. 3 — CPU wins every benchmark except EP, by the paper's ratios;
* Fig. 4 — AUTO_FIT tracks the best manual schedule (geomean overhead
  ≈10%, FT the worst case);
* Fig. 5 — kernel→device distributions mirror the Fig. 3 affinities;
* Fig. 6 — FT profiling (data-transfer) overhead falls with queue count;
* Fig. 7 — data caching cuts FT profiling transfer time ≈50%;
* Fig. 8 — EP full-kernel profiling ≈20× vs minikernel ≈ constant few %;
* Fig. 9 — column-major best on (CPU,CPU), row-major on (GPU0,GPU1),
  AUTO_FIT optimal for both, round-robin splits across GPUs regardless;
* Fig. 10 — first-iteration profiling cost amortises.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.bench.harness import ExperimentResult
from repro.cluster import two_node_cluster
from repro.core.baselines import KERNEL_GRANULARITY_POLICY
from repro.core.flags import SchedulerConfig
from repro.core.profile_store import shared_dir
from repro.core.runtime import MultiCL
from repro.ocl import api
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.workloads.base import ProblemClass, WorkloadRun
from repro.workloads.npb import BENCHMARKS, get_benchmark
from repro.workloads.npb.common import run_npb
from repro.workloads.seismology import DEVICE_COMBOS, run_seismology
from repro.workloads.seismology.app import FDMSeismologyApp

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "experiment_units",
    "run_experiment_unit",
    "merge_experiment_units",
    "experiment_prewarm_specs",
    "shared_runs",
]

#: One printed table row.
Row = Dict[str, Any]

#: Problem classes used in Fig. 4 (the largest fitting each device).
FIG4_CLASSES = {"BT": "B", "CG": "C", "EP": "D", "FT": "A", "MG": "B", "SP": "C"}
#: Reduced classes for fast mode.
FAST_CLASSES = {"BT": "W", "CG": "A", "EP": "W", "FT": "S", "MG": "W", "SP": "W"}
#: Paper Fig. 3 single-device GPU/CPU time ratios (approximate bar reads).
FIG3_PAPER_RATIOS = {"BT": 3.5, "CG": 1.9, "EP": 0.35, "FT": 1.4, "MG": 3.0, "SP": 2.4}

#: The five showcased manual schedules of Fig. 4 (4 queues, CPU + 2 GPUs).
FIG4_SCHEDULES: Dict[str, Tuple[str, str, str, str]] = {
    "Explicit CPU only": ("cpu", "cpu", "cpu", "cpu"),
    "Explicit GPU only": ("gpu0", "gpu0", "gpu0", "gpu0"),
    "Round Robin (GPUs only)": ("gpu0", "gpu1", "gpu0", "gpu1"),
    "Round Robin #1": ("gpu0", "gpu0", "gpu1", "cpu"),
    "Round Robin #2": ("cpu", "cpu", "gpu0", "gpu1"),
}

#: Fast-mode iteration overrides.  EP is non-iterative and FT's natural
#: count is already 6, so both keep their paper iteration counts even in
#: fast mode; the long-running iterative benchmarks are shortened but kept
#: long enough for first-epoch profiling to amortise realistically.
_FAST_ITERATIONS: Dict[str, Optional[int]] = {
    "BT": 40,
    "CG": 30,
    "EP": None,
    "FT": None,
    "MG": 10,
    "SP": 40,
}

#: Queue flags of the hand-built pools (fig10, baselines, cluster).
_POOL_FLAGS = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def _npb_units(fast: bool) -> List[Tuple[str, str]]:
    """(benchmark, class) pairs: the units of every per-NPB-app sweep.

    Fig. 3 uses the single-device version; we evaluate at the Fig. 4
    classes so the two figures are directly comparable.
    """
    return list((FAST_CLASSES if fast else FIG4_CLASSES).items())


def _make_app(name: str, pc: str, queues: int, fast: bool):
    cls = get_benchmark(name)
    override = _FAST_ITERATIONS.get(name) if fast else None
    return cls(ProblemClass(pc), queues, iterations_override=override)


#: NPB runs already simulated in the open :func:`shared_runs` scope, by
#: every input that shapes a run; ``None`` outside a scope.
_RUNS: Optional[Dict[tuple, WorkloadRun]] = None


@contextmanager
def shared_runs() -> Iterator[None]:
    """Share identical NPB runs among the units run inside this block.

    :func:`run_experiment` and :func:`repro.bench.parallel.run_parallel`
    open it around their unit loops: Fig. 5 and the profiled half of
    ``predicted_vs_profiled`` are Fig. 4's AUTO_FIT runs, and Figs. 6-8
    repeat some of each other's.  Simulation is deterministic, so a repeat
    would produce an equal result.  The memo dies with the block (forked
    workers inherit it empty), so every call still simulates what it
    reports.
    """
    global _RUNS
    outer, _RUNS = _RUNS, {}
    try:
        yield
    finally:
        _RUNS = outer


def _npb(
    name: str,
    pc: str,
    queues: int,
    fast: bool,
    mode: str = "auto",
    devices: Optional[Sequence[str]] = None,
    config: Optional[SchedulerConfig] = None,
    auto_flags: Optional[SchedFlag] = None,
) -> WorkloadRun:
    """Run one NPB app on a fresh platform sharing the harness cache, or
    return the identical run already made inside :func:`shared_runs`."""
    profile_dir = shared_dir()
    key = (
        name, pc, queues, fast, mode,
        None if devices is None else tuple(devices), auto_flags, profile_dir,
        # As the context resolves it, so MULTICL_* overrides are part of it.
        (config or SchedulerConfig.from_env()).resolved(),
    )
    run = None if _RUNS is None else _RUNS.get(key)
    if run is None:
        app = _make_app(name, pc, queues, fast)
        run = run_npb(
            app, mode=mode, devices=devices,
            config=config, profile_dir=profile_dir, auto_flags=auto_flags,
        )
        app.context.platform.engine.trace.clear()  # the run is summarized
        if _RUNS is not None:
            _RUNS[key] = run
    return run


def _ft_class(fast: bool) -> str:
    return "S" if fast else "A"


def _run_pool(
    mcl: MultiCL,
    src: str,
    kernels: Sequence[str],
    nbytes: int,
    n: int,
    local: int,
    launches: Sequence[Sequence[int]],
):
    """Run a synthetic pool: queue ``i`` gets its own a/b buffers, every
    kernel of ``kernels`` bound to (a, b, n), and enqueues ``launches[i]``
    (indices into ``kernels``).  Returns the queues and the seconds taken
    to finish them all."""
    ctx = mcl.context
    program = ctx.create_program(src).build()
    queues = []
    for i, order in enumerate(launches):
        ks = [program.create_kernel(k) for k in kernels]
        a = ctx.create_buffer(nbytes)
        b = ctx.create_buffer(nbytes)
        a.mark_valid("host")
        for k in ks:
            k.set_arg(0, a)
            k.set_arg(1, b)
            k.set_arg(2, n)
        q = mcl.queue(flags=_POOL_FLAGS, name=f"q{i}")
        for j in order:
            q.enqueue_nd_range_kernel(ks[j], (n,), (local,))
        queues.append(q)
    t0 = mcl.now
    for q in queues:
        q.finish()
    return queues, mcl.now - t0


# ---------------------------------------------------------------------------
# Unit runners: ``(key, fast) -> rows``
# ---------------------------------------------------------------------------
def _fig3(key: Any, fast: bool) -> List[Row]:
    name, pc = key
    times = {
        dev: _npb(name, pc, 1, fast, mode="manual", devices=[dev]).seconds
        for dev in ("cpu", "gpu0")
    }
    return [{
        "benchmark": name,
        "class": pc,
        "cpu_s": times["cpu"],
        "gpu_s": times["gpu0"],
        "gpu_over_cpu": times["gpu0"] / times["cpu"],
        "paper_ratio": FIG3_PAPER_RATIOS[name],
    }]


def _table1(key: Any, fast: bool) -> List[Row]:
    """The paper's Table I, generated by introspecting the runtime —
    proving every proposed extension actually exists in the API."""
    sched_flags = [
        f.name for f in SchedFlag if f.name and f is not SchedFlag.SCHED_OFF
    ]
    rows = [
        {
            "cl_function": "clCreateContext",
            "extension": ContextProperty.CL_CONTEXT_SCHEDULER.name,
            "options": ", ".join(m.name for m in ContextScheduler),
        },
        {
            "cl_function": "clCreateCommandQueue",
            "extension": "SCHED_* bitfield",
            "options": "SCHED_OFF, " + ", ".join(sched_flags),
        },
    ]
    for fn in ("clSetCommandQueueSchedProperty", "clSetKernelWorkGroupInfo"):
        assert callable(getattr(api, fn))
        rows.append(
            {"cl_function": fn, "extension": "new CL API", "options": "implemented"}
        )
    return rows


def _table2(key: Any, fast: bool) -> List[Row]:
    rows = []
    for name in sorted(BENCHMARKS):
        cls = BENCHMARKS[name]
        flags = SchedFlag.SCHED_AUTO_DYNAMIC | cls.TABLE2_FLAGS
        opts = [
            f.name
            for f in SchedFlag
            if f != SchedFlag.SCHED_OFF and flags & f
        ]
        if cls.USES_WORKGROUP_INFO:
            opts.append("clSetKernelWorkGroupInfo")
        rows.append({
            "benchmark": name,
            "classes": ",".join(c.value for c in cls.VALID_CLASSES),
            "queues": f"{cls.QUEUE_RULE.description}: "
            f"{','.join(map(str, cls.QUEUE_RULE.allowed))}",
            "scheduler_options": " | ".join(opts),
        })
    return rows


def _fig4(key: Any, fast: bool) -> List[Row]:
    name, pc = key
    manual = {
        label: _npb(name, pc, 4, fast, mode="manual", devices=list(devs)).seconds
        for label, devs in FIG4_SCHEDULES.items()
    }
    auto = _npb(name, pc, 4, fast)
    # The paper's overhead metric compares against the *ideal* mapping.
    # AUTO_FIT may legitimately beat every showcased schedule (its
    # search space is all 3^4 assignments), so the ideal is the better
    # of (best showcased schedule, AUTO_FIT's own mapping run manually).
    auto_devices = [auto.bindings[f"q{i}"] for i in range(4)]
    replay = _npb(name, pc, 4, fast, mode="manual", devices=auto_devices)
    ideal = min(min(manual.values()), replay.seconds)
    bench_label = f"{name}.{pc}"
    rows = [
        {"benchmark": bench_label, "schedule": label, "seconds": secs,
         "overhead_pct": ""}
        for label, secs in manual.items()
    ]
    rows.append(
        {"benchmark": bench_label, "schedule": "Auto Fit",
         "seconds": auto.seconds,
         "overhead_pct": 100.0 * (auto.seconds - ideal) / ideal}
    )
    return rows


def _fig4_notes(rows: List[Row]) -> List[str]:
    factors = [
        max(r["overhead_pct"], 0.0) / 100.0 + 1.0
        for r in rows
        if r["schedule"] == "Auto Fit"
    ]
    geomean = math.prod(factors) ** (1.0 / len(factors)) - 1.0
    return [
        f"geometric-mean AUTO_FIT overhead vs best manual schedule: "
        f"{100 * geomean:.1f}% (paper: 10.1%, FT the worst at ~45%)"
    ]


def _fig5(key: Any, fast: bool) -> List[Row]:
    name, pc = key
    dist = _npb(name, pc, 4, fast).stats.kernel_distribution()
    return [{
        "benchmark": f"{name}.{pc}",
        "cpu_pct": 100.0 * dist.get("cpu", 0.0),
        "gpu0_pct": 100.0 * dist.get("gpu0", 0.0),
        "gpu1_pct": 100.0 * dist.get("gpu1", 0.0),
    }]


def _fig6(q_count: int, fast: bool) -> List[Row]:
    pc = _ft_class(fast)
    auto = _npb("FT", pc, q_count, fast)
    # Ideal = the same mapping executed manually (no profiling).
    devices = [auto.bindings[f"q{i}"] for i in range(q_count)]
    ideal = _npb("FT", pc, q_count, fast, mode="manual", devices=devices)
    app = _make_app("FT", pc, q_count, fast)
    return [{
        "queues": q_count,
        "data_per_queue_mb": (2 * app.slab_bytes + app.points_per_queue * 8) / 1e6,
        "ideal_s": ideal.seconds,
        "auto_s": auto.seconds,
        "overhead_pct": 100.0 * (auto.seconds - ideal.seconds) / ideal.seconds,
        "profile_transfer_s": auto.stats.profile_transfer_seconds,
    }]


def _fig7(q_count: int, fast: bool) -> List[Row]:
    # The profiling data-transfer time itself (the quantity the paper's
    # Fig. 7 normalises).  Post-mapping migrations are excluded:
    # equally-optimal mappings can differ between the two configs and
    # would add unrelated noise.
    without, with_ = (
        _npb(
            "FT", _ft_class(fast), q_count, fast,
            config=SchedulerConfig(data_caching=caching),
        ).stats.profile_transfer_seconds
        for caching in (False, True)
    )
    return [{
        "queues": q_count,
        "without_caching_s": without,
        "with_caching_s": with_,
        "reduction_pct": 100.0 * (without - with_) / without if without > 0 else 0.0,
    }]


def _fig8(pc: str, fast: bool) -> List[Row]:
    ideal = _npb("EP", pc, 1, fast, mode="manual", devices=["gpu0"]).seconds
    rows = []
    for label, allow_mini in (("minikernel", True), ("full kernel", False)):
        total = _npb(
            "EP", pc, 1, fast,
            config=SchedulerConfig(allow_minikernel=allow_mini),
        ).seconds
        rows.append({
            "class": pc,
            "mode": label,
            "ideal_s": ideal,
            "total_s": total,
            "profiling_overhead_pct": 100.0 * (total - ideal) / ideal,
        })
    return rows


def _fig9_units(fast: bool) -> List[Tuple[str, str, Optional[List[str]]]]:
    """(mapping label, mode, manual devices), one per table row."""
    manual = [(f"({a},{b})", "manual", [a, b]) for a, b in DEVICE_COMBOS]
    return manual + [("Round Robin", "round_robin", None),
                     ("MultiCL Auto Fit", "auto", None)]


def _fig9(key: Any, fast: bool) -> List[Row]:
    label, mode, devices = key
    steps = 10 if fast else 100
    ms = {
        layout: run_seismology(
            layout, mode=mode, devices=devices, steps=steps,
            profile_dir=shared_dir(),
        ).seconds / steps * 1e3
        for layout in ("column", "row")
    }
    return [{"mapping": label, "column_major_ms": ms["column"],
             "row_major_ms": ms["row"]}]


def _fig10(key: Any, fast: bool) -> List[Row]:
    steps = 12 if fast else 40
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=shared_dir())
    app = FDMSeismologyApp(layout="column", steps=steps)
    queues = [
        mcl.queue(
            device=mcl.device_names[i % len(mcl.device_names)],
            flags=SchedFlag.SCHED_AUTO_DYNAMIC | app.TABLE2_FLAGS,
            name=f"q{i}",
        )
        for i in range(2)
    ]
    app.setup(mcl.context, queues)
    boundaries = [mcl.now]
    for it in range(steps):
        app.enqueue_iteration(it)
        app.finish_all()
        boundaries.append(mcl.now)

    def busy(t0: float, t1: float, prefix: str) -> float:
        return sum(
            iv.duration
            for iv in mcl.engine.trace.filter(category="kernel")
            if t0 <= iv.start < t1 and iv.meta.get("kernel", "").startswith(prefix)
        )

    rows = []
    for i in range(steps):
        t0, t1 = boundaries[i], boundaries[i + 1]
        prof = sum(
            iv.duration
            for iv in mcl.engine.trace.between(t0, t1)
            if iv.category in ("profile-kernel", "profile-transfer")
        )
        rows.append({
            "iteration": i,
            "total_ms": (t1 - t0) * 1e3,
            "velocity_ms": busy(t0, t1, "vel_") * 1e3,
            "stress_ms": busy(t0, t1, "st_") * 1e3,
            "profiling_ms": prof * 1e3,
        })
    return rows


def _fig10_notes(rows: List[Row]) -> List[str]:
    rest = [r["total_ms"] for r in rows[1:]]
    return [
        f"iteration 0 (profiled): {rows[0]['total_ms']:.0f} ms; steady state: "
        f"{sum(rest) / len(rest):.0f} ms — the added cost is amortised "
        f"over the remaining iterations.  Stress computation dominates "
        f"velocity (25 vs 7 kernels), matching the paper's stacked bars."
    ]


def _ablations(key: Any, fast: bool) -> List[Row]:
    experiment, variant = key
    pc = "W" if fast else "A"
    if experiment == "trigger frequency":
        # 1. Scheduler trigger frequency: per-epoch vs per-kernel.
        cfg = SchedulerConfig(per_kernel_trigger=(variant == "per-kernel"))
        run = _npb("CG", pc, 4, fast, config=cfg)
    elif experiment == "profile caching":
        # 2. Kernel-profile caching on/off (iterative workload).
        cfg = SchedulerConfig(
            profile_caching=(variant == "profile caching on")
        )
        run = _npb("MG", pc, 4, fast, config=cfg)
    else:
        # 3. Static (hint-only) vs dynamic scheduling: BT is compute-heavy
        # but CPU-bound — a compute-bound *hint* sends it to the GPU
        # (wrong), while dynamic profiling discovers the truth.
        static_flags = (
            SchedFlag.SCHED_AUTO_STATIC
            | SchedFlag.SCHED_KERNEL_EPOCH
            | SchedFlag.SCHED_COMPUTE_BOUND
        )
        kwargs = {} if variant == "dynamic (profiled)" else {
            "auto_flags": static_flags
        }
        run = _npb("BT", pc, 4, fast, **kwargs)
    return [{"experiment": experiment, "variant": variant,
             "seconds": run.seconds}]


def _robustness(key: Any, fast: bool) -> List[Row]:
    noise, layout = key
    steps = 6 if fast else 30
    optimal_sets = {"column": {"cpu"}, "row": {"gpu0", "gpu1"}}
    cfg = SchedulerConfig(measurement_noise=noise)
    run = run_seismology(
        layout, mode="auto", steps=steps, config=cfg,
        profile_dir=shared_dir(),
    )
    return [{
        "noise_pct": 100.0 * noise,
        "layout": layout,
        "mapping": ",".join(sorted(run.bindings.values())),
        "optimal": set(run.bindings.values()) == optimal_sets[layout],
        "seconds": run.seconds,
    }]


_BASELINE_POLICIES = {
    "MultiCL AUTO_FIT (epochs)": ContextScheduler.AUTO_FIT,
    "SOCL-style (per kernel)": KERNEL_GRANULARITY_POLICY,
    "Round robin": ContextScheduler.ROUND_ROBIN,
}

_BASELINES_SRC = (
    "// @multicl flops_per_item=300 bytes_per_item=8 writes=1\n"
    "__kernel void gk(__global float* a, __global float* b, int n) { }\n"
    "// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.7 "
    "irregularity=0.8 gpu_eff=0.1 writes=1\n"
    "__kernel void ck(__global float* a, __global float* b, int n) { }\n"
)


def _baselines(key: Any, fast: bool) -> List[Row]:
    """One (workload, policy) cell of the Section III.B SOCL contrast.

    Two workload shapes under three policies:

    * **coherent queues** (the paper's regime — NPB and FDM-Seismology
      queues each hold kernels of one personality): epoch granularity
      reaches the same placement as per-kernel decisions while making an
      order of magnitude fewer scheduling decisions;
    * **mixed queues** (each queue alternates GPU- and CPU-leaning
      kernels): the flexibility limit of batching — per-kernel placement
      can exploit the split, which is why the paper offers
      ``SCHED_EXPLICIT_REGION`` to rescope what gets batched.
    """
    workload, policy_label = key
    n = 1 << 18 if fast else 1 << 20
    rounds = 4 if fast else 12
    if workload == "mixed queues":
        launches = [[0, 1] * rounds for _ in range(4)]
    else:
        # Coherent personality per queue (the paper's workloads).
        launches = [[qi % 2] * (2 * rounds) for qi in range(4)]
    mcl = MultiCL(
        policy=_BASELINE_POLICIES[policy_label], profile_dir=shared_dir()
    )
    _, seconds = _run_pool(
        mcl, _BASELINES_SRC, ("gk", "ck"), 4 * n, n, 64, launches
    )
    sched = mcl.context.scheduler
    decisions = getattr(sched, "decisions", None)
    if decisions is None:
        decisions = len(getattr(sched, "mapping_history", []))
    return [{
        "workload": workload,
        "policy": policy_label,
        "seconds": seconds,
        "decisions": decisions,
        "migrations": mcl.engine.trace.count(category="migration"),
    }]


def _predicted(key: Any, fast: bool) -> List[Row]:
    """One benchmark under AUTO_FIT, profiled vs predicted.

    The predicted run replaces every first-sight profiling epoch with the
    static-feature model (:mod:`repro.predict`): kernels are costed from
    parsed source before launch, so the scheduler maps them without ever
    running a measurement.  The table reports the makespan delta that
    costs and the fraction of profiling work it eliminates.
    """
    name, pc = key
    profiled = _npb(name, pc, 4, fast)
    predicted = _npb(name, pc, 4, fast, config=SchedulerConfig(predict=True))
    base = profiled.profiler_stats
    pred = predicted.profiler_stats
    runs_base = base.get("profiling_runs", 0)
    runs_pred = pred.get("profiling_runs", 0)
    eliminated = (
        100.0 * (runs_base - runs_pred) / runs_base if runs_base else 0.0
    )
    return [{
        "benchmark": f"{name}.{pc}",
        "profiled_s": profiled.seconds,
        "predicted_s": predicted.seconds,
        "makespan_delta_pct": 100.0
        * (predicted.seconds - profiled.seconds)
        / profiled.seconds,
        "measurements": pred.get("kernels_measured", 0),
        "kernels_predicted": pred.get("kernels_predicted", 0),
        "declines": pred.get("predict_declines", 0),
        "profiling_epochs_eliminated_pct": eliminated,
    }]


def _predicted_notes(rows: List[Row]) -> List[str]:
    worst = max(abs(r["makespan_delta_pct"]) for r in rows)
    eliminated = [r["profiling_epochs_eliminated_pct"] for r in rows]
    return [
        f"shape claim: predicted scheduling stays within 15% of the "
        f"fully-profiled makespan (worst |delta| here {worst:.1f}%; "
        f"negative deltas mean the predicted run is *faster* — it skips "
        f"the profiling epoch) while eliminating >=90% of profiling "
        f"epochs (mean {sum(eliminated) / len(eliminated):.0f}%)."
    ]


_CLUSTER_POOLS = {
    # workload: (source, kernel, queues, buffer bytes or None for 4n)
    "compute-heavy": (
        "// @multicl flops_per_item=2500 bytes_per_item=4 writes=1\n"
        "__kernel void crunch(__global float* a, __global float* b, int n) { }\n",
        "crunch", 6, None,
    ),
    "bandwidth-bound": (
        "// @multicl flops_per_item=2 bytes_per_item=24 writes=1\n"
        "__kernel void stream3(__global float* a, __global float* b, int n) { }\n",
        "stream3", 3, 64 << 20,
    ),
}


def _cluster(key: Any, fast: bool) -> List[Row]:
    """One (workload, platform) cell of the SnuCL cluster-mode extension.

    The paper (Section II.B) notes its optimisations "can be applied
    directly to the cluster mode as well"; this measures that claim on a
    two-node cluster (the paper's node + a remote GPU pair over
    InfiniBand).  Compute-heavy pools should speed up by borrowing remote
    GPUs; bandwidth-bound pools must stay on the root node.
    """
    workload, platform_label = key
    src, kname, queues, nbytes = _CLUSTER_POOLS[workload]
    n = 1 << 20 if fast else 1 << 22
    mcl = MultiCL(
        node_spec=None if platform_label == "single node" else two_node_cluster(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=shared_dir(),
    )
    qs, seconds = _run_pool(
        mcl, src, (kname,), nbytes or 4 * n, n, 128, [[0] * 4] * queues
    )
    return [{
        "workload": workload,
        "platform": platform_label,
        "seconds": seconds,
        "remote_queues": sum(1 for q in qs if q.device.startswith("node1.")),
    }]


def _loc(key: Any, fast: bool) -> List[Row]:
    rows = []
    for name in sorted(BENCHMARKS):
        cls = BENCHMARKS[name]
        calls = ["clCreateContext(+CL_CONTEXT_SCHEDULER)",
                 "clCreateCommandQueue(+SCHED_*)"]
        if cls.TABLE2_FLAGS & SchedFlag.SCHED_EXPLICIT_REGION:
            calls.append("clSetCommandQueueSchedProperty(start)")
            calls.append("clSetCommandQueueSchedProperty(stop)")
        if cls.USES_WORKGROUP_INFO:
            calls.append("clSetKernelWorkGroupInfo")
        rows.append({"application": name, "changed_calls": "; ".join(calls),
                     "lines": len(calls)})
    rows.append({
        "application": "FDM-Seismology",
        "changed_calls": "clCreateContext(+CL_CONTEXT_SCHEDULER); "
        "clCreateCommandQueue(+SCHED_KERNEL_EPOCH)",
        "lines": 2,
    })
    return rows


def _loc_notes(rows: List[Row]) -> List[str]:
    lines = [r["lines"] for r in rows]
    return [
        f"average lines changed: {sum(lines) / len(lines):.1f} "
        f"(paper: about four source lines per application)."
    ]


# ---------------------------------------------------------------------------
# The experiment table
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One experiment: a titled table built from independent units.

    ``units(fast)`` lists the experiment's independent configurations
    (picklable keys); ``run(key, fast)`` executes one of them and returns
    its rows.  The result concatenates every unit's rows in ``units``
    order; ``notes`` is fixed text or a function of those rows.
    ``extra_specs`` names node-spec factories beyond the default testbed
    whose device profiles are prewarmed before any unit runs.
    """

    describe: str
    title: str
    columns: Tuple[str, ...]
    run: Callable[[Any, bool], List[Row]]
    units: Callable[[bool], List[Any]] = lambda fast: [None]
    notes: Union[Tuple[str, ...], Callable[[List[Row]], List[str]]] = ()
    extra_specs: Tuple[Callable[[], Any], ...] = ()


EXPERIMENTS: Dict[str, Experiment] = {
    "fig3": Experiment(
        describe="Single-device CPU vs GPU relative times",
        title="Fig. 3: relative execution time of SNU-NPB on CPU vs GPU "
        "(CPU = 1)",
        columns=("benchmark", "class", "cpu_s", "gpu_s", "gpu_over_cpu",
                 "paper_ratio"),
        units=_npb_units, run=_fig3,
        notes=("shape claim: every benchmark except EP is faster on the CPU; "
               "EP is faster on the GPU (ratio < 1).",),
    ),
    "table1": Experiment(
        describe="Proposed OpenCL extensions (introspected)",
        title="Table I: proposed OpenCL extensions (introspected)",
        columns=("cl_function", "extension", "options"),
        run=_table1,
        notes=("every row is introspected from repro.ocl at run time; "
               "tests/test_ocl_context_platform.py asserts the same "
               "surface.",),
    ),
    "table2": Experiment(
        describe="Benchmark requirements and scheduler options",
        title="Table II: SNU-NPB-MD requirements and scheduler options",
        columns=("benchmark", "classes", "queues", "scheduler_options"),
        run=_table2,
    ),
    "fig4": Experiment(
        describe="Manual vs automatic scheduling, 4 queues",
        title="Fig. 4: SNU-NPB-MD manual vs automatic scheduling "
        "(4 queues; 1 CPU + 2 GPUs)",
        columns=("benchmark", "schedule", "seconds", "overhead_pct"),
        units=_npb_units, run=_fig4, notes=_fig4_notes,
    ),
    "fig5": Experiment(
        describe="Kernel distribution across devices",
        title="Fig. 5: distribution of SNU-NPB-MD kernels to devices "
        "(AUTO_FIT, 4 queues)",
        columns=("benchmark", "cpu_pct", "gpu0_pct", "gpu1_pct"),
        units=_npb_units, run=_fig5,
        notes=("shape claim: CPU receives the majority of kernels for all "
               "benchmarks except EP, whose kernels go (almost) entirely to "
               "GPUs — mirroring the Fig. 3 affinities.",),
    ),
    "fig6": Experiment(
        describe="FT profiling overhead vs queue count",
        title="Fig. 6: FT profiling (data-transfer) overhead vs queue count",
        columns=("queues", "data_per_queue_mb", "ideal_s", "auto_s",
                 "overhead_pct", "profile_transfer_s"),
        units=lambda fast: [1, 2, 4, 8], run=_fig6,
        notes=("shape claim: data per queue halves as queues double, and the "
               "profiling overhead (dominated by staging that data) falls "
               "with queue count (paper: ~45% at 4 queues for FT.A).",),
    ),
    "fig7": Experiment(
        describe="Data caching effect on FT profiling",
        title="Fig. 7: data caching's effect on FT profiling transfer "
        "overhead",
        columns=("queues", "without_caching_s", "with_caching_s",
                 "reduction_pct"),
        units=lambda fast: [1, 2, 4, 8], run=_fig7,
        notes=("shape claim: caching profiled data on the host (1×D2H + "
               "(n-1)×H2D, copies kept) consistently cuts the scheduler's "
               "data-movement time at every queue count.  The paper reports "
               "≈50%; with our 3-device topology the op-count arithmetic "
               "((n-1)(D2H+H2D) → 1 D2H+(n-1) H2D) bounds the saving near "
               "≈30%, which is what we measure — see EXPERIMENTS.md.",),
    ),
    "fig8": Experiment(
        describe="Minikernel profiling impact for EP",
        title="Fig. 8: impact of minikernel profiling for EP",
        columns=("class", "mode", "ideal_s", "total_s",
                 "profiling_overhead_pct"),
        units=lambda fast: list("SWA" if fast else "SWABCD"), run=_fig8,
        notes=("shape claim: full-kernel profiling costs ≈ the CPU/GPU ratio "
               "(up to ~20× for class D) and grows with class; minikernel "
               "profiling stays a small, roughly constant overhead (~3%).",),
    ),
    "fig9": Experiment(
        describe="FDM-Seismology device combinations",
        title="Fig. 9: FDM-Seismology time per iteration (ms) across "
        "queue-device mappings",
        columns=("mapping", "column_major_ms", "row_major_ms"),
        units=_fig9_units, run=_fig9,
        notes=("shape claims: column-major best on (cpu,cpu) with ≈2.7× "
               "spread to the worst single-GPU mapping; row-major best on "
               "(gpu0,gpu1) with ≈2.3× spread to (cpu,cpu); AUTO_FIT matches "
               "the best mapping for both layouts; round-robin splits across "
               "the GPUs regardless, suboptimal for column-major.",),
    ),
    "fig10": Experiment(
        describe="FDM-Seismology per-iteration amortisation",
        title="Fig. 10: FDM-Seismology per-iteration times under AUTO_FIT "
        "(profiling amortises; velocity/stress split as in the paper)",
        columns=("iteration", "total_ms", "velocity_ms", "stress_ms",
                 "profiling_ms"),
        run=_fig10, notes=_fig10_notes,
    ),
    "ablations": Experiment(
        describe="Design-choice ablations",
        title="Ablations: trigger frequency, profile caching, static hints",
        columns=("experiment", "variant", "seconds"),
        units=lambda fast: [
            ("trigger frequency", "per-epoch (default)"),
            ("trigger frequency", "per-kernel"),
            ("profile caching", "profile caching on"),
            ("profile caching", "profile caching off"),
            ("static vs dynamic", "dynamic (profiled)"),
            ("static vs dynamic", "static (hint only)"),
        ],
        run=_ablations,
        notes=("per-kernel triggering and disabled profile caching increase "
               "overhead; static hints are cheap but can pick the wrong "
               "device (the speed-vs-optimality tradeoff of Section V.B).",),
    ),
    "robustness": Experiment(
        describe="Measurement-noise robustness of the mapper",
        title="Measurement-noise robustness of AUTO_FIT mapping",
        columns=("noise_pct", "layout", "mapping", "optimal", "seconds"),
        units=lambda fast: [
            (noise, layout)
            for noise in (0.0, 0.05, 0.10, 0.20, 0.40)
            for layout in ("column", "row")
        ],
        run=_robustness,
        notes=("the device gaps in this workload (≈2.3-2.7x) tolerate "
               "substantial measurement error before the mapping flips — one "
               "profiling run per device suffices, as the paper assumes.",),
    ),
    "predicted_vs_profiled": Experiment(
        describe="Static-feature prediction vs dynamic profiling",
        title="Predicted vs profiled scheduling: static-feature model "
        "replacing first-epoch measurement (AUTO_FIT, 4 queues)",
        columns=("benchmark", "profiled_s", "predicted_s",
                 "makespan_delta_pct", "measurements", "kernels_predicted",
                 "declines", "profiling_epochs_eliminated_pct"),
        units=_npb_units, run=_predicted, notes=_predicted_notes,
    ),
    "cluster": Experiment(
        describe="MultiCL over SnuCL cluster mode (extension)",
        title="MultiCL over SnuCL cluster mode: when are remote GPUs worth "
        "it?",
        columns=("workload", "platform", "seconds", "remote_queues"),
        units=lambda fast: [
            (workload, platform)
            for workload in _CLUSTER_POOLS
            for platform in ("single node", "two-node cluster")
        ],
        run=_cluster,
        notes=(
            "compute-heavy pools speed up by borrowing the remote GPUs; "
            "bandwidth-bound pools stay entirely on the root node (shipping "
            "their data over InfiniBand would dominate).",
            "the bandwidth-bound pool is slower on the cluster even though "
            "no remote device is chosen: dynamic profiling stages the inputs "
            "to every candidate device, including the remote ones — "
            "profiling overhead grows with cluster size, which is exactly "
            "why the paper's overhead-reduction optimisations matter more "
            "in cluster mode.",
        ),
        extra_specs=(two_node_cluster,),
    ),
    "baselines": Experiment(
        describe="Epoch vs per-kernel scheduling granularity (SOCL contrast)",
        title="Scheduling granularity: MultiCL epochs vs SOCL-style "
        "per-kernel decisions",
        columns=("workload", "policy", "seconds", "decisions", "migrations"),
        units=lambda fast: [
            (workload, policy)
            for workload in ("coherent queues", "mixed queues")
            for policy in _BASELINE_POLICIES
        ],
        run=_baselines,
        notes=("coherent queues (the paper's regime): epoch batching matches "
               "per-kernel placement quality with far fewer scheduling "
               "decisions — the Section III.B overhead argument.  Mixed "
               "queues: per-kernel placement can exploit the intra-queue "
               "split, the flexibility limit the paper addresses with "
               "SCHED_EXPLICIT_REGION rescoping.",),
    ),
    "loc": Experiment(
        describe="Lines of code changed per application",
        title="Section VI.C: OpenCL source lines modified to enable MultiCL",
        columns=("application", "changed_calls", "lines"),
        run=_loc, notes=_loc_notes,
    ),
}


def _get(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}"
        )


def experiment_units(name: str, fast: bool = True) -> List[Any]:
    """The experiment's independent unit keys, in canonical order."""
    return _get(name).units(fast)


def run_experiment_unit(name: str, key: Any, fast: bool = True) -> List[Row]:
    """Execute one unit of ``name``; returns its rows."""
    return _get(name).run(key, fast)


def merge_experiment_units(
    name: str, payloads: Sequence[List[Row]]
) -> ExperimentResult:
    """Concatenate unit rows (in :func:`experiment_units` order) under the
    experiment's title and columns, then add its notes."""
    exp = _get(name)
    rows = [row for unit_rows in payloads for row in unit_rows]
    notes = exp.notes(rows) if callable(exp.notes) else exp.notes
    return ExperimentResult(
        name=name, title=exp.title, columns=list(exp.columns), rows=rows,
        notes=list(notes),
    )


def experiment_prewarm_specs(name: str) -> Tuple[Optional[Callable[[], Any]], ...]:
    """Node-spec factories whose device profiles the experiment needs.

    ``None`` stands for the default testbed node.
    """
    return (None,) + _get(name).extra_specs


def run_experiment(name: str, fast: bool = True) -> ExperimentResult:
    """Run ``name``'s units in-process, in order, on a warm profile cache:
    :func:`repro.bench.parallel.run_parallel` with one job, the serial
    reference of every wider fleet."""
    from repro.bench.parallel import run_parallel

    return run_parallel([name], fast, jobs=1)[name]

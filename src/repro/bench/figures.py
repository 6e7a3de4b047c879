"""One experiment per table/figure of the paper's evaluation (Section VI).

Every function takes ``fast`` (reduced problem scale, for tests and CI) and
returns an :class:`~repro.bench.harness.ExperimentResult`.  ``--full`` runs
the paper-scale configurations: the Fig. 4 problem classes (BT.B, CG.C,
EP.D, FT.A, MG.B, SP.C), four command queues, full NPB iteration counts.

Each experiment is registered as a set of independent *units* — one
configuration of a sweep (a benchmark, a queue count, a noise level, a
policy) — plus a ``merge`` step that assembles unit payloads into the final
table.  The serial path (:func:`run_experiment`) and the process-pool fleet
(:mod:`repro.bench.parallel`) both execute exactly the same units in the
same order, so a parallel run reproduces the serial tables bit-for-bit.

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

import atexit
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import knobs
from repro.bench.harness import ExperimentResult
from repro.core.flags import SchedulerConfig
from repro.ocl.enums import SchedFlag
from repro.workloads.base import ProblemClass
from repro.workloads.npb import BENCHMARKS, get_benchmark
from repro.workloads.npb.common import run_npb
from repro.workloads.seismology import DEVICE_COMBOS, run_seismology

__all__ = [
    "EXPERIMENTS",
    "REGISTRY",
    "Experiment",
    "PROFILE_DIR_ENV",
    "run_experiment",
    "experiment_units",
    "run_experiment_unit",
    "merge_experiment_units",
    "experiment_prewarm_specs",
    "set_profile_dir",
]

# ---------------------------------------------------------------------------
# Shared on-disk device-profile cache
# ---------------------------------------------------------------------------
#: Environment variable naming the harness-wide shared profile directory.
#: When set, every harness process (and every worker of a parallel fleet)
#: shares one device-profile cache instead of re-measuring per process.
PROFILE_DIR_ENV = "MULTICL_PROFILE_DIR"

#: Shared on-disk device-profile cache for a whole harness process.
_PROFILE_DIR: Optional[str] = None
#: Tempdir fallback we created ourselves (removed at interpreter exit).
_PROFILE_DIR_OWNED: Optional[str] = None


def _cleanup_profile_dir() -> None:
    global _PROFILE_DIR_OWNED
    if _PROFILE_DIR_OWNED is not None:
        shutil.rmtree(_PROFILE_DIR_OWNED, ignore_errors=True)
        _PROFILE_DIR_OWNED = None


atexit.register(_cleanup_profile_dir)


def _profile_dir() -> str:
    """Resolve the shared profile-cache directory for this process.

    Honors ``MULTICL_PROFILE_DIR``; otherwise falls back to a single
    tempdir per process that is removed at exit (no leaked
    ``multicl-profile-*`` directories).
    """
    global _PROFILE_DIR, _PROFILE_DIR_OWNED
    if _PROFILE_DIR is None:
        env = knobs.get(PROFILE_DIR_ENV)
        if env:
            os.makedirs(env, exist_ok=True)
            _PROFILE_DIR = env
        else:
            _PROFILE_DIR = tempfile.mkdtemp(prefix="multicl-profile-")
            _PROFILE_DIR_OWNED = _PROFILE_DIR
    return _PROFILE_DIR


def set_profile_dir(path: Optional[str]) -> None:
    """Pin the shared profile directory (``None`` re-resolves lazily).

    Used by the parallel runner to point every worker at one cache.  An
    owned tempdir fallback is cleaned up before repinning.
    """
    global _PROFILE_DIR
    if path is not None and path != _PROFILE_DIR_OWNED:
        _cleanup_profile_dir()
    if path is not None:
        os.makedirs(path, exist_ok=True)
    _PROFILE_DIR = path


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


def _fig3_classes(fast: bool) -> Dict[str, str]:
    # Fig. 3 uses the single-device version; we evaluate at the Fig. 4
    # classes so the two figures are directly comparable.
    return FAST_CLASSES if fast else FIG4_CLASSES


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


def _make_app(name: str, pc: str, queues: int, fast: bool, **kw):
    cls = get_benchmark(name)
    override = _FAST_ITERATIONS.get(name) if fast else None
    return cls(ProblemClass(pc), queues, iterations_override=override, **kw)


def _rows(
    name: str, title: str, columns: List[str], *notes: str
) -> Callable[[bool, List[Any]], ExperimentResult]:
    """Merge for experiments whose units each return one row and whose
    notes are fixed text."""

    def merge(fast: bool, payloads: List[Any]) -> ExperimentResult:
        res = ExperimentResult(name=name, title=title, columns=list(columns))
        for row in payloads:
            res.add(**row)
        res.notes.extend(notes)
        return res

    return merge


# ---------------------------------------------------------------------------
# Fig. 3 — single-device CPU vs GPU
# ---------------------------------------------------------------------------
def _npb_units(fast: bool) -> List[Any]:
    """(benchmark, class) pairs: the units of every per-NPB-app sweep."""
    return list(_fig3_classes(fast).items())


def _fig3_unit(key: Any, fast: bool) -> Dict[str, Any]:
    name, pc = key
    times = {}
    for dev in ("cpu", "gpu0"):
        run = run_npb(
            _make_app(name, pc, 1, fast),
            mode="manual",
            devices=[dev],
            profile_dir=_profile_dir(),
        )
        times[dev] = run.seconds
    return {
        "benchmark": name,
        "class": pc,
        "cpu_s": times["cpu"],
        "gpu_s": times["gpu0"],
        "gpu_over_cpu": times["gpu0"] / times["cpu"],
        "paper_ratio": FIG3_PAPER_RATIOS[name],
    }


_fig3_merge = _rows(
    "fig3",
    "Fig. 3: relative execution time of SNU-NPB on CPU vs GPU (CPU = 1)",
    ["benchmark", "class", "cpu_s", "gpu_s", "gpu_over_cpu", "paper_ratio"],
    "shape claim: every benchmark except EP is faster on the CPU; "
    "EP is faster on the GPU (ratio < 1).",
)


# ---------------------------------------------------------------------------
# Table I — proposed OpenCL extensions (rendered from the implementation)
# ---------------------------------------------------------------------------
def table1(fast: bool = True) -> ExperimentResult:
    """The paper's Table I, generated by introspecting the runtime —
    proving every proposed extension actually exists in the API."""
    from repro.ocl import api
    from repro.ocl.enums import ContextProperty, ContextScheduler

    res = ExperimentResult(
        name="table1",
        title="Table I: proposed OpenCL extensions (introspected)",
        columns=["cl_function", "extension", "options"],
    )
    res.add(
        cl_function="clCreateContext",
        extension=ContextProperty.CL_CONTEXT_SCHEDULER.name,
        options=", ".join(m.name for m in ContextScheduler),
    )
    sched_flags = [
        f.name for f in SchedFlag if f.name and f is not SchedFlag.SCHED_OFF
    ]
    res.add(
        cl_function="clCreateCommandQueue",
        extension="SCHED_* bitfield",
        options="SCHED_OFF, " + ", ".join(sched_flags),
    )
    for fn in ("clSetCommandQueueSchedProperty", "clSetKernelWorkGroupInfo"):
        assert callable(getattr(api, fn))
        res.add(cl_function=fn, extension="new CL API", options="implemented")
    res.notes.append(
        "every row is introspected from repro.ocl at run time; "
        "tests/test_ocl_context_platform.py asserts the same surface."
    )
    return res


# ---------------------------------------------------------------------------
# Table II — benchmark configurations
# ---------------------------------------------------------------------------
def table2(fast: bool = True) -> ExperimentResult:
    res = ExperimentResult(
        name="table2",
        title="Table II: SNU-NPB-MD requirements and scheduler options",
        columns=["benchmark", "classes", "queues", "scheduler_options"],
    )
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
        res.add(
            benchmark=name,
            classes=",".join(c.value for c in cls.VALID_CLASSES),
            queues=f"{cls.QUEUE_RULE.description}: "
            f"{','.join(map(str, cls.QUEUE_RULE.allowed))}",
            scheduler_options=" | ".join(opts),
        )
    return res


# ---------------------------------------------------------------------------
# Fig. 4 — manual schedules vs AUTO_FIT (4 queues)
# ---------------------------------------------------------------------------
def _fig4_unit(key: Any, fast: bool) -> Dict[str, Any]:
    name, pc = key
    manual: Dict[str, float] = {}
    for label, devs in FIG4_SCHEDULES.items():
        run = run_npb(
            _make_app(name, pc, 4, fast),
            mode="manual",
            devices=list(devs),
            profile_dir=_profile_dir(),
        )
        manual[label] = run.seconds
    auto = run_npb(
        _make_app(name, pc, 4, fast), mode="auto", profile_dir=_profile_dir()
    )
    # The paper's overhead metric compares against the *ideal* mapping.
    # AUTO_FIT may legitimately beat every showcased schedule (its
    # search space is all 3^4 assignments), so the ideal is the better
    # of (best showcased schedule, AUTO_FIT's own mapping run manually).
    auto_devices = [auto.bindings[f"q{i}"] for i in range(4)]
    replay = run_npb(
        _make_app(name, pc, 4, fast),
        mode="manual",
        devices=auto_devices,
        profile_dir=_profile_dir(),
    )
    ideal = min(min(manual.values()), replay.seconds)
    bench_label = f"{name}.{pc}"
    rows: List[Dict[str, Any]] = []
    for label, secs in manual.items():
        rows.append(
            {"benchmark": bench_label, "schedule": label, "seconds": secs,
             "overhead_pct": ""}
        )
    overhead = 100.0 * (auto.seconds - ideal) / ideal
    rows.append(
        {"benchmark": bench_label, "schedule": "Auto Fit",
         "seconds": auto.seconds, "overhead_pct": overhead}
    )
    return {"rows": rows, "factor": max(overhead, 0.0) / 100.0 + 1.0}


def _fig4_merge(fast: bool, payloads: List[Any]) -> ExperimentResult:
    res = ExperimentResult(
        name="fig4",
        title="Fig. 4: SNU-NPB-MD manual vs automatic scheduling "
        "(4 queues; 1 CPU + 2 GPUs)",
        columns=["benchmark", "schedule", "seconds", "overhead_pct"],
    )
    overheads: List[float] = []
    for payload in payloads:
        for row in payload["rows"]:
            res.add(**row)
        overheads.append(payload["factor"])
    geomean = (math.prod(overheads)) ** (1.0 / len(overheads)) - 1.0
    res.notes.append(
        f"geometric-mean AUTO_FIT overhead vs best manual schedule: "
        f"{100 * geomean:.1f}% (paper: 10.1%, FT the worst at ~45%)"
    )
    return res


# ---------------------------------------------------------------------------
# Fig. 5 — kernel distribution across devices under AUTO_FIT
# ---------------------------------------------------------------------------
def _fig5_unit(key: Any, fast: bool) -> Dict[str, Any]:
    name, pc = key
    run = run_npb(
        _make_app(name, pc, 4, fast), mode="auto", profile_dir=_profile_dir()
    )
    dist = run.stats.kernel_distribution()
    return {
        "benchmark": f"{name}.{pc}",
        "cpu_pct": 100.0 * dist.get("cpu", 0.0),
        "gpu0_pct": 100.0 * dist.get("gpu0", 0.0),
        "gpu1_pct": 100.0 * dist.get("gpu1", 0.0),
    }


_fig5_merge = _rows(
    "fig5",
    "Fig. 5: distribution of SNU-NPB-MD kernels to devices "
    "(AUTO_FIT, 4 queues)",
    ["benchmark", "cpu_pct", "gpu0_pct", "gpu1_pct"],
    "shape claim: CPU receives the majority of kernels for all "
    "benchmarks except EP, whose kernels go (almost) entirely to GPUs "
    "— mirroring the Fig. 3 affinities.",
)


# ---------------------------------------------------------------------------
# Fig. 6 — FT profiling (data-transfer) overhead vs queue count
# ---------------------------------------------------------------------------
def _ft_class(fast: bool) -> str:
    return "S" if fast else "A"


def _ft_queue_units(fast: bool) -> List[Any]:
    """FT queue counts: the units of the Fig. 6 and Fig. 7 sweeps."""
    return [1, 2, 4, 8]


def _fig6_unit(key: Any, fast: bool) -> Dict[str, Any]:
    q_count = key
    pc = _ft_class(fast)
    auto = run_npb(
        _make_app("FT", pc, q_count, fast), mode="auto",
        profile_dir=_profile_dir(),
    )
    # Ideal = the same mapping executed manually (no profiling).
    devices = [auto.bindings[f"q{i}"] for i in range(q_count)]
    ideal = run_npb(
        _make_app("FT", pc, q_count, fast), mode="manual", devices=devices,
        profile_dir=_profile_dir(),
    )
    app = _make_app("FT", pc, q_count, fast)
    data_mb = (2 * app.slab_bytes + app.points_per_queue * 8) / 1e6
    return {
        "queues": q_count,
        "data_per_queue_mb": data_mb,
        "ideal_s": ideal.seconds,
        "auto_s": auto.seconds,
        "overhead_pct": 100.0 * (auto.seconds - ideal.seconds) / ideal.seconds,
        "profile_transfer_s": auto.stats.profile_transfer_seconds,
    }


_fig6_merge = _rows(
    "fig6",
    "Fig. 6: FT profiling (data-transfer) overhead vs queue count",
    [
        "queues",
        "data_per_queue_mb",
        "ideal_s",
        "auto_s",
        "overhead_pct",
        "profile_transfer_s",
    ],
    "shape claim: data per queue halves as queues double, and the "
    "profiling overhead (dominated by staging that data) falls with "
    "queue count (paper: ~45% at 4 queues for FT.A).",
)


# ---------------------------------------------------------------------------
# Fig. 7 — effect of data caching on FT profiling overhead
# ---------------------------------------------------------------------------
def _fig7_unit(key: Any, fast: bool) -> Dict[str, Any]:
    q_count = key
    pc = _ft_class(fast)
    overheads = {}
    for caching in (False, True):
        cfg = SchedulerConfig(data_caching=caching)
        auto = run_npb(
            _make_app("FT", pc, q_count, fast), mode="auto", config=cfg,
            profile_dir=_profile_dir(),
        )
        # The profiling data-transfer time itself (the quantity the
        # paper's Fig. 7 normalises).  Post-mapping migrations are
        # excluded: equally-optimal mappings can differ between the
        # two configs and would add unrelated noise.
        overheads[caching] = auto.stats.profile_transfer_seconds
    reduction = (
        100.0 * (overheads[False] - overheads[True]) / overheads[False]
        if overheads[False] > 0
        else 0.0
    )
    return {
        "queues": q_count,
        "without_caching_s": overheads[False],
        "with_caching_s": overheads[True],
        "reduction_pct": reduction,
    }


_fig7_merge = _rows(
    "fig7",
    "Fig. 7: data caching's effect on FT profiling transfer overhead",
    [
        "queues",
        "without_caching_s",
        "with_caching_s",
        "reduction_pct",
    ],
    "shape claim: caching profiled data on the host (1×D2H + (n-1)×H2D, "
    "copies kept) consistently cuts the scheduler's data-movement time "
    "at every queue count.  The paper reports ≈50%; with our 3-device "
    "topology the op-count arithmetic ((n-1)(D2H+H2D) → 1 D2H+(n-1) "
    "H2D) bounds the saving near ≈30%, which is what we measure — see "
    "EXPERIMENTS.md.",
)


# ---------------------------------------------------------------------------
# Fig. 8 — minikernel vs full-kernel profiling for EP
# ---------------------------------------------------------------------------
def _fig8_units(fast: bool) -> List[Any]:
    return list(("S", "W", "A") if fast else ("S", "W", "A", "B", "C", "D"))


def _fig8_unit(key: Any, fast: bool) -> List[Dict[str, Any]]:
    pc = key
    ideal = run_npb(
        _make_app("EP", pc, 1, fast), mode="manual", devices=["gpu0"],
        profile_dir=_profile_dir(),
    )
    rows: List[Dict[str, Any]] = []
    for label, allow_mini in (("minikernel", True), ("full kernel", False)):
        cfg = SchedulerConfig(allow_minikernel=allow_mini)
        auto = run_npb(
            _make_app("EP", pc, 1, fast), mode="auto", config=cfg,
            profile_dir=_profile_dir(),
        )
        rows.append(
            {
                "class": pc,
                "mode": label,
                "ideal_s": ideal.seconds,
                "total_s": auto.seconds,
                "profiling_overhead_pct": 100.0
                * (auto.seconds - ideal.seconds)
                / ideal.seconds,
            }
        )
    return rows


def _fig8_merge(fast: bool, payloads: List[Any]) -> ExperimentResult:
    res = ExperimentResult(
        name="fig8",
        title="Fig. 8: impact of minikernel profiling for EP",
        columns=[
            "class",
            "mode",
            "ideal_s",
            "total_s",
            "profiling_overhead_pct",
        ],
    )
    for rows in payloads:
        for row in rows:
            res.add(**row)
    res.notes.append(
        "shape claim: full-kernel profiling costs ≈ the CPU/GPU ratio "
        "(up to ~20× for class D) and grows with class; minikernel "
        "profiling stays a small, roughly constant overhead (~3%)."
    )
    return res


# ---------------------------------------------------------------------------
# Fig. 9 — FDM-Seismology device combinations
# ---------------------------------------------------------------------------
def _fig9_steps(fast: bool) -> int:
    return 10 if fast else 100


def _fig9_units(fast: bool) -> List[Any]:
    units: List[Any] = []
    for layout in ("column", "row"):
        for combo in DEVICE_COMBOS:
            units.append((layout, "manual", tuple(combo)))
        for label, mode in (("Round Robin", "round_robin"),
                            ("MultiCL Auto Fit", "auto")):
            units.append((layout, mode, label))
    return units


def _fig9_unit(key: Any, fast: bool) -> Tuple[str, str, float]:
    layout, mode, ident = key
    steps = _fig9_steps(fast)
    if mode == "manual":
        combo = ident
        label = f"({combo[0]},{combo[1]})"
        run = run_seismology(
            layout, mode="manual", devices=list(combo), steps=steps,
            profile_dir=_profile_dir(),
        )
    else:
        label = ident
        run = run_seismology(
            layout, mode=mode, steps=steps, profile_dir=_profile_dir()
        )
    return label, layout, run.seconds / steps * 1e3


def _fig9_merge(fast: bool, payloads: List[Any]) -> ExperimentResult:
    res = ExperimentResult(
        name="fig9",
        title="Fig. 9: FDM-Seismology time per iteration (ms) across "
        "queue-device mappings",
        columns=["mapping", "column_major_ms", "row_major_ms"],
    )
    rows: Dict[str, Dict[str, float]] = {}
    for label, layout, ms in payloads:
        rows.setdefault(label, {})[layout] = ms
    for label, vals in rows.items():
        res.add(
            mapping=label,
            column_major_ms=vals.get("column"),
            row_major_ms=vals.get("row"),
        )
    res.notes.append(
        "shape claims: column-major best on (cpu,cpu) with ≈2.7× spread to "
        "the worst single-GPU mapping; row-major best on (gpu0,gpu1) with "
        "≈2.3× spread to (cpu,cpu); AUTO_FIT matches the best mapping for "
        "both layouts; round-robin splits across the GPUs regardless, "
        "suboptimal for column-major."
    )
    return res


# ---------------------------------------------------------------------------
# Fig. 10 — per-iteration amortisation of profiling overhead
# ---------------------------------------------------------------------------
def fig10(fast: bool = True) -> ExperimentResult:
    res = ExperimentResult(
        name="fig10",
        title="Fig. 10: FDM-Seismology per-iteration times under AUTO_FIT "
        "(profiling amortises; velocity/stress split as in the paper)",
        columns=["iteration", "total_ms", "velocity_ms", "stress_ms",
                 "profiling_ms"],
    )
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler
    from repro.workloads.seismology.app import FDMSeismologyApp

    steps = 12 if fast else 40
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=_profile_dir())
    app = FDMSeismologyApp(layout="column", steps=steps)
    queues = [
        mcl.queue(
            device=mcl.device_names[i % len(mcl.device_names)],
            flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH,
            name=f"q{i}",
        )
        for i in range(2)
    ]
    app.setup(mcl.context, queues)
    boundaries = [mcl.now]
    for it in range(steps):
        app.enqueue_iteration(it)
        for q in queues:
            q.finish()
        boundaries.append(mcl.now)

    def busy(t0: float, t1: float, prefix: str) -> float:
        return sum(
            iv.duration
            for iv in mcl.engine.trace.filter(category="kernel")
            if t0 <= iv.start < t1 and iv.meta.get("kernel", "").startswith(prefix)
        )

    for i in range(steps):
        t0, t1 = boundaries[i], boundaries[i + 1]
        prof = sum(
            iv.duration
            for iv in mcl.engine.trace.between(t0, t1)
            if iv.category in ("profile-kernel", "profile-transfer")
        )
        res.add(
            iteration=i,
            total_ms=(t1 - t0) * 1e3,
            velocity_ms=busy(t0, t1, "vel_") * 1e3,
            stress_ms=busy(t0, t1, "st_") * 1e3,
            profiling_ms=prof * 1e3,
        )
    first = res.rows[0]["total_ms"]
    rest = [r["total_ms"] for r in res.rows[1:]]
    res.notes.append(
        f"iteration 0 (profiled): {first:.0f} ms; steady state: "
        f"{sum(rest) / len(rest):.0f} ms — the added cost is amortised "
        f"over the remaining iterations.  Stress computation dominates "
        f"velocity (25 vs 7 kernels), matching the paper's stacked bars."
    )
    return res


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures
# ---------------------------------------------------------------------------
def _ablations_units(fast: bool) -> List[Any]:
    return [
        ("trigger frequency", "per-epoch (default)"),
        ("trigger frequency", "per-kernel"),
        ("profile caching", "profile caching on"),
        ("profile caching", "profile caching off"),
        ("static vs dynamic", "dynamic (profiled)"),
        ("static vs dynamic", "static (hint only)"),
    ]


def _ablations_unit(key: Any, fast: bool) -> Dict[str, Any]:
    experiment, variant = key
    pc = "W" if fast else "A"
    if experiment == "trigger frequency":
        # 1. Scheduler trigger frequency: per-epoch vs per-kernel.
        cfg = SchedulerConfig(per_kernel_trigger=(variant == "per-kernel"))
        run = run_npb(
            _make_app("CG", pc, 4, fast), mode="auto", config=cfg,
            profile_dir=_profile_dir(),
        )
    elif experiment == "profile caching":
        # 2. Kernel-profile caching on/off (iterative workload).
        cfg = SchedulerConfig(
            profile_caching=(variant == "profile caching on")
        )
        run = run_npb(
            _make_app("MG", pc, 4, fast), mode="auto", config=cfg,
            profile_dir=_profile_dir(),
        )
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
        run = run_npb(
            _make_app("BT", pc, 4, fast), mode="auto",
            profile_dir=_profile_dir(), **kwargs,
        )
    return {"experiment": experiment, "variant": variant, "seconds": run.seconds}


_ablations_merge = _rows(
    "ablations",
    "Ablations: trigger frequency, profile caching, static hints",
    ["experiment", "variant", "seconds"],
    "per-kernel triggering and disabled profile caching increase "
    "overhead; static hints are cheap but can pick the wrong device "
    "(the speed-vs-optimality tradeoff of Section V.B).",
)


# ---------------------------------------------------------------------------
# Robustness: how much measurement error can the mapper absorb?
# ---------------------------------------------------------------------------
def _robustness_units(fast: bool) -> List[Any]:
    return [
        (noise, layout)
        for noise in (0.0, 0.05, 0.10, 0.20, 0.40)
        for layout in ("column", "row")
    ]


def _robustness_unit(key: Any, fast: bool) -> Dict[str, Any]:
    noise, layout = key
    steps = 6 if fast else 30
    optimal_sets = {"column": {"cpu"}, "row": {"gpu0", "gpu1"}}
    cfg = SchedulerConfig(measurement_noise=noise)
    run = run_seismology(
        layout, mode="auto", steps=steps, config=cfg,
        profile_dir=_profile_dir(),
    )
    chosen = set(run.bindings.values())
    return {
        "noise_pct": 100.0 * noise,
        "layout": layout,
        "mapping": ",".join(sorted(run.bindings.values())),
        "optimal": chosen == optimal_sets[layout],
        "seconds": run.seconds,
    }


_robustness_merge = _rows(
    "robustness",
    "Measurement-noise robustness of AUTO_FIT mapping",
    ["noise_pct", "layout", "mapping", "optimal", "seconds"],
    "the device gaps in this workload (≈2.3-2.7x) tolerate substantial "
    "measurement error before the mapping flips — one profiling run "
    "per device suffices, as the paper assumes.",
)


# ---------------------------------------------------------------------------
# Baselines: epoch-granularity (MultiCL) vs kernel-granularity (SOCL-style)
# ---------------------------------------------------------------------------
_BASELINE_POLICIES = (
    "MultiCL AUTO_FIT (epochs)",
    "SOCL-style (per kernel)",
    "Round robin",
)


def _baselines_units(fast: bool) -> List[Any]:
    return [
        (workload, policy_label)
        for workload in ("coherent queues", "mixed queues")
        for policy_label in _BASELINE_POLICIES
    ]


def _baselines_unit(key: Any, fast: bool) -> Dict[str, Any]:
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
    from repro.core.baselines import KERNEL_GRANULARITY_POLICY
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler

    workload, policy_label = key
    mixed = workload == "mixed queues"
    policy = {
        "MultiCL AUTO_FIT (epochs)": ContextScheduler.AUTO_FIT,
        "SOCL-style (per kernel)": KERNEL_GRANULARITY_POLICY,
        "Round robin": ContextScheduler.ROUND_ROBIN,
    }[policy_label]
    src = (
        "// @multicl flops_per_item=300 bytes_per_item=8 writes=1\n"
        "__kernel void gk(__global float* a, __global float* b, int n) { }\n"
        "// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.7 "
        "irregularity=0.8 gpu_eff=0.1 writes=1\n"
        "__kernel void ck(__global float* a, __global float* b, int n) { }\n"
    )
    n = 1 << 18 if fast else 1 << 20
    rounds = 4 if fast else 12

    mcl = MultiCL(policy=policy, profile_dir=_profile_dir())
    ctx = mcl.context
    program = ctx.create_program(src).build()
    queues = []
    for qi in range(4):
        gk = program.create_kernel("gk")
        ck = program.create_kernel("ck")
        a = ctx.create_buffer(4 * n)
        b = ctx.create_buffer(4 * n)
        a.mark_valid("host")
        for k in (gk, ck):
            k.set_arg(0, a)
            k.set_arg(1, b)
            k.set_arg(2, n)
        q = mcl.queue(
            flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH,
            name=f"q{qi}",
        )
        if mixed:
            for _ in range(rounds):
                q.enqueue_nd_range_kernel(gk, (n,), (64,))
                q.enqueue_nd_range_kernel(ck, (n,), (64,))
        else:
            # Coherent personality per queue (the paper's workloads).
            kern = gk if qi % 2 == 0 else ck
            for _ in range(2 * rounds):
                q.enqueue_nd_range_kernel(kern, (n,), (64,))
        queues.append(q)
    t0 = mcl.now
    for q in queues:
        q.finish()
    sched = mcl.context.scheduler
    decisions = getattr(sched, "decisions", None)
    if decisions is None:
        decisions = len(getattr(sched, "mapping_history", []))
    return {
        "workload": workload,
        "policy": policy_label,
        "seconds": mcl.now - t0,
        "decisions": decisions,
        "migrations": mcl.engine.trace.count(category="migration"),
    }


_baselines_merge = _rows(
    "baselines",
    "Scheduling granularity: MultiCL epochs vs SOCL-style "
    "per-kernel decisions",
    ["workload", "policy", "seconds", "decisions", "migrations"],
    "coherent queues (the paper's regime): epoch batching matches "
    "per-kernel placement quality with far fewer scheduling decisions "
    "— the Section III.B overhead argument.  Mixed queues: per-kernel "
    "placement can exploit the intra-queue split, the flexibility "
    "limit the paper addresses with SCHED_EXPLICIT_REGION rescoping.",
)


# ---------------------------------------------------------------------------
# Predicted vs profiled: the repro.predict ablation
# ---------------------------------------------------------------------------
def _predicted_unit(key: Any, fast: bool) -> Dict[str, Any]:
    """One benchmark under AUTO_FIT, profiled vs predicted.

    The predicted run replaces every first-sight profiling epoch with the
    static-feature model (:mod:`repro.predict`): kernels are costed from
    parsed source before launch, so the scheduler maps them without ever
    running a measurement.  The table reports the makespan delta that
    costs and the fraction of profiling work it eliminates.
    """
    name, pc = key
    profiled = run_npb(
        _make_app(name, pc, 4, fast), mode="auto", profile_dir=_profile_dir()
    )
    predicted = run_npb(
        _make_app(name, pc, 4, fast),
        mode="auto",
        config=SchedulerConfig(predict=True),
        profile_dir=_profile_dir(),
    )
    base = profiled.profiler_stats
    pred = predicted.profiler_stats
    runs_base = base.get("profiling_runs", 0)
    runs_pred = pred.get("profiling_runs", 0)
    eliminated = (
        100.0 * (runs_base - runs_pred) / runs_base if runs_base else 0.0
    )
    return {
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
    }


def _predicted_merge(fast: bool, payloads: List[Any]) -> ExperimentResult:
    res = ExperimentResult(
        name="predicted_vs_profiled",
        title="Predicted vs profiled scheduling: static-feature model "
        "replacing first-epoch measurement (AUTO_FIT, 4 queues)",
        columns=[
            "benchmark",
            "profiled_s",
            "predicted_s",
            "makespan_delta_pct",
            "measurements",
            "kernels_predicted",
            "declines",
            "profiling_epochs_eliminated_pct",
        ],
    )
    for row in payloads:
        res.add(**row)
    worst = max(abs(r["makespan_delta_pct"]) for r in payloads)
    eliminated = [r["profiling_epochs_eliminated_pct"] for r in payloads]
    res.notes.append(
        f"shape claim: predicted scheduling stays within 15% of the "
        f"fully-profiled makespan (worst |delta| here {worst:.1f}%; "
        f"negative deltas mean the predicted run is *faster* — it skips "
        f"the profiling epoch) while eliminating >=90% of profiling "
        f"epochs (mean {sum(eliminated) / len(eliminated):.0f}%)."
    )
    return res


# ---------------------------------------------------------------------------
# Cluster mode: scheduling over remote accelerators (SnuCL cluster mode)
# ---------------------------------------------------------------------------
def _cluster_units(fast: bool) -> List[Any]:
    return [
        (workload, platform_label)
        for workload in ("compute-heavy", "bandwidth-bound")
        for platform_label in ("single node", "two-node cluster")
    ]


def _cluster_unit(key: Any, fast: bool) -> Dict[str, Any]:
    """One (workload, platform) cell of the SnuCL cluster-mode extension.

    The paper (Section II.B) notes its optimisations "can be applied
    directly to the cluster mode as well"; this measures that claim on a
    two-node cluster (the paper's node + a remote GPU pair over
    InfiniBand).  Compute-heavy pools should speed up by borrowing remote
    GPUs; bandwidth-bound pools must stay on the root node.
    """
    from repro.cluster import two_node_cluster
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import ContextScheduler

    workload, platform_label = key
    compute_src = (
        "// @multicl flops_per_item=2500 bytes_per_item=4 writes=1\n"
        "__kernel void crunch(__global float* a, __global float* b, int n) { }\n"
    )
    stream_src = (
        "// @multicl flops_per_item=2 bytes_per_item=24 writes=1\n"
        "__kernel void stream3(__global float* a, __global float* b, int n) { }\n"
    )
    n = 1 << 20 if fast else 1 << 22
    src, kname, queues, nbytes = {
        "compute-heavy": (compute_src, "crunch", 6, 4 * n),
        "bandwidth-bound": (stream_src, "stream3", 3, 64 << 20),
    }[workload]
    spec = None if platform_label == "single node" else two_node_cluster()

    mcl = MultiCL(
        node_spec=spec,
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=_profile_dir(),
    )
    ctx = mcl.context
    program = ctx.create_program(src).build()
    qs = []
    for i in range(queues):
        k = program.create_kernel(kname)
        a = ctx.create_buffer(nbytes)
        b = ctx.create_buffer(nbytes)
        a.mark_valid("host")
        k.set_arg(0, a)
        k.set_arg(1, b)
        k.set_arg(2, n)
        q = mcl.queue(
            flags=SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH,
            name=f"q{i}",
        )
        for _ in range(4):
            q.enqueue_nd_range_kernel(k, (n,), (128,))
        qs.append(q)
    t0 = mcl.now
    for q in qs:
        q.finish()
    remote = sum(1 for q in qs if q.device.startswith("node1."))
    return {
        "workload": workload,
        "platform": platform_label,
        "seconds": mcl.now - t0,
        "remote_queues": remote,
    }


_cluster_merge = _rows(
    "cluster",
    "MultiCL over SnuCL cluster mode: when are remote GPUs worth it?",
    ["workload", "platform", "seconds", "remote_queues"],
    "compute-heavy pools speed up by borrowing the remote GPUs; "
    "bandwidth-bound pools stay entirely on the root node (shipping "
    "their data over InfiniBand would dominate).",
    "the bandwidth-bound pool is slower on the cluster even though no "
    "remote device is chosen: dynamic profiling stages the inputs to "
    "every candidate device, including the remote ones — profiling "
    "overhead grows with cluster size, which is exactly why the "
    "paper's overhead-reduction optimisations matter more in cluster "
    "mode.",
)


def _two_node_cluster_spec():
    from repro.cluster import two_node_cluster

    return two_node_cluster()


# ---------------------------------------------------------------------------
# Section VI.C — lines of code changed per application
# ---------------------------------------------------------------------------
def loc(fast: bool = True) -> ExperimentResult:
    res = ExperimentResult(
        name="loc",
        title="Section VI.C: OpenCL source lines modified to enable MultiCL",
        columns=["application", "changed_calls", "lines"],
    )
    for name in sorted(BENCHMARKS):
        cls = BENCHMARKS[name]
        calls = ["clCreateContext(+CL_CONTEXT_SCHEDULER)",
                 "clCreateCommandQueue(+SCHED_*)"]
        if cls.TABLE2_FLAGS & SchedFlag.SCHED_EXPLICIT_REGION:
            calls.append("clSetCommandQueueSchedProperty(start)")
            calls.append("clSetCommandQueueSchedProperty(stop)")
        if cls.USES_WORKGROUP_INFO:
            calls.append("clSetKernelWorkGroupInfo")
        res.add(application=name, changed_calls="; ".join(calls), lines=len(calls))
    res.add(
        application="FDM-Seismology",
        changed_calls="clCreateContext(+CL_CONTEXT_SCHEDULER); "
        "clCreateCommandQueue(+SCHED_KERNEL_EPOCH)",
        lines=2,
    )
    lines = [r["lines"] for r in res.rows]
    res.notes.append(
        f"average lines changed: {sum(lines) / len(lines):.1f} "
        f"(paper: about four source lines per application)."
    )
    return res


# ---------------------------------------------------------------------------
# Experiment registry: units + merge per experiment
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One registered experiment and its parallel decomposition.

    ``units(fast)`` lists the experiment's independent configurations
    (picklable keys); ``run_unit(key, fast)`` executes one of them and
    returns a picklable payload; ``merge(fast, payloads)`` assembles the
    payloads — in ``units`` order — into the final
    :class:`ExperimentResult`.  ``extra_specs`` names node-spec factories
    beyond the default testbed whose device profiles the parallel runner
    prewarms before fanning out.
    """

    describe: str
    units: Callable[[bool], List[Any]]
    run_unit: Callable[[Any, bool], Any]
    merge: Callable[[bool, List[Any]], ExperimentResult]
    extra_specs: Tuple[Callable[[], Any], ...] = ()


def _whole(fn: Callable[..., ExperimentResult]) -> Dict[str, Any]:
    """Decomposition for experiments that run as a single unit."""
    return {
        "units": lambda fast: [None],
        "run_unit": lambda key, fast: fn(fast=fast),
        "merge": lambda fast, payloads: payloads[0],
    }


REGISTRY: Dict[str, Experiment] = {
    "fig3": Experiment(
        describe="Single-device CPU vs GPU relative times",
        units=_npb_units, run_unit=_fig3_unit, merge=_fig3_merge,
    ),
    "table1": Experiment(
        describe="Proposed OpenCL extensions (introspected)", **_whole(table1),
    ),
    "table2": Experiment(
        describe="Benchmark requirements and scheduler options",
        **_whole(table2),
    ),
    "fig4": Experiment(
        describe="Manual vs automatic scheduling, 4 queues",
        units=_npb_units, run_unit=_fig4_unit, merge=_fig4_merge,
    ),
    "fig5": Experiment(
        describe="Kernel distribution across devices",
        units=_npb_units, run_unit=_fig5_unit, merge=_fig5_merge,
    ),
    "fig6": Experiment(
        describe="FT profiling overhead vs queue count",
        units=_ft_queue_units, run_unit=_fig6_unit, merge=_fig6_merge,
    ),
    "fig7": Experiment(
        describe="Data caching effect on FT profiling",
        units=_ft_queue_units, run_unit=_fig7_unit, merge=_fig7_merge,
    ),
    "fig8": Experiment(
        describe="Minikernel profiling impact for EP",
        units=_fig8_units, run_unit=_fig8_unit, merge=_fig8_merge,
    ),
    "fig9": Experiment(
        describe="FDM-Seismology device combinations",
        units=_fig9_units, run_unit=_fig9_unit, merge=_fig9_merge,
    ),
    "fig10": Experiment(
        describe="FDM-Seismology per-iteration amortisation", **_whole(fig10),
    ),
    "ablations": Experiment(
        describe="Design-choice ablations",
        units=_ablations_units, run_unit=_ablations_unit,
        merge=_ablations_merge,
    ),
    "robustness": Experiment(
        describe="Measurement-noise robustness of the mapper",
        units=_robustness_units, run_unit=_robustness_unit,
        merge=_robustness_merge,
    ),
    "predicted_vs_profiled": Experiment(
        describe="Static-feature prediction vs dynamic profiling",
        units=_npb_units, run_unit=_predicted_unit,
        merge=_predicted_merge,
    ),
    "cluster": Experiment(
        describe="MultiCL over SnuCL cluster mode (extension)",
        units=_cluster_units, run_unit=_cluster_unit, merge=_cluster_merge,
        extra_specs=(_two_node_cluster_spec,),
    ),
    "baselines": Experiment(
        describe="Epoch vs per-kernel scheduling granularity (SOCL contrast)",
        units=_baselines_units, run_unit=_baselines_unit,
        merge=_baselines_merge,
    ),
    "loc": Experiment(
        describe="Lines of code changed per application", **_whole(loc),
    ),
}


def _get(name: str) -> Experiment:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; have {sorted(REGISTRY)}")


def experiment_units(name: str, fast: bool = True) -> List[Any]:
    """The experiment's independent unit keys, in canonical order."""
    return _get(name).units(fast)


def run_experiment_unit(name: str, key: Any, fast: bool = True) -> Any:
    """Execute one unit of ``name``; returns its picklable payload."""
    return _get(name).run_unit(key, fast)


def merge_experiment_units(
    name: str, fast: bool, payloads: Sequence[Any]
) -> ExperimentResult:
    """Assemble unit payloads (in :func:`experiment_units` order)."""
    return _get(name).merge(fast, list(payloads))


def experiment_prewarm_specs(name: str) -> Tuple[Optional[Callable[[], Any]], ...]:
    """Node-spec factories whose device profiles the experiment needs.

    ``None`` stands for the default testbed node.
    """
    return (None,) + _get(name).extra_specs


def run_experiment(name: str, fast: bool = True) -> ExperimentResult:
    exp = _get(name)
    payloads = [exp.run_unit(key, fast) for key in exp.units(fast)]
    return exp.merge(fast, payloads)


def _composed(name: str) -> Callable[..., ExperimentResult]:
    def fn(fast: bool = True) -> ExperimentResult:
        return run_experiment(name, fast=fast)

    fn.__name__ = name
    fn.__qualname__ = name
    fn.__doc__ = REGISTRY[name].describe
    return fn


#: Serial entry points for the decomposed sweep experiments (the
#: single-unit experiments keep their hand-written functions above).
fig3 = _composed("fig3")
fig4 = _composed("fig4")
fig5 = _composed("fig5")
fig6 = _composed("fig6")
fig7 = _composed("fig7")
fig8 = _composed("fig8")
fig9 = _composed("fig9")
ablations = _composed("ablations")
robustness = _composed("robustness")
predicted_vs_profiled = _composed("predicted_vs_profiled")
cluster = _composed("cluster")
baselines = _composed("baselines")

#: Backwards-compatible name → (callable, description) view of REGISTRY.
EXPERIMENTS: Dict[str, Tuple[Callable[..., ExperimentResult], str]] = {
    name: (globals()[name], exp.describe) for name, exp in REGISTRY.items()
}

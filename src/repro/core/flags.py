"""Interpretation of scheduling flags and runtime configuration.

Two layers of knobs, mirroring the paper:

* **Per-queue** :class:`ScheduleOptions`, derived from the queue's
  ``SCHED_*`` bitfield: static vs dynamic scheduling, trigger granularity,
  and workload hints (compute/memory/IO bound, iterative).  The
  ``SCHED_COMPUTE_BOUND`` hint is what turns on minikernel profiling
  (Section V.C.2).
* **Per-context** :class:`SchedulerConfig`, the runtime-level switches the
  evaluation ablates: data caching (Fig. 7), kernel-profile caching,
  minikernel profiling (Fig. 8), per-kernel vs per-epoch trigger frequency,
  and the iterative re-profiling frequency (the "program environment flag"
  of Section V.C.1).  Defaults are the paper's recommended settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro import knobs
from repro.ocl.enums import SchedFlag

__all__ = [
    "ScheduleOptions",
    "SchedulerConfig",
    "CONFIG_PROPERTY_KEY",
    "ITERATIVE_FREQ_ENV",
]

#: SchedFlag value -> the (frozen) options instance it denotes.
_OPTIONS_MEMO: dict = {}

#: Key under which a :class:`SchedulerConfig` may be passed in the context
#: properties dict (alongside CL_CONTEXT_SCHEDULER).
CONFIG_PROPERTY_KEY = "multicl.config"

#: Environment variable for the iterative re-profiling frequency
#: ("the user can set a program environment flag to denote the iterative
#: scheduler frequency", Section V.C.1).  0 = never re-profile.
ITERATIVE_FREQ_ENV = "MULTICL_ITERATIVE_FREQUENCY"

#: SchedulerConfig field -> the :mod:`repro.knobs` row it is read from.
#: Each knob's table default equals the field's default, except that
#: ``overlap`` and ``sanitize`` default to None (defer to the environment).
_ENV_FIELDS = {
    "iterative_refresh": ITERATIVE_FREQ_ENV,
    "predict": "MULTICL_PREDICT",
    "predict_tolerance": "MULTICL_PREDICT_TOLERANCE",
    "predict_confidence": "MULTICL_PREDICT_CONFIDENCE",
    "mapper_repair": "MULTICL_MAPPER_REPAIR",
    "repair_threshold": "MULTICL_MAPPER_REPAIR_THRESHOLD",
    "split": "MULTICL_SPLIT",
    "split_granularity": "MULTICL_SPLIT_GRANULARITY",
    "overlap": "MULTICL_OVERLAP",
    "sanitize": "MULTICL_SANITIZE",
}


@dataclass(frozen=True)
class SchedulerConfig:
    """Context-wide runtime switches (ablation knobs)."""

    #: Section V.C.3: stage profiling inputs via one D2H + (n-1) H2D and keep
    #: the staged copies resident.  Off = brute-force per-device D2D staging
    #: whose copies are discarded.
    data_caching: bool = True
    #: Section V.C.1: cache kernel and kernel-epoch profiles in memory.
    profile_caching: bool = True
    #: Section V.C.2: honour SCHED_COMPUTE_BOUND by minikernel-profiling.
    #: Off = always run full kernels during profiling (Fig. 8 baseline).
    allow_minikernel: bool = True
    #: Trigger the scheduler per individual kernel instead of per epoch
    #: (the high-overhead alternative discussed in Section V.A).
    per_kernel_trigger: bool = False
    #: Re-measure kernel profiles every N scheduler triggers (0 = never).
    iterative_refresh: int = 0
    #: Simulated host cost of one mapping computation (dynamic programming
    #: over the queue pool); "negligible because the number of devices in
    #: present-day nodes is not high".
    mapping_host_seconds: float = 20e-6
    #: Relative noise injected into kernel-profiling measurements
    #: (deterministic per kernel/device).  0 = exact.  Used by the
    #: robustness ablation: how wrong can measurements be before the
    #: mapper starts mispicking devices?
    measurement_noise: float = 0.0
    #: Consult the static-feature predictor (:mod:`repro.predict`) before
    #: measuring: kernels whose predicted confidence clears the threshold
    #: are scheduled with zero profiling launches.  Off by default — the
    #: paper's figures are defined against measured profiles.
    predict: bool = False
    #: Corrector-loop tolerance: when a kernel *is* measured (decline or
    #: iterative refresh) and the prediction's relative error exceeds this,
    #: the observation is folded back into the model.
    predict_tolerance: float = 0.25
    #: Minimum leverage-gated confidence required to skip measurement.
    predict_confidence: float = 0.5
    #: Directory holding fitted predictor models ("" = resolve from
    #: ``MULTICL_PREDICT_DIR``, else the profile cache directory).
    predict_dir: str = ""
    #: Repair the existing queue→device assignment incrementally on device
    #: failure (and reuse it outright when nothing changed) instead of
    #: re-solving the whole pool (:mod:`repro.core.constraints`).
    mapper_repair: bool = True
    #: Accept a repair only while its makespan stays within this factor of
    #: the capacity-scaled previous makespan (>= 1.0).
    repair_threshold: float = 1.25
    #: Split every dynamically scheduled queue's kernel epochs across the
    #: active devices (context-wide ``SCHED_SPLIT``).  Off by default —
    #: splitting changes the issue plan, and individual queues opt in with
    #: the flag.
    split: bool = False
    #: Sub-range rounding granularity in units of the per-device effective
    #: workgroup size along dimension 0 (positive integer).
    split_granularity: int = 1
    #: Overlap-aware pool issue (:mod:`repro.ocl.issue`) for every
    #: scheduled in-order queue, as if each carried ``SCHED_OVERLAP``.
    #: None = ``MULTICL_OVERLAP`` decides when the context resolves this
    #: config.
    overlap: Optional[bool] = None
    #: Runtime sanitizer (:mod:`repro.analysis.sanitizer`) at every
    #: scheduler trigger.  None = ``MULTICL_SANITIZE`` decides when the
    #: context resolves this config.
    sanitize: Optional[bool] = None

    def with_(self, **kw) -> "SchedulerConfig":
        """Functional update helper."""
        return replace(self, **kw)

    @staticmethod
    def from_env() -> "SchedulerConfig":
        """The defaults, with every knob set in the environment applied."""
        return SchedulerConfig(
            **{attr: knobs.get(name) for attr, name in _ENV_FIELDS.items()}
        )

    def resolved(self) -> "SchedulerConfig":
        """This config with every switch left at None read from the
        environment (explicit values win)."""
        unset = {
            attr: knobs.get(name)
            for attr, name in _ENV_FIELDS.items()
            if getattr(self, attr) is None
        }
        return replace(self, **unset) if unset else self


@dataclass(frozen=True)
class ScheduleOptions:
    """Per-queue scheduling behaviour derived from its SCHED_* flags."""

    auto: bool = False
    dynamic: bool = False
    epoch_trigger: bool = False
    explicit_region: bool = False
    iterative: bool = False
    compute_bound: bool = False
    memory_bound: bool = False
    io_bound: bool = False
    split: bool = False
    overlap: bool = False

    @staticmethod
    def from_flags(flags: SchedFlag) -> "ScheduleOptions":
        # Memoised per flag value: the scheduler derives options for every
        # queue on every sync pass, and ScheduleOptions is frozen so the
        # shared instance is safe.
        key = flags.value
        cached = _OPTIONS_MEMO.get(key)
        if cached is not None:
            return cached
        options = ScheduleOptions(
            auto=flags.is_auto,
            dynamic=flags.is_dynamic,
            epoch_trigger=bool(flags & SchedFlag.SCHED_KERNEL_EPOCH),
            explicit_region=bool(flags & SchedFlag.SCHED_EXPLICIT_REGION),
            iterative=bool(flags & SchedFlag.SCHED_ITERATIVE),
            compute_bound=bool(flags & SchedFlag.SCHED_COMPUTE_BOUND),
            memory_bound=bool(flags & SchedFlag.SCHED_MEMORY_BOUND),
            io_bound=bool(flags & SchedFlag.SCHED_IO_BOUND),
            split=bool(flags & SchedFlag.SCHED_SPLIT),
            overlap=bool(flags & SchedFlag.SCHED_OVERLAP),
        )
        _OPTIONS_MEMO[key] = options
        return options

    @property
    def wants_minikernel(self) -> bool:
        """Compute-bound queues opt into minikernel profiling."""
        return self.compute_bound

    @property
    def is_static_mode(self) -> bool:
        """SCHED_AUTO_STATIC without SCHED_AUTO_DYNAMIC: hint-only placement.

        If both flags are set, dynamic wins (the more capable mode).
        """
        return self.auto and not self.dynamic

"""Runtime configuration of the scheduler.

Two layers of knobs, mirroring the paper:

* **Per-queue**: the queue's ``SCHED_*`` bitfield (:class:`SchedFlag`),
  read directly by its one reader each: the scheduler places
  ``SCHED_AUTO_STATIC``-only queues from hints (with ``SCHED_AUTO_DYNAMIC``
  also set, dynamic wins) and splits ``SCHED_SPLIT`` queues, and the
  kernel profiler turns ``SCHED_COMPUTE_BOUND`` into minikernel profiling
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

__all__ = [
    "SchedulerConfig",
    "CONFIG_PROPERTY_KEY",
    "ITERATIVE_FREQ_ENV",
]

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
    "split": "MULTICL_SPLIT",
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
    #: Split every dynamically scheduled queue's kernel epochs across the
    #: active devices (context-wide ``SCHED_SPLIT``).  Off by default —
    #: splitting changes the issue plan, and individual queues opt in with
    #: the flag.
    split: bool = False
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

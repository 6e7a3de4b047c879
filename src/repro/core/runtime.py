"""High-level MultiCL facade and run accounting.

The raw layers (:mod:`repro.ocl` + :mod:`repro.core.scheduler`) expose the
paper's API surface faithfully; this module adds the conveniences every
example, test and benchmark needs:

* :class:`MultiCL` — one object that builds a simulated platform, a context
  with the requested global policy, and command queues, and measures runs;
* :class:`RunStats` — a per-run accounting record derived from the engine
  trace: where virtual time went (application kernels vs profiling kernels
  vs data staging vs mapping), and how kernels were distributed over
  devices (the paper's Fig. 5 view).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.flags import CONFIG_PROPERTY_KEY, SchedulerConfig
from repro.hardware.specs import NodeSpec
from repro.ocl.context import Context
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.ocl.platform import Platform
from repro.ocl.queue import CommandQueue
from repro.sim.faults import FaultInjector, FaultPlan, FaultPolicy
from repro.sim.trace import FAULT_CATEGORY, RECOVERY_CATEGORY, Trace

__all__ = ["RunStats", "MultiCL"]

#: Trace categories that constitute scheduling overhead.
OVERHEAD_CATEGORIES = ("profile-kernel", "profile-transfer", "profile-join", "schedule")
#: Trace categories that constitute application work.
APP_CATEGORIES = ("kernel", "transfer", "migration")


@dataclass
class RunStats:
    """Accounting for one measured region of a simulated run."""

    duration: float
    #: total busy seconds per trace category
    by_category: Dict[str, float] = field(default_factory=dict)
    #: application kernel seconds per device resource
    kernel_seconds_by_device: Dict[str, float] = field(default_factory=dict)
    #: application kernel counts per device resource
    kernel_count_by_device: Dict[str, int] = field(default_factory=dict)
    #: queues moved to a different device by fault recovery
    remap_count: int = 0
    #: commands requeued and replayed after device failures
    replayed_commands: int = 0
    #: simulated seconds lost to faults and recovery (aborted partial
    #: executions, slowdown windows, replay backoff)
    downtime_seconds: float = 0.0
    #: mapping computations priced as a full pool solve ("device-map"
    #: intervals: fresh solves plus cached reuses of an identical solve,
    #: which deliberately record the same interval)
    mapper_solves: int = 0
    #: mapping computations satisfied by an accepted repair: a solve with
    #: the surviving bindings pinned (:mod:`repro.core.constraints`)
    mapper_repairs: int = 0

    @property
    def profiling_seconds(self) -> float:
        """Busy time attributable to the scheduler (not wall time)."""
        return sum(self.by_category.get(c, 0.0) for c in OVERHEAD_CATEGORIES)

    @property
    def profile_transfer_seconds(self) -> float:
        return self.by_category.get("profile-transfer", 0.0)

    @property
    def profile_kernel_seconds(self) -> float:
        return self.by_category.get("profile-kernel", 0.0)

    def kernel_distribution(self) -> Dict[str, float]:
        """Fraction of application kernels executed per device (Fig. 5)."""
        total = sum(self.kernel_count_by_device.values())
        if total == 0:
            return {}
        return {
            dev: n / total for dev, n in sorted(self.kernel_count_by_device.items())
        }

    @staticmethod
    def from_trace(trace: Trace, t0: float, t1: float) -> "RunStats":
        by_cat: Dict[str, float] = {}
        ksec: Dict[str, float] = {}
        kcnt: Dict[str, int] = {}
        remaps = 0
        replays = 0
        downtime = 0.0
        solves = 0
        repairs = 0
        for resource, task, category, start, end, meta in trace:
            # Clip every interval to [t0, t1) and credit only the in-window
            # seconds (mirrors utilization_report): an interval straddling
            # either edge contributes exactly its overlap, one entirely
            # outside contributes nothing.  Zero-duration instants (remap /
            # replay / failure markers) stay visible when they fall inside
            # the window.  The conditionals are min(end, t1) - max(start, t0)
            # without the builtin calls.
            overlap = (t1 if t1 < end else end) - (t0 if t0 > start else start)
            if overlap < 0.0 or (
                overlap == 0.0 and not (start == end and t0 <= start < t1)
            ):
                continue
            by_cat[category] = by_cat.get(category, 0.0) + overlap
            if category == "kernel" and resource.startswith("dev:"):
                dev = resource[4:]
                ksec[dev] = ksec.get(dev, 0.0) + overlap
                # Counts keep start-based ownership so a kernel straddling a
                # window boundary is counted in exactly one window.
                if t0 <= start < t1:
                    kcnt[dev] = kcnt.get(dev, 0) + 1
            elif category == FAULT_CATEGORY:
                downtime += overlap
            elif category == RECOVERY_CATEGORY:
                downtime += overlap
                if t0 <= start < t1:
                    op = meta.get("op")
                    if op == "remap":
                        remaps += 1
                    elif op == "replay":
                        replays += 1
            elif category == "schedule" and t0 <= start < t1:
                # Mapping-path split (start-based ownership, like kernel
                # counts): a full solve and an incremental repair charge the
                # same host seconds but record distinct interval names.
                if task == "device-map":
                    solves += 1
                elif task == "device-repair":
                    repairs += 1
        return RunStats(
            duration=t1 - t0,
            by_category=by_cat,
            kernel_seconds_by_device=ksec,
            kernel_count_by_device=kcnt,
            remap_count=remaps,
            replayed_commands=replays,
            downtime_seconds=downtime,
            mapper_solves=solves,
            mapper_repairs=repairs,
        )


class MultiCL:
    """Convenience wrapper: platform + context + measurement.

    Parameters
    ----------
    node_spec:
        Node to simulate (default: the paper's testbed).
    policy:
        Global scheduling policy, or ``None`` for a manual (stock OpenCL)
        context.
    config:
        Runtime :class:`~repro.core.flags.SchedulerConfig` (ablation knobs
        and mode switches).  ``None`` reads every knob from the environment
        (:meth:`SchedulerConfig.from_env`).
    profile_dir:
        Device-profile cache directory (tests pass a tmp dir).
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` armed on the context
        immediately (failures/slowdowns/outages at virtual timestamps).
    fault_policy:
        Recovery knobs (:class:`~repro.sim.faults.FaultPolicy`); defaults
        to three replay attempts with exponential backoff.
    sanitize:
        Opt-in runtime sanitizer (:mod:`repro.analysis`): validate the
        ready-queue pool at every scheduler trigger, raising
        :class:`~repro.analysis.findings.SanitizerError` on cycles, data
        races and orphaned events, and warning on stale reads.
    predict:
        Profiling-free scheduling from static kernel features
        (:mod:`repro.predict`).
    overlap:
        Overlap-aware pool issue (:mod:`repro.ocl.issue`): every
        scheduled in-order queue behaves as if it carried
        ``SCHED_OVERLAP``, and the platform models each link as two
        directional DMA engines.
    split:
        Multi-device kernel splitting (``SCHED_SPLIT`` for every
        dynamically scheduled queue).

    The four mode switches are fields of the one ``config``.  For each,
    ``True``/``False`` here wins; ``None`` (the default) keeps the
    ``config`` value, and without a ``config`` the ``MULTICL_SANITIZE``,
    ``MULTICL_PREDICT``, ``MULTICL_OVERLAP`` and ``MULTICL_SPLIT``
    environment variables decide.  A ``config`` that leaves ``sanitize``
    or ``overlap`` at ``None`` also defers those two to the environment.
    """

    def __init__(
        self,
        node_spec: Optional[NodeSpec] = None,
        policy: Optional[ContextScheduler] = None,
        config: Optional[SchedulerConfig] = None,
        profile_dir: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        sanitize: Optional[bool] = None,
        predict: Optional[bool] = None,
        overlap: Optional[bool] = None,
        split: Optional[bool] = None,
    ) -> None:
        switches = {
            name: bool(value)
            for name, value in (
                ("sanitize", sanitize),
                ("predict", predict),
                ("overlap", overlap),
                ("split", split),
            )
            if value is not None
        }
        if switches:
            config = (config or SchedulerConfig.from_env()).with_(**switches)
        self.platform = Platform(
            node_spec,
            profile=True,
            profile_dir=profile_dir,
            duplex_links=config.overlap if config is not None else None,
        )
        properties: Dict = {}
        if policy is not None:
            properties[ContextProperty.CL_CONTEXT_SCHEDULER] = policy
        if config is not None:
            properties[CONFIG_PROPERTY_KEY] = config
        self.context: Context = self.platform.create_context(properties=properties)
        self.fault_policy = fault_policy
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None:
            self.inject_faults(fault_plan, fault_policy)

    # ------------------------------------------------------------------
    # Object helpers
    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self.platform.engine

    @property
    def now(self) -> float:
        return self.platform.engine.now

    @property
    def device_names(self) -> Sequence[str]:
        return self.context.device_names

    def queue(
        self,
        device: Optional[str] = None,
        flags: SchedFlag = SchedFlag.SCHED_OFF,
        name: Optional[str] = None,
    ) -> CommandQueue:
        return self.context.create_queue(device, flags, name=name)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_faults(
        self, plan: FaultPlan, policy: Optional[FaultPolicy] = None
    ) -> FaultInjector:
        """Arm ``plan`` on this runtime; events fire as virtual time passes.

        Reuses one injector across calls so failure/replay/remap counters
        accumulate over the whole run.  A re-arm passing a different
        ``policy`` switches the existing injector to it (the new knobs
        govern recovery from that point on) and warns, so a conflicting
        policy is never silently dropped.
        """
        if self.injector is None:
            self.injector = FaultInjector(
                self.context, policy or self.fault_policy
            )
        elif policy is not None and policy != self.injector.policy:
            import warnings

            warnings.warn(
                f"inject_faults re-armed with a different FaultPolicy; "
                f"replacing {self.injector.policy} with {policy} for all "
                f"subsequent recoveries",
                RuntimeWarning,
                stacklevel=2,
            )
            self.injector.policy = policy
        self.injector.arm(plan)
        return self.injector

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, fn: Callable[[], None]) -> RunStats:
        """Run ``fn`` (which should end fully synchronised) and account the
        simulated time it spanned."""
        t0 = self.now
        fn()
        self.context.finish_all()
        t1 = self.now
        return RunStats.from_trace(self.engine.trace, t0, t1)

    def stats_between(self, t0: float, t1: float) -> RunStats:
        return RunStats.from_trace(self.engine.trace, t0, t1)

    def scheduler_mappings(self) -> List[Dict[str, str]]:
        """Device mappings chosen at each scheduler trigger."""
        sched = self.context.scheduler
        history = getattr(sched, "mapping_history", None)
        return list(history) if history else []

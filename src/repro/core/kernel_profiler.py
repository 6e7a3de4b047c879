"""Dynamic kernel profiler (paper Sections V.A and V.C).

"Kernel execution times can be estimated by performance modeling or
performance projection techniques, but these approaches either are done
offline or are impractical ... We follow a more practical approach in that
we run the kernels once per device and store the corresponding execution
times as part of the kernel profile."

At a scheduler trigger the profiler receives one queue's batch of deferred
commands (a *kernel epoch*) and produces a per-device execution-time vector
by actually running the kernels on every candidate device — concurrently
across devices, serially within one device — after staging their input data
(:mod:`repro.core.data_cache`).  Every simulated second spent here is real
runtime overhead the evaluation measures.

Overhead mitigation, matching the paper:

* **Profile caching** (Section V.C.1): kernel profiles are cached in memory
  keyed by kernel identity, and whole epoch profiles are cached keyed by
  the participating kernel set, so iterative workloads pay only for their
  first iteration.  An iterative-refresh frequency can force re-profiling.
* **Minikernel profiling** (Section V.C.2): for compute-bound queues the
  profiler launches the transformed minikernel — same launch configuration,
  only workgroup 0 does work — and scales the single-workgroup measurement
  by the workgroup count to estimate the full-kernel time.  Only relative
  performance matters for device selection, and the estimate preserves it.
* **Data caching** (Section V.C.3): see :mod:`repro.core.data_cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.data_cache import StagingPlan, stage_inputs
from repro.core.flags import ScheduleOptions, SchedulerConfig
from repro.lru import BoundedLRU
from repro.ocl.memory import Buffer
from repro.ocl.queue import Command

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.queue import CommandQueue

__all__ = ["KernelProfiler", "ProfilerStats", "EpochProfile"]

#: Trace category for profiling kernel launches (Fig. 8 measures this).
PROFILE_KERNEL = "profile-kernel"

#: Cache key of one kernel launch: (kernel name, total work items).
KernelKey = Tuple[str, int]
#: Cache key of an epoch: the ordered tuple of kernel keys.
EpochKey = Tuple[KernelKey, ...]

#: Epoch profiles kept (least recently used dropped beyond this).  Service
#: pools never repeat, so an unbounded cache would grow for the whole run;
#: an evicted epoch re-sums from the kernel cache in the same order.
EPOCH_CACHE_SIZE = 256


@dataclass
class ProfilerStats:
    """Counters for tests and the evaluation harness."""

    kernels_measured: int = 0
    kernel_cache_hits: int = 0
    epoch_cache_hits: int = 0
    profiling_runs: int = 0
    bytes_staged: int = 0
    staging_operations: int = 0
    refreshes: int = 0
    #: cached per-device measurements dropped after device failures
    invalidations: int = 0
    #: per-device entries filled by the static-feature predictor instead of
    #: a profiling launch (zero measured seconds charged)
    kernels_predicted: int = 0
    #: kernels the predictor declined (low confidence / custom cost model),
    #: falling back to measurement
    predict_declines: int = 0


@dataclass
class EpochProfile:
    """Per-device estimated execution seconds for one epoch."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def best_device(self) -> str:
        return min(self.seconds, key=lambda d: self.seconds[d])


class KernelProfiler:
    """Measures and caches per-device kernel/epoch execution profiles."""

    def __init__(self, context: "Context", config: SchedulerConfig) -> None:
        self.context = context
        self.config = config
        self.kernel_cache: Dict[KernelKey, Dict[str, float]] = {}
        self.epoch_cache: BoundedLRU[EpochKey, Dict[str, float]] = BoundedLRU(
            EPOCH_CACHE_SIZE
        )
        self.stats = ProfilerStats()
        #: one shared tuple per distinct kernel key (see epoch_key)
        self._keys: Dict[KernelKey, KernelKey] = {}
        self._trigger_count = 0
        #: static-feature predictor (:class:`repro.predict.Predictor`),
        #: attached by the scheduler when ``config.predict`` is set.  When
        #: present, confidently predicted kernels skip measurement entirely
        #: and every real measurement is fed back as a correction.
        self.predictor = None

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    @staticmethod
    def kernel_key(cmd: Command) -> KernelKey:
        assert cmd.kernel is not None and cmd.launch is not None
        return (cmd.kernel.name, cmd.launch.work_items)

    def epoch_key(self, kernel_cmds: Sequence[Command]) -> EpochKey:
        """Each command's kernel key, in order; equal keys share one tuple,
        so the epoch cache holds one pointer per command, not a key."""
        intern = self._keys.setdefault
        return tuple([intern(k, k) for k in map(self.kernel_key, kernel_cmds)])

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------
    def profile_epoch(
        self,
        queue: "CommandQueue",
        commands: Sequence[Command],
        options: ScheduleOptions,
    ) -> EpochProfile:
        """Produce the per-device time vector for a queue's pending epoch.

        Cache hits are free; misses run profiling launches on the simulated
        devices and charge their time to the shared clock.
        """
        self._trigger_count += 1
        refreshed = False
        if (
            self.config.iterative_refresh
            and self._trigger_count % self.config.iterative_refresh == 0
        ):
            # Periodic re-profiling for phase-changing iterative kernels.
            self.kernel_cache.clear()
            self.epoch_cache.clear()
            self.stats.refreshes += 1
            refreshed = True

        kernel_cmds = [c for c in commands if c.is_kernel]
        devices = list(self.context.active_device_names)
        if not kernel_cmds:
            return EpochProfile({d: 0.0 for d in devices})

        # Each command's key, computed once: the epoch key is their tuple.
        ekey = self.epoch_key(kernel_cmds)
        caching = self.config.profile_caching
        cached = self.epoch_cache.get(ekey) if caching else None
        if cached is not None:
            self.stats.epoch_cache_hits += 1
            return EpochProfile(dict(cached))

        missing: List[Command] = []
        missing_keys: Dict[KernelKey, None] = {}
        for cmd, kkey in zip(kernel_cmds, ekey):
            if caching and kkey in self.kernel_cache:
                self.stats.kernel_cache_hits += 1
                continue
            if kkey in missing_keys:
                continue
            # Predict-first gate: a confidently predicted kernel never runs
            # a profiling launch.  Refresh epochs deliberately skip the
            # gate — their whole point is fresh measurements, which then
            # flow through observe() as corrections to the model.
            if self.predictor is not None and not refreshed:
                predicted = self.predictor.predict_command(cmd, devices)
                if predicted is not None:
                    self.kernel_cache[kkey] = predicted
                    self.stats.kernels_predicted += len(predicted)
                    continue
                self.stats.predict_declines += 1
            missing.append(cmd)
            missing_keys[kkey] = None

        if missing:
            self._measure(missing, list(missing_keys), devices, options)

        seconds = {d: 0.0 for d in devices}
        for kkey in ekey:
            per_dev = self.kernel_cache[kkey]
            for d in devices:
                # A device can fail *inside* _measure (the profiling launches
                # advance the clock); a missing column means "never ran here".
                seconds[d] += per_dev.get(d, math.inf)
        if caching:
            self.epoch_cache.put(ekey, dict(seconds))
        return EpochProfile(seconds)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def invalidate_device(self, device: str) -> int:
        """Drop every cached measurement taken on failed ``device``.

        Columns for surviving devices stay valid — a kernel's cost on gpu0
        does not change because gpu1 died — so iterative workloads keep
        their cache warm through a failure.  Returns the number of cache
        entries touched, including residual/correction records dropped from
        the attached predictor (if any).
        """
        removed = 0
        for per_dev in self.kernel_cache.values():
            if device in per_dev:
                del per_dev[device]
                removed += 1
        for _, per_dev in self.epoch_cache.items():
            if device in per_dev:
                del per_dev[device]
                removed += 1
        if self.predictor is not None:
            # Propagate to the attached predictor: the failed device's
            # residuals and online corrections must not poison re-fits
            # after recovery.
            removed += self.predictor.invalidate_device(device)
        self.stats.invalidations += removed
        return removed

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _measure(
        self,
        cmds: Sequence[Command],
        keys: Sequence[KernelKey],
        devices: Sequence[str],
        options: ScheduleOptions,
    ) -> None:
        """Run ``cmds`` (their kernel keys ``keys``) on every device,
        concurrently across devices."""
        platform = self.context.platform
        node, engine = platform.node, platform.engine
        use_mini = self._use_minikernel(cmds, options)

        plan = self._stage(cmds, devices)
        all_tasks = []
        measurements: Dict[Tuple[KernelKey, str], Tuple[float, int]] = {}
        for dev_name in devices:
            device = node.device(dev_name)
            prev = plan.deps_for(dev_name)
            for cmd, kkey in zip(cmds, keys):
                kernel, launch = cmd.kernel, cmd.launch
                assert kernel is not None and launch is not None
                cost = kernel.launch_cost(device.spec, launch)
                config = kernel.effective_config(dev_name, launch)
                task = device.submit_kernel(
                    name=f"prof:{kernel.name}",
                    cost=cost,
                    deps=prev,
                    category=PROFILE_KERNEL,
                    minikernel=use_mini,
                    meta={"profiled_for": dev_name},
                )
                prev = [task]
                all_tasks.append(task)
                measurements[(kkey, dev_name)] = (
                    task.duration,
                    config.num_workgroups,
                )
        # The host blocks until every device finished its profiling chain.
        join = engine.task(
            "profile-join", 0.0, deps=all_tasks, category="profile-join"
        )
        engine.run_until(join)
        self.stats.profiling_runs += 1
        self.stats.kernels_measured += len(cmds) * len(devices)

        launch_overheads = platform.device_profile.launch_overhead_s
        for cmd, kkey in zip(cmds, keys):
            per_dev: Dict[str, float] = {}
            for dev_name in devices:
                t, groups = measurements[(kkey, dev_name)]
                t *= self._noise_factor(kkey, dev_name)
                if use_mini:
                    # A minikernel measurement is launch overhead plus one
                    # workgroup's share of the body.  Subtract the measured
                    # per-launch fixed cost (static device profile) before
                    # scaling by the workgroup count, else devices with
                    # expensive launches look groups× worse than they are.
                    overhead = launch_overheads.get(dev_name, 0.0)
                    body = max(t - overhead, 0.0)
                    per_dev[dev_name] = body * groups + overhead
                else:
                    per_dev[dev_name] = t
            self.kernel_cache[kkey] = per_dev
            if self.predictor is not None:
                # Corrector loop: every real measurement is compared against
                # the prediction; a residual above the tolerance re-fits the
                # model online (the dynamic profiler stays the corrector).
                for dev_name in devices:
                    self.predictor.observe(cmd, dev_name, per_dev[dev_name])

    def _noise_factor(self, kkey: KernelKey, device: str) -> float:
        """Deterministic measurement perturbation (robustness ablation)."""
        noise = self.config.measurement_noise
        if noise <= 0.0:
            return 1.0
        import hashlib

        digest = hashlib.sha256(f"{kkey}:{device}".encode()).digest()
        # Uniform in [-1, 1) from the first 8 digest bytes.
        u = int.from_bytes(digest[:8], "big") / float(1 << 64) * 2.0 - 1.0
        return max(1.0 + noise * u, 1e-3)

    def _use_minikernel(
        self, cmds: Sequence[Command], options: ScheduleOptions
    ) -> bool:
        if not (self.config.allow_minikernel and options.wants_minikernel):
            return False
        # Minikernel profiling requires the transformed source, built at
        # clBuildProgram time (Section V.C.2 — "requires access to the
        # kernel source").
        return all(
            c.kernel is not None
            and c.kernel.program.minikernel_source is not None
            for c in cmds
        )

    def _stage(self, cmds: Sequence[Command], devices: Sequence[str]) -> StagingPlan:
        buffers: List[Buffer] = []
        for cmd in cmds:
            for v in cmd.args_snapshot.values():
                if isinstance(v, Buffer):
                    buffers.append(v)
        plan = stage_inputs(
            self.context.platform.node,
            buffers,
            devices,
            caching=self.config.data_caching,
        )
        self.stats.bytes_staged += plan.bytes_moved
        self.stats.staging_operations += plan.operations
        return plan

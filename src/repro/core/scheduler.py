"""Global scheduling policies: ROUND_ROBIN and AUTO_FIT (paper Section IV.A).

Both policies operate on the *ready-queue pool* — the automatically
scheduled queues holding deferred commands at a synchronization trigger —
and leave every pooled queue bound to a device with its commands issued.

* :class:`RoundRobinScheduler` assigns queues to the next available device
  cyclically.  "This approach is expected to cause the least overhead but
  not always produce the optimal queue-device map."  Device enumeration
  follows SnuCL's platform order, accelerators first — which is why the
  paper's round-robin splits the two FDM-Seismology queues across the two
  GPUs.
* :class:`AutoFitScheduler` "decides the most optimal queue-device mapping
  when the scheduler is triggered": dynamic queues are profiled
  (:mod:`repro.core.kernel_profiler`), their aggregate cost combined with
  data-transfer estimates derived from the static device profiles, and the
  pool is mapped by the exact makespan minimiser
  (:mod:`repro.core.device_mapper`).  Static queues (``SCHED_AUTO_STATIC``)
  skip kernel profiling entirely and are placed from the device profiles
  and the queue's workload hints alone (Section V.B).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.constraints import repair_mapping
from repro.core.device_mapper import MapperError, MappingResult, optimal_mapping
from repro.core.flags import ScheduleOptions
from repro.core.kernel_profiler import KernelProfiler
from repro.core.minikernel import transform_program
from repro.core.split import plan_split
from repro.hardware.specs import DeviceKind
from repro.ocl.enums import ContextScheduler
from repro.ocl.memory import HOST, Buffer
from repro.ocl.scheduling import SchedulerBase, register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.program import Program
    from repro.ocl.queue import Command, CommandQueue

__all__ = [
    "RoundRobinScheduler",
    "AutoFitScheduler",
    "trigger_pool",
    "MAPPING_HOST_SECONDS",
]

#: Simulated host cost of one mapping computation (dynamic programming over
#: the queue pool); "negligible because the number of devices in
#: present-day nodes is not high".
MAPPING_HOST_SECONDS = 20e-6


def _snucl_device_order(context: "Context") -> List[str]:
    """Device enumeration order: accelerators/GPUs first, CPUs last.

    Failed devices are excluded — schedulers only ever map to the active
    (degraded) pool.
    """
    node = context.platform.node
    rank = {DeviceKind.ACCELERATOR: 0, DeviceKind.GPU: 0, DeviceKind.CPU: 1}
    names = list(context.active_device_names)
    # Stable sort on kind rank alone preserves platform order within each
    # rank (the seed's names.index(n) tie-break was an accidental O(n^2)).
    pos = {n: i for i, n in enumerate(names)}
    return sorted(names, key=lambda n: (rank[node.device(n).spec.kind], pos[n]))


def trigger_pool(queue: "CommandQueue") -> List["CommandQueue"]:
    """The pool of a per-kernel trigger on ``queue``: the queue itself,
    then every queue holding a transitive deferred producer of its
    pending commands (a wait on a deferred command of another queue can
    only issue once that queue is pooled too)."""
    pool = [queue]
    seen = {id(queue)}
    for q in pool:  # grows while iterating
        for cmd in q.pending:
            for event in cmd.wait_events:
                if event.deferred and id(event.queue) not in seen:
                    seen.add(id(event.queue))
                    pool.append(event.queue)
    return pool


class MultiCLSchedulerBase(SchedulerBase):
    """Shared machinery: the context's config, minikernel build hook,
    history."""

    def __init__(self, context: "Context") -> None:
        super().__init__(context)
        self.config = context.config
        self.profiler = KernelProfiler(context, self.config)
        if self.config.predict:
            # Profiling-free scheduling from static kernel features: the
            # profiler consults the predictor before measuring anything.
            # Imported lazily — repro.predict sits above repro.core in the
            # layering, and the predictor is opt-in.
            from repro.predict import attach_predictor

            attach_predictor(self.profiler)
        #: One entry per trigger: {queue name: device name}.
        self.mapping_history: List[Dict[str, str]] = []
        #: Mapping-path counters (AUTO_FIT; zero under ROUND_ROBIN): full
        #: pool solves, incremental repairs, and unchanged-input reuses.
        self.mapper_solves = 0
        self.mapper_repairs = 0
        self.mapper_reuses = 0
        #: Most recent MappingResult, so fault-recovery accounting can tag
        #: remaps with whether a repair or a re-solve produced them.
        self.last_mapping: Optional[MappingResult] = None
        #: ((queue names, devices), cost, preferred, result) of the last
        #: dynamic solve — the inputs the repair/reuse paths diff against.
        self._mapper_state: Optional[
            Tuple[
                Tuple[Tuple[str, ...], Tuple[str, ...]],
                Dict[str, Dict[str, float]],
                Dict[str, str],
                MappingResult,
            ]
        ] = None
        #: SnuCL device order memoised per active-device tuple: the pool
        #: only changes on fission or device failure, while high-frequency
        #: drivers (service replay) trigger the scheduler every epoch.
        self._device_order_cache: Dict[Tuple[str, ...], List[str]] = {}

    def device_order(self) -> List[str]:
        """Cached :func:`_snucl_device_order` for the current active pool.

        The returned list is shared with the cache — callers must treat it
        as read-only.
        """
        key = tuple(self.context.active_device_names)
        order = self._device_order_cache.get(key)
        if order is None:
            order = _snucl_device_order(self.context)
            self._device_order_cache[key] = order
        return order

    # -- static kernel transformation (clBuildProgram hook) ---------------
    def on_program_build(self, program: "Program") -> None:
        if not self.config.allow_minikernel:
            return
        src, infos = transform_program(program.source)
        program.minikernel_source = src
        program.minikernel_infos = infos

    # -- per-kernel trigger mode ------------------------------------------
    def on_enqueue(self, queue: "CommandQueue", command: "Command") -> None:
        if self.config.per_kernel_trigger and command.is_kernel:
            # High-frequency mode: schedule immediately on every kernel
            # (the costly alternative discussed in Section V.A).  This
            # bypasses Context._sync_pending, so the arbitration and
            # sanitizer hooks run here to keep "every scheduler trigger"
            # covered — in service mode the per-kernel trigger is still a
            # fair-share arbitration point.
            pool = trigger_pool(queue)
            arbiter = self.context.arbiter
            if arbiter is not None:
                arbiter.on_trigger(self.context, pool, queue)
            else:
                self.dispatch(pool, trigger_queue=queue)

    # -- arbitration hook ---------------------------------------------------
    def dispatch(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        """Map and issue one ready pool on behalf of an external arbiter.

        This is the multi-tenant service entry point: the arbiter decides
        *when* a tenant's pool runs; the tenant's own policy decides *where*
        (the usual AUTO_FIT / ROUND_ROBIN mapping).  The sanitizer hook runs
        here so arbitrated dispatches stay covered.
        """
        self.context._sanitize_check(pool)
        self.on_sync(pool, trigger_queue)

    # -- fault handling ----------------------------------------------------
    def on_device_failure(self, device: str) -> None:
        """Kernel/epoch profiles measured on ``device`` are dead weight;
        drop them so degraded-pool mapping never consults the failure."""
        self.profiler.invalidate_device(device)

    def on_device_slowdown(self, device: str) -> None:
        """A transient slowdown began: measurements taken on ``device``
        from now on do not reflect its fitted performance model.  Only the
        predictor's learned runtime state is dropped — measured kernel
        profiles stay valid for mapping (the slowdown is real observed
        time), and non-predicting runs are untouched."""
        predictor = getattr(self.profiler, "predictor", None)
        if predictor is not None:
            predictor.invalidate_device(device)

    def on_device_recovery(self, device: str) -> None:
        """The slowdown cleared: drop residuals/corrections learned during
        the window and re-arm the predictor, so its corrector re-anchors on
        the first healthy measurement instead of keeping slowdown-era
        re-fits forever."""
        predictor = getattr(self.profiler, "predictor", None)
        if predictor is not None:
            predictor.invalidate_device(device)

    # -- helpers -----------------------------------------------------------
    def _active_devices(self) -> List[str]:
        devices = list(self.context.active_device_names)
        if not devices:
            raise MapperError("no feasible device remains (all failed)")
        return devices

    def _record(self, pool: Sequence["CommandQueue"]) -> None:
        self.mapping_history.append({q.name: q.device for q in pool})


class RoundRobinScheduler(MultiCLSchedulerBase):
    """Cyclic queue→device assignment; zero profiling overhead."""

    def __init__(self, context: "Context") -> None:
        super().__init__(context)
        self._cursor = 0
        self._assigned: Dict[int, str] = {}

    def on_sync(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        order = self.device_order()
        if not order:
            raise MapperError("no feasible device remains (all failed)")
        for q in sorted(pool, key=lambda q: q.id):
            # Each queue gets the next available device once; later triggers
            # keep the binding (re-assigning every epoch would thrash data
            # across devices, which round-robin cannot reason about).
            # A binding to a since-failed device is reassigned cyclically.
            dev = self._assigned.get(q.id)
            if dev is None or dev not in order:
                dev = order[self._cursor % len(order)]
                self._assigned[q.id] = dev
                self._cursor += 1
            q.rebind(dev)
        self._record(pool)
        self.context.issue_pool(pool)

    def on_device_failure(self, device: str) -> None:
        super().on_device_failure(device)
        self._assigned = {
            qid: d for qid, d in self._assigned.items() if d != device
        }


class AutoFitScheduler(MultiCLSchedulerBase):
    """Profile-driven optimal mapping of the ready-queue pool."""

    def on_sync(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        pool = sorted(pool, key=lambda q: q.id)
        static_qs = [
            q for q in pool if ScheduleOptions.from_flags(q.sched_flags).is_static_mode
        ]
        static_ids = {id(q) for q in static_qs}
        dynamic_qs = [q for q in pool if id(q) not in static_ids]
        if static_qs:
            self._map_static(static_qs)
        if dynamic_qs:
            self._map_dynamic(dynamic_qs)
        self._record(pool)
        self.context.issue_pool(pool)

    # ------------------------------------------------------------------
    # Static mapping: device profiles + hints only (Section V.B)
    # ------------------------------------------------------------------
    def _map_static(self, queues: Sequence["CommandQueue"]) -> None:
        profile = self.context.platform.device_profile
        devices = self._active_devices()
        loads: Dict[str, float] = {d: 0.0 for d in devices}
        # Tie-break on position within the *active* (degraded) pool, not the
        # full context pool: indexing the full pool made tie-breaks depend
        # on where failed devices used to sit.  Hoisted out of the min key —
        # the repeated list.index() calls were O(D) each.
        pos = {d: i for i, d in enumerate(devices)}
        for q in queues:
            options = ScheduleOptions.from_flags(q.sched_flags)
            scores = self._hint_scores(options, profile, devices)
            # Greedy balance: unit work 1/score; pick the device finishing
            # this queue earliest.
            best = min(
                scores,
                key=lambda d: (loads[d] + 1.0 / scores[d], pos[d]),
            )
            loads[best] += 1.0 / scores[best]
            q.rebind(best)

    def _hint_scores(
        self, options: ScheduleOptions, profile, devices: Sequence[str]
    ) -> Dict[str, float]:
        if options.io_bound:
            return {d: 1.0 / max(profile.h2d_seconds(d, 1 << 20), 1e-12) for d in devices}
        if options.memory_bound:
            return {d: profile.bandwidth_gbs[d] for d in devices}
        # compute_bound, or no hint: instruction throughput is the criterion.
        return {d: profile.gflops[d] for d in devices}

    # ------------------------------------------------------------------
    # Dynamic mapping: kernel profiling + exact mapper (Section V.C)
    # ------------------------------------------------------------------
    def _map_dynamic(self, queues: Sequence["CommandQueue"]) -> None:
        platform = self.context.platform
        profile = platform.device_profile
        epochs: Dict[str, "EpochProfile"] = {}
        for q in queues:
            options = ScheduleOptions.from_flags(q.sched_flags)
            epochs[q.name] = self.profiler.profile_epoch(q, q.pending, options)
        while True:
            # Profiling advances the virtual clock, so a device may have
            # failed *during* this pass (fault injection): map over the
            # devices active now, treating any device without a measurement
            # as infeasible.
            mapping, split, interval_name = self._place_dynamic(
                queues, epochs, self._active_devices(), profile
            )
            # The mapping computation itself is host work (Section V.A: the
            # DP "incurs negligible overhead").  Repair and reuse are
            # charged the same host interval as a solve so virtual time
            # stays bit-identical whichever path produced the mapping.
            platform.engine.elapse(
                MAPPING_HOST_SECONDS, category="schedule", name=interval_name
            )
            # A device that failed during that step leaves the fresh
            # placement pointing at it: place again over the survivors
            # (the repair path handles the smaller pool).
            used = set(mapping.values())
            for q in split:
                used.add(q.device)
                for cmd in q.pending:
                    if cmd.split_plan is not None:
                        used.update(cmd.split_plan.devices)
            if all(platform.is_available(d) for d in used):
                break
            for q in split:
                for cmd in q.pending:
                    cmd.split_plan = None
        for q in queues:
            if q.name in mapping:
                q.rebind(mapping[q.name])

    def _place_dynamic(
        self,
        queues: Sequence["CommandQueue"],
        epochs: Dict[str, "EpochProfile"],
        devices: List[str],
        profile,
    ) -> Tuple[Dict[str, str], List["CommandQueue"], str]:
        """Place ``queues`` on ``devices``: split plans first, then one
        mapping of the rest.  Returns (queue name → device for the mapped
        queues, the split queues, the mapping step's trace interval name).
        Split queues are rebound here; mapped queues are left to the
        caller."""
        # Work-splitting (SCHED_SPLIT / config.split): a split queue's kernel
        # epoch is partitioned across devices instead of mapped to one, so it
        # leaves the cost matrix entirely.  Guarded by a cheap any() — the
        # default path never pays for the option.
        split: List["CommandQueue"] = []
        if self.config.split or any(
            ScheduleOptions.from_flags(q.sched_flags).split for q in queues
        ):
            split = [
                q
                for q in queues
                if (
                    self.config.split
                    or ScheduleOptions.from_flags(q.sched_flags).split
                )
                and self._plan_split_epoch(q, epochs[q.name])
            ]
            if split:
                split_ids = {id(q) for q in split}
                queues = [q for q in queues if id(q) not in split_ids]
                if not queues:
                    # The whole pool splits: the mapping step is the
                    # partition computation, and the solver is skipped.
                    return {}, split, "device-map"
        cost: Dict[str, Dict[str, float]] = {}
        for q in queues:
            # One epoch-buffer walk per queue for the whole sync pass; the
            # seed recomputed it for every (queue, device) pair through both
            # _fits and _transfer_estimate.
            bufs = self._epoch_buffers(q)
            row: Dict[str, float] = {}
            for d in devices:
                if not self._fits(q, d, bufs):
                    row[d] = math.inf
                    continue
                seconds = epochs[q.name].seconds.get(d, math.inf)
                row[d] = seconds + self._transfer_estimate(q, d, profile, bufs)
            cost[q.name] = row
        preferred = {q.name: q.device for q in queues}
        names = [q.name for q in queues]
        result, interval_name = self._solve_mapping(names, devices, cost, preferred)
        return result.mapping, split, interval_name

    def _solve_mapping(
        self,
        names: List[str],
        devices: Sequence[str],
        cost: Dict[str, Dict[str, float]],
        preferred: Dict[str, str],
    ) -> Tuple[MappingResult, str]:
        """Pick the cheapest correct mapping path: reuse, repair, or solve.

        The previous trigger's inputs and result are memoised.  Identical
        inputs return the cached result of the same pure solve
        (bit-identical by construction).  A shrunk device pool over a
        surviving queue subset — the fault signature — goes through
        :func:`repair_mapping`, which migrates only orphaned queues when
        that stays within the quality gate and otherwise falls back to a
        full solve.  Any other change re-solves from scratch.
        """
        key = (tuple(names), tuple(devices))
        state = self._mapper_state
        if state is not None:
            prev_key, prev_cost, prev_pref, prev_result = state
            if key == prev_key and cost == prev_cost and preferred == prev_pref:
                self.mapper_reuses += 1
                self.last_mapping = prev_result
                return prev_result, "device-map"
            prev_names, prev_devices = prev_key
            if (
                any(d not in devices for d in prev_devices)
                and set(names) <= set(prev_names)
                and all(d in prev_devices for d in devices)
            ):
                result = repair_mapping(prev_result, names, list(devices), cost)
                if result.repaired:
                    self.mapper_repairs += 1
                else:
                    self.mapper_solves += 1
                self._mapper_state = (key, cost, dict(preferred), result)
                self.last_mapping = result
                return result, ("device-repair" if result.repaired else "device-map")
        result = optimal_mapping(names, devices, cost, preferred)
        self.mapper_solves += 1
        self._mapper_state = (key, cost, dict(preferred), result)
        self.last_mapping = result
        return result, "device-map"

    def _plan_split_epoch(self, q: "CommandQueue", epoch) -> bool:
        """Attach a :class:`~repro.core.split.SplitPlan` to every kernel of
        ``q``'s pending epoch; returns whether the epoch was split.

        All-or-nothing per epoch: if any kernel cannot split (global size
        too small for two workgroup-aligned shares, fewer than two
        profiled devices), no command in the epoch is split and the queue
        falls back to the ordinary single-device mapping.  Split shares are
        proportional to the epoch's profiled per-device seconds; the queue
        itself rebinds to the fastest device, which hosts the epoch's
        non-kernel commands.  Per-device capacity for the streamed slices
        is enforced at issue time (_issue_split_kernel), where the actual
        slice sizes are known.
        """
        order = [
            d
            for d in self.device_order()
            if math.isfinite(epoch.seconds.get(d, math.inf))
            and epoch.seconds.get(d, 0.0) > 0
        ]
        if len(order) < 2:
            return False
        plans = []
        for cmd in q.pending:
            if not cmd.is_kernel:
                continue
            assert cmd.kernel is not None and cmd.launch is not None
            plan = plan_split(cmd.kernel, cmd.launch, order, epoch.seconds)
            if plan is None:
                return False
            plans.append((cmd, plan))
        if not plans:
            return False
        for cmd, plan in plans:
            cmd.split_plan = plan
        pos = {d: i for i, d in enumerate(order)}
        q.rebind(min(order, key=lambda d: (epoch.seconds[d], pos[d])))
        return True

    def _epoch_buffers(self, q: "CommandQueue") -> List[Buffer]:
        out: List[Buffer] = []
        seen = set()
        for cmd in q.pending:
            values = list(cmd.args_snapshot.values())
            if cmd.buffer is not None:
                values.append(cmd.buffer)
            for v in values:
                if isinstance(v, Buffer) and id(v) not in seen:
                    seen.add(id(v))
                    out.append(v)
        return out

    def _fits(
        self,
        q: "CommandQueue",
        device: str,
        bufs: Optional[List[Buffer]] = None,
    ) -> bool:
        spec = self.context.platform.node.device(device).spec
        # O(1): the context maintains per-device resident-byte counters on
        # every buffer validity transition (the seed summed over *all*
        # context buffers here, for every (queue, device) pair).
        resident = self.context.resident_bytes(device)
        if bufs is None:
            bufs = self._epoch_buffers(q)
        incoming = sum(
            b.nbytes for b in bufs if not b.resident_on(device)
        )
        return resident + incoming <= spec.mem_size_bytes

    def _transfer_estimate(
        self,
        q: "CommandQueue",
        device: str,
        profile,
        bufs: Optional[List[Buffer]] = None,
    ) -> float:
        """Estimated data movement to run this epoch on ``device``, derived
        from the *measured* device profiles (not the ground-truth model)."""
        total = 0.0
        if bufs is None:
            bufs = self._epoch_buffers(q)
        for buf in bufs:
            if not buf.initialized or buf.is_valid_on(device):
                continue
            if buf.is_valid_on(HOST):
                total += profile.h2d_seconds(device, buf.nbytes)
            else:
                src = buf.any_valid_device()
                if src is not None:
                    total += profile.d2d_seconds(src, device, buf.nbytes)
        return total


# ---------------------------------------------------------------------------
# Register with the OpenCL layer
# ---------------------------------------------------------------------------
register_scheduler(ContextScheduler.ROUND_ROBIN, RoundRobinScheduler)
register_scheduler(ContextScheduler.AUTO_FIT, AutoFitScheduler)

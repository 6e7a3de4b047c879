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
  (:mod:`repro.core.kernel_profiler`), each queue × device is priced by
  :func:`cost_row` (profiled seconds plus move-in estimates, ``inf`` where
  the data does not fit), and the pool is mapped by the exact makespan
  minimiser (:mod:`repro.core.device_mapper`).  Static queues
  (``SCHED_AUTO_STATIC``) skip kernel profiling entirely and are placed from
  the device profiles and the queue's workload hints alone (Section V.B),
  on the devices their data fits.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.constraints import repair_mapping
from repro.core.device_mapper import MapperError, MappingResult, optimal_mapping
from repro.core.kernel_profiler import KernelProfiler
from repro.core.minikernel import make_minikernel_source
from repro.core.split import plan_split
from repro.hardware.specs import DeviceKind
from repro.lru import BoundedLRU
from repro.ocl.enums import ContextScheduler, SchedFlag
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
    "cost_row",
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


def _whole_buffers(commands: Iterable["Command"]) -> List[Tuple[Buffer, int]]:
    """Every buffer ``commands`` touch, once each and whole: the
    deduplicated :meth:`Command.access_sets`, the set issue checks."""
    bufs = dict.fromkeys(b for cmd in commands for side in cmd.access_sets() for b in side)
    return [(b, b.nbytes) for b in bufs]


def cost_row(
    context: "Context",
    commands: Iterable["Command"],
    seconds: Dict[str, float],
    devices: Sequence[str],
) -> Dict[str, float]:
    """The one price of placing ``commands`` on each of ``devices``:
    ``inf`` where their buffers do not fit (:meth:`Context.overcommit`),
    else the profiled ``seconds`` plus the estimated seconds to move their
    buffers in, from the *measured* device profile, not the ground-truth
    model."""
    profile = context.platform.device_profile
    whole = _whole_buffers(commands)
    row: Dict[str, float] = {}
    for d in devices:
        if context.overcommit(d, whole):
            row[d] = math.inf
            continue
        move = 0.0
        for buf, nbytes in whole:
            if not buf.initialized or buf.is_valid_on(d):
                continue
            if buf.is_valid_on(HOST):
                move += profile.h2d_seconds(d, nbytes)
            else:
                src = buf.any_valid_device()
                if src is not None:
                    move += profile.d2d_seconds(src, d, nbytes)
        row[d] = seconds.get(d, math.inf) + move
    return row


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
        program.minikernel_source = make_minikernel_source(program.source)

    # -- per-kernel trigger mode ------------------------------------------
    #: Trigger on every kernel whatever the config's ``per_kernel_trigger``.
    triggers_per_kernel = False

    def on_enqueue(self, queue: "CommandQueue", command: "Command") -> None:
        if command.is_kernel and (
            self.triggers_per_kernel or self.config.per_kernel_trigger
        ):
            # High-frequency mode: schedule immediately on every kernel
            # (the costly alternative discussed in Section V.A), through the
            # same guarded pass as a sync point, over this queue's pool.
            self.context._sync_pending(queue, trigger_pool(queue))

    # -- arbitration hook ---------------------------------------------------
    def dispatch(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        """Map and issue one ready pool on behalf of an external arbiter.

        This is the multi-tenant service's callback: the arbiter decides
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
        """A transient slowdown began or cleared on ``device``: either way,
        what the predictor learned there no longer fits the device it will
        run on next.  Only the predictor's learned runtime state is dropped,
        so its corrector re-anchors on the next measurement — measured
        kernel profiles stay valid for mapping (the slowdown is real
        observed time), and non-predicting runs are untouched."""
        predictor = getattr(self.profiler, "predictor", None)
        if predictor is not None:
            predictor.invalidate_device(device)

    on_device_recovery = on_device_slowdown

    # -- helpers -----------------------------------------------------------
    @property
    def last_mapping(self) -> Optional[MappingResult]:
        """Most recent dynamic MappingResult, so fault-recovery accounting
        can tag remaps with whether a repair or a re-solve produced them."""
        state = self._mapper_state
        return None if state is None else state[3]

    def _active_devices(self) -> List[str]:
        devices = list(self.context.active_device_names)
        if not devices:
            raise MapperError("no feasible device remains (all failed)")
        return devices

    def _issue(
        self,
        pool: Sequence["CommandQueue"],
        placement: Dict["CommandQueue", str],
        before_issue: Optional[Callable[["CommandQueue", "Command"], None]] = None,
    ) -> None:
        """Apply one trigger's decision: bind each placed queue to its
        device, issue the pool in ``pool`` order (``before_issue`` runs
        just before each command issues), and record where every pooled
        queue ended up."""
        for q, device in placement.items():
            q.rebind(device)
        self.context.issue_pool(pool, before_issue)
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
        placement: Dict["CommandQueue", str] = {}
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
            placement[q] = dev
        self._issue(pool, placement)


class AutoFitScheduler(MultiCLSchedulerBase):
    """Profile-driven optimal mapping of the ready-queue pool."""

    def __init__(self, context: "Context") -> None:
        super().__init__(context)
        #: (kernel, launch, device order, per-device seconds, the kernel's
        #: per-device configurations in that order) -> :func:`plan_split`'s
        #: shares, ``()`` where it returned None: every input the plan
        #: reads, so ``set_work_group_info`` re-plans and ``set_arg`` does
        #: not.
        self._split_plans: BoundedLRU = BoundedLRU(256)

    def on_sync(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        pool = sorted(pool, key=lambda q: q.id)
        # SCHED_AUTO_STATIC without SCHED_AUTO_DYNAMIC places from hints
        # alone; with both set, dynamic wins (the more capable mode).
        static_qs = [
            q for q in pool
            if SchedFlag.SCHED_AUTO_STATIC in q.sched_flags
            and SchedFlag.SCHED_AUTO_DYNAMIC not in q.sched_flags
        ]
        static_ids = {id(q) for q in static_qs}
        dynamic_qs = [q for q in pool if id(q) not in static_ids]
        placement = self._map_static(static_qs) if static_qs else {}
        if dynamic_qs:
            placement.update(self._map_dynamic(dynamic_qs))
        self._issue(pool, placement)

    # ------------------------------------------------------------------
    # Static mapping: device profiles + hints only (Section V.B)
    # ------------------------------------------------------------------
    def _map_static(self, queues: Sequence["CommandQueue"]) -> Dict["CommandQueue", str]:
        profile = self.context.platform.device_profile
        devices = self._active_devices()
        loads: Dict[str, float] = {d: 0.0 for d in devices}
        # Tie-break on position within the *active* (degraded) pool, not the
        # full context pool: indexing the full pool made tie-breaks depend
        # on where failed devices used to sit.  Hoisted out of the min key —
        # the repeated list.index() calls were O(D) each.
        pos = {d: i for i, d in enumerate(devices)}
        placement: Dict["CommandQueue", str] = {}
        for q in queues:
            # Hints price the devices the queue's buffers fit on, by the
            # same rule as cost_row.
            whole = _whole_buffers(q.pending)
            fits = [d for d in devices if not self.context.overcommit(d, whole)]
            if not fits:
                raise MapperError(f"queue {q.name!r} infeasible on every device")
            scores = self._hint_scores(q.sched_flags, profile, fits)
            # Greedy balance: unit work 1/score; pick the device finishing
            # this queue earliest.
            best = min(
                scores,
                key=lambda d: (loads[d] + 1.0 / scores[d], pos[d]),
            )
            loads[best] += 1.0 / scores[best]
            placement[q] = best
        return placement

    def _hint_scores(
        self, flags: SchedFlag, profile, devices: Sequence[str]
    ) -> Dict[str, float]:
        if SchedFlag.SCHED_IO_BOUND in flags:
            return {d: 1.0 / max(profile.h2d_seconds(d, 1 << 20), 1e-12) for d in devices}
        if SchedFlag.SCHED_MEMORY_BOUND in flags:
            return {d: profile.bandwidth_gbs[d] for d in devices}
        # compute_bound, or no hint: instruction throughput is the criterion.
        return {d: profile.gflops[d] for d in devices}

    # ------------------------------------------------------------------
    # Dynamic mapping: kernel profiling + exact mapper (Section V.C)
    # ------------------------------------------------------------------
    def _map_dynamic(self, queues: Sequence["CommandQueue"]) -> Dict["CommandQueue", str]:
        platform = self.context.platform
        epochs = {q.name: self.profiler.profile_epoch(q, q.pending) for q in queues}
        while True:
            # Profiling advances the virtual clock, so a device may have
            # failed *during* this pass (fault injection): map over the
            # devices active now, treating any device without a measurement
            # as infeasible.
            placement, split, interval_name = self._place_dynamic(
                queues, epochs, self._active_devices()
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
            used = set(placement.values())
            for q in split:
                for cmd in q.pending:
                    if cmd.split_plan is not None:
                        used.update(share.device for share in cmd.split_plan)
            if all(platform.is_available(d) for d in used):
                return placement
            for q in split:
                for cmd in q.pending:
                    cmd.split_plan = None

    def _place_dynamic(
        self,
        queues: Sequence["CommandQueue"],
        epochs: Dict[str, Dict[str, float]],
        devices: List[str],
    ) -> Tuple[Dict["CommandQueue", str], List["CommandQueue"], str]:
        """Place ``queues`` on ``devices``: split plans first, then one
        mapping of the rest.  Returns (queue → device for every queue, the
        split queues, the mapping step's trace interval name)."""
        # Work-splitting (SCHED_SPLIT / config.split): a split queue's kernel
        # epoch is partitioned across devices instead of mapped to one, so it
        # leaves the cost matrix entirely.
        placement: Dict["CommandQueue", str] = {}
        split: List["CommandQueue"] = []
        for q in queues:
            if self.config.split or SchedFlag.SCHED_SPLIT in q.sched_flags:
                device = self._plan_split_epoch(q, epochs[q.name])
                if device is not None:
                    placement[q] = device
                    split.append(q)
        if split:
            queues = [q for q in queues if q not in placement]
            if not queues:
                # The whole pool splits: the mapping step is the
                # partition computation, and the solver is skipped.
                return placement, split, "device-map"
        cost = {
            q.name: cost_row(self.context, q.pending, epochs[q.name], devices)
            for q in queues
        }
        preferred = {q.name: q.device for q in queues}
        names = [q.name for q in queues]
        result, interval_name = self._solve_mapping(names, devices, cost, preferred)
        for q in queues:
            placement[q] = result.mapping[q.name]
        return placement, split, interval_name

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
                return result, ("device-repair" if result.repaired else "device-map")
        result = optimal_mapping(names, devices, cost, preferred)
        self.mapper_solves += 1
        self._mapper_state = (key, cost, dict(preferred), result)
        return result, "device-map"

    def _plan_split_epoch(self, q: "CommandQueue", seconds) -> Optional[str]:
        """Attach :func:`~repro.core.split.plan_split`'s shares to every
        kernel of ``q``'s pending epoch; returns the device the split queue
        binds to, or None if the epoch was not split.

        All-or-nothing per epoch: if any kernel cannot split (global size
        too small for two workgroup-aligned shares, fewer than two
        profiled devices), or any share's slices would not fit on its
        device by the residency step's rule (:meth:`Context.overcommit`),
        no command in the epoch is split and the queue falls back to the
        ordinary single-device mapping.  Split shares are proportional to
        the epoch's profiled per-device seconds; the queue itself binds to
        the fastest device, which hosts the epoch's non-kernel commands.
        """
        order = [
            d
            for d in self.device_order()
            if math.isfinite(seconds.get(d, math.inf)) and seconds.get(d, 0.0) > 0
        ]
        if len(order) < 2:
            return None
        context = self.context
        memo = self._split_plans
        devices = tuple(order)
        secs = tuple([seconds[d] for d in order])
        plans = []
        for cmd in q.pending:
            if not cmd.is_kernel:
                continue
            kernel = cmd.kernel
            configs = tuple([kernel.device_configs.get(d) for d in order])
            key = (kernel, cmd.launch, devices, secs, configs)
            plan = memo.get(key)
            if plan is None:
                plan = plan_split(kernel, cmd.launch, order, seconds) or ()
                memo.put(key, plan)
            if not plan:
                return None
            whole = _whole_buffers((cmd,))
            for share in plan:
                sizes = [(b, share.slice_bytes(n)) for b, n in whole]
                if context.overcommit(share.device, sizes):
                    return None
            plans.append((cmd, plan))
        if not plans:
            return None
        for cmd, plan in plans:
            cmd.split_plan = plan
        pos = {d: i for i, d in enumerate(order)}
        return min(order, key=lambda d: (seconds[d], pos[d]))


# ---------------------------------------------------------------------------
# Register with the OpenCL layer
# ---------------------------------------------------------------------------
register_scheduler(ContextScheduler.ROUND_ROBIN, RoundRobinScheduler)
register_scheduler(ContextScheduler.AUTO_FIT, AutoFitScheduler)

"""Open-loop replay drivers: per-tenant engine replay and service replay.

Two replay modes share the arrival machinery (:mod:`repro.replay.arrivals`)
and the result types (:mod:`repro.replay.metrics`):

* **engine mode** (:func:`run_tenant`) — each tenant replays against its
  own :class:`~repro.ocl.platform.Platform` (own event engine, own device
  fleet), dispatching requests straight onto device FIFO resources with a
  join-shortest-queue or round-robin policy and per-(family, device)
  service times derived from the measured
  :class:`~repro.core.device_profiler.DeviceProfile`.  Tenants are
  *independent replicas*, which is exactly what makes serial and sharded
  runs bit-identical — and it scales to millions of commands per run;
* **service mode** (:func:`run_service_replay`) — all tenants share one
  :class:`~repro.service.core.SchedulingService` fleet and contend through
  the fair-share arbiter, at smaller command counts.  This is the mode
  that measures *real* multi-tenant interference and fairness; engine mode
  measures raw open-loop queueing behaviour and replay throughput.

The hot loop is epoch-batched: a chunk of arrivals is injected with
:meth:`~repro.sim.engine.SimEngine.schedule_batch` (onto the sorted
arrival lane beside the event heap, not one sift-up per command) and
drained with
:meth:`~repro.sim.engine.SimEngine.run_until_time`.  Per-request
allocations are held to the task tuple itself: request names, metadata
dicts, and the completion-callback list are shared per kernel family, and
the arrival timestamp rides in the :class:`~repro.sim.engine.SimTask`
``arrival_time`` slot.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.replay.arrivals import (
    DEFAULT_FAMILIES,
    KernelFamily,
    derive_seed,
    make_process,
)
from repro.replay.metrics import LatencyHistogram, TenantResult
from repro.sim.export import JsonlTraceSink
from repro.sim.trace import TraceSink

__all__ = [
    "ReplayConfig",
    "DiscardSink",
    "run_tenant",
    "run_service_replay",
]

@dataclass(frozen=True)
class ReplayConfig:
    """Everything a replay run needs; picklable across shard processes."""

    #: commands replayed *per tenant*
    commands: int = 100_000
    tenants: int = 4
    #: arrival process per tenant: ``poisson`` | ``bursty`` | ``diurnal``
    process: str = "poisson"
    #: long-run arrival rate per tenant (requests per simulated second);
    #: the default sits at ~2/3 of a tenant fleet's capacity, so the open
    #: queue is stable and the latency percentiles measure real queueing
    rate: float = 300.0
    #: extra arrival-process parameters (e.g. ``on_s``/``off_s``)
    process_params: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    #: per-tenant fair-share weights, cycled if shorter than ``tenants``
    weights: Tuple[float, ...] = (1.0,)
    #: engine-mode dispatch: ``jsq`` (join shortest queue) | ``rr``
    policy: str = "jsq"
    #: arrivals injected per ``schedule_batch`` epoch
    chunk: int = 8192
    #: streaming-trace spill threshold (resident intervals before a spill)
    spill_every: int = 16384
    #: stream the trace through a sink (flat memory); False keeps the
    #: resident trace — only sane for small runs
    streaming: bool = True
    #: spill intervals to ``<trace_path>.tenant<i>.jsonl`` (engine mode) or
    #: ``<trace_path>.service.jsonl`` (service mode) instead of discarding
    trace_path: Optional[str] = None
    families: Tuple[KernelFamily, ...] = DEFAULT_FAMILIES
    #: shared on-disk device-profile cache (None -> harness default)
    profile_dir: Optional[str] = None
    #: engine mode: model the dynamic profiler's cold start — the first
    #: arrival of an *unseen* kernel family runs one profiling launch per
    #: device before any request of that family can be served, so early
    #: (and post-churn) requests queue behind profiling.  Off by default:
    #: cold-start accounting changes checksums.
    cold_start: bool = False
    #: with ``cold_start``: serve unseen families from the static-feature
    #: predictor instead — zero profiling launches ever hit the devices
    #: (the :mod:`repro.predict` path applied to the replay model)
    predict: bool = False
    #: with ``cold_start``: every ``family_churn`` arrivals the tenant's
    #: families count as unseen again, modelling a stream whose kernel
    #: population keeps changing (0 = only the very first sight is cold)
    family_churn: int = 0

    def tenant_name(self, index: int) -> str:
        return f"tenant-{index}"

    def tenant_weight(self, index: int) -> float:
        return self.weights[index % len(self.weights)]

    def validate(self) -> "ReplayConfig":
        if self.commands < 1:
            raise ValueError(f"commands must be >= 1, got {self.commands}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.rate <= 0.0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.spill_every < 1:
            raise ValueError(f"spill_every must be >= 1, got {self.spill_every}")
        if self.policy not in ("jsq", "rr"):
            raise ValueError(f"policy must be 'jsq' or 'rr', got {self.policy!r}")
        if self.family_churn < 0:
            raise ValueError(
                f"family_churn must be >= 0, got {self.family_churn}"
            )
        if self.predict and not self.cold_start:
            raise ValueError("predict requires cold_start (nothing to skip)")
        if not self.weights:
            raise ValueError("weights must not be empty")
        make_process(self.process, self.rate, **self.process_params)
        return self

    def with_profile_dir(self, profile_dir: str) -> "ReplayConfig":
        return replace(self, profile_dir=profile_dir)


class DiscardSink(TraceSink):
    """Count-and-drop sink: the flat-memory default for huge replays.

    Aggregate accounting (per-device busy seconds, totals) survives in the
    :class:`~repro.sim.trace.Trace` cumulative aggregates; the raw
    intervals themselves are only needed when a ``trace_path`` asks for an
    on-disk record.
    """

    def __init__(self) -> None:
        self.consumed = 0

    def consume(self, intervals) -> None:
        self.consumed += len(intervals)


class _EngineTenant:
    """One tenant's engine-mode replay state (single-use)."""

    __slots__ = (
        "engine",
        "resources",
        "durations",
        "free",
        "names",
        "metas",
        "callbacks",
        "jsq",
        "rr_next",
        "hist",
        "completed",
        "latency_sum",
        "last_end",
        "cold_start",
        "predict",
        "churn",
        "arrivals",
        "seen",
        "prof_names",
        "profiling_epochs",
        "predicted_epochs",
    )

    def __init__(self, platform, config: ReplayConfig, tenant: str) -> None:
        self.engine = platform.engine
        devices = platform.node.device_list()
        profile = platform.device_profile
        self.resources = [d.resource for d in devices]
        # Service time of one request of family f on device d: compute at
        # the measured instruction throughput + memory traffic at the
        # measured bandwidth + the per-launch fixed cost.  Requests of one
        # family are identical, so this is precomputed once per run.
        self.durations: List[List[float]] = []
        for fam in config.families:
            row = []
            for dev in devices:
                name = dev.name
                row.append(
                    fam.flops / (profile.gflops[name] * 1e9)
                    + fam.bytes / (profile.bandwidth_gbs[name] * 1e9)
                    + profile.launch_overhead_s[name]
                )
            self.durations.append(row)
        #: per-device backlog horizon (virtual time the device frees up)
        self.free = [0.0] * len(devices)
        # Shared per-family request names and trace metadata: requests of a
        # family are indistinguishable, so a million tasks share four
        # strings and four read-only dicts instead of allocating their own.
        self.names = [f"req:{fam.name}" for fam in config.families]
        self.metas = [
            {"family": fam.name, "tenant": tenant} for fam in config.families
        ]
        #: one shared completion-callback list for every request (the
        #: engine reads it and clears the *task's* reference, never the
        #: list itself)
        self.callbacks = [self._on_done]
        self.jsq = config.policy == "jsq"
        self.rr_next = 0
        self.hist = LatencyHistogram()
        self.completed = 0
        self.latency_sum = 0.0
        self.last_end = 0.0
        # Cold-start modelling (see ReplayConfig.cold_start): which
        # (family, generation) pairs have been profiled or predicted.
        self.cold_start = config.cold_start
        self.predict = config.predict
        self.churn = config.family_churn
        self.arrivals = 0
        self.seen: set = set()
        self.prof_names = [f"prof:{fam.name}" for fam in config.families]
        self.profiling_epochs = 0
        self.predicted_epochs = 0

    def _first_sight(self, fam: int) -> None:
        """An unseen family arrived: profile it on every device, or predict.

        The measured path mirrors the kernel profiler: one profiling launch
        per device, serialised on each device's FIFO ahead of any pending
        requests — exactly the cold-start epoch the predictor eliminates.
        The predicted path costs zero device seconds (static features only).
        """
        if self.predict:
            self.predicted_epochs += 1
            return
        self.profiling_epochs += 1
        engine = self.engine
        now = engine.now
        durations = self.durations[fam]
        name = self.prof_names[fam]
        free = self.free
        for i, resource in enumerate(self.resources):
            duration = durations[i]
            start = free[i]
            if start < now:
                start = now
            free[i] = start + duration
            task = engine.task(
                name, duration, resource, category="profile-kernel"
            )
            task.meta = self.metas[fam]

    def arrive(self, fam: int) -> None:
        """Dispatch one arriving request (fires at its arrival timestamp)."""
        engine = self.engine
        now = engine.now
        if self.cold_start:
            self.arrivals += 1
            generation = self.arrivals // self.churn if self.churn else 0
            key = fam * 1_000_003 + generation
            if key not in self.seen:
                self.seen.add(key)
                self._first_sight(fam)
        free = self.free
        durations = self.durations[fam]
        if self.jsq:
            dev = 0
            best = free[0]
            for i in range(1, len(free)):
                if free[i] < best:
                    best = free[i]
                    dev = i
        else:
            dev = self.rr_next
            self.rr_next = (dev + 1) % len(free)
        duration = durations[dev]
        start = free[dev]
        if start < now:
            start = now
        free[dev] = start + duration
        task = engine.task(self.names[fam], duration, self.resources[dev])
        # One shared read-only meta dict per family keeps the per-request
        # cost to the task object itself.
        task.meta = self.metas[fam]
        task.arrival_time = now
        task._callbacks = self.callbacks

    def _on_done(self, task) -> None:
        end = task.end_time
        latency = end - task.arrival_time
        self.hist.add(latency)
        self.completed += 1
        self.latency_sum += latency
        if end > self.last_end:
            self.last_end = end


def _fold_checksum(
    completed: int,
    last_end: float,
    latency_sum: float,
    device_seconds: Dict[str, float],
) -> float:
    """Deterministic float fold of a tenant's replay outcome.

    Pure float additions in a fixed (sorted-key) order — no libm calls —
    so the value is bit-identical across processes and platforms; the
    serial-vs-sharded tests and the perf-baseline checksum pin it.
    """
    checksum = float(completed) + last_end + latency_sum
    for name in sorted(device_seconds):
        checksum += device_seconds[name]
    return checksum


def _attach_sink(trace, config: ReplayConfig, label: str) -> Optional[TraceSink]:
    """Stream ``trace`` as ``config`` asks: spill every ``spill_every``
    intervals to ``<trace_path>.<label>.jsonl``, or discard them.  Returns
    the sink for the caller to flush and close (None: resident trace)."""
    if not config.streaming:
        return None
    if config.trace_path:
        sink: TraceSink = JsonlTraceSink(f"{config.trace_path}.{label}.jsonl")
    else:
        sink = DiscardSink()
    trace.attach_sink(sink, spill_every=config.spill_every)
    return sink


def _warm_platform(profile_dir: Optional[str]):
    """A profiled platform whose clock starts at 0 whatever the cache held:
    a throwaway platform measures (or loads) the device profile first, so
    this one loads it without charging simulated time."""
    from repro.ocl.platform import Platform

    Platform(profile=True, profile_dir=profile_dir)
    return Platform(profile=True, profile_dir=profile_dir)


def run_tenant(config: ReplayConfig, index: int) -> TenantResult:
    """Replay one tenant's full arrival schedule on its own platform."""
    config.validate()
    platform = _warm_platform(config.profile_dir)
    engine = platform.engine
    trace = engine.trace
    sink = _attach_sink(trace, config, f"tenant{index}")

    tenant = config.tenant_name(index)
    state = _EngineTenant(platform, config, tenant)
    process = make_process(config.process, config.rate, **config.process_params)
    seed = derive_seed(config.seed, index)

    arrive = state.arrive
    chunk = config.chunk
    schedule_batch = engine.schedule_batch
    run_until_time = engine.run_until_time
    batch: List[Tuple[float, object, int]] = []
    append = batch.append
    for t, fam in process.stream(config.families, seed, config.commands):
        append((t, arrive, fam))
        if len(batch) >= chunk:
            schedule_batch(batch)
            run_until_time(batch[-1][0])
            del batch[:]
    if batch:
        schedule_batch(batch)
    engine.run_until_idle()

    device_seconds = trace.by_resource()
    resident = len(trace)
    if sink is not None:
        trace.flush()
        sink.close()
    return TenantResult(
        tenant=tenant,
        index=index,
        weight=config.tenant_weight(index),
        requests=config.commands,
        completed=state.completed,
        end_time=state.last_end,
        latency_sum=state.latency_sum,
        histogram=state.hist.to_dict(),
        device_seconds=dict(device_seconds),
        spilled=trace.spilled_count,
        resident=resident,
        checksum=_fold_checksum(
            state.completed, state.last_end, state.latency_sum, device_seconds
        ),
        profiling_epochs=state.profiling_epochs,
        predicted_epochs=state.predicted_epochs,
    )


# ---------------------------------------------------------------------------
# Service mode: shared fleet, fair-share contention
# ---------------------------------------------------------------------------

_SERVICE_GLOBAL = 1 << 14
_SERVICE_LOCAL = 128


def _service_program_source(families: Tuple[KernelFamily, ...]) -> str:
    """One annotated kernel per family, work sized so a launch over
    ``_SERVICE_GLOBAL`` items carries exactly the family's footprint."""
    parts = []
    for fam in families:
        kname = fam.name.replace("-", "_")
        flops = fam.flops / _SERVICE_GLOBAL
        nbytes = fam.bytes / _SERVICE_GLOBAL
        parts.append(
            f"// @multicl flops_per_item={flops:g} bytes_per_item={nbytes:g} "
            f"writes=0\n"
            f"__kernel void {kname}(__global float* x) {{\n"
            f"  int i = get_global_id(0);\n"
            f"  (void)x[i];\n"
            f"}}\n"
        )
    return "\n".join(parts)


class _ServiceTenant:
    """One tenant's client state against the shared scheduling service."""

    def __init__(self, service, config: ReplayConfig, index: int) -> None:
        from repro.ocl.enums import SchedFlag

        self.name = config.tenant_name(index)
        self.index = index
        self.weight = config.tenant_weight(index)
        self.session = service.create_session(self.name, weight=self.weight)
        program = self.session.create_program(
            _service_program_source(config.families)
        ).build()
        self.kernels = [
            program.create_kernel(fam.name.replace("-", "_"))
            for fam in config.families
        ]
        self.buffer = self.session.create_buffer(
            4 * _SERVICE_GLOBAL, name=f"{self.name}-data"
        )
        for kernel in self.kernels:
            kernel.set_arg(0, self.buffer)
        self.queue = self.session.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC, name=f"{self.name}-q"
        )
        self.engine = service.platform.engine
        #: arrival times of the requests not yet complete, oldest first
        self.arrivals: Deque[float] = deque()
        #: the one completion handler every request registers
        self._done = self._on_done
        self.hist = LatencyHistogram()
        self.requests = 0
        self.completed = 0
        self.latency_sum = 0.0
        self.last_end = 0.0

    def enqueue(self, fam: int) -> None:
        """Submit one arriving request (fires at its arrival timestamp)."""
        event = self.queue.enqueue_nd_range_kernel(
            self.kernels[fam], (_SERVICE_GLOBAL,), (_SERVICE_LOCAL,)
        )
        self.requests += 1
        self.arrivals.append(self.engine.now)
        event.on_complete(self._done)

    def _on_done(self, task) -> None:
        # The tenant's queue is in order, so its requests complete in
        # enqueue order: the oldest outstanding arrival is this one's.
        arrival = self.arrivals.popleft()
        end = task.end_time
        latency = end - arrival
        self.hist.add(latency)
        self.completed += 1
        self.latency_sum += latency
        if end > self.last_end:
            self.last_end = end

    def result(self, device_seconds: Dict[str, float]) -> TenantResult:
        return TenantResult(
            tenant=self.name,
            index=self.index,
            weight=self.weight,
            requests=self.requests,
            completed=self.completed,
            end_time=self.last_end,
            latency_sum=self.latency_sum,
            histogram=self.hist.to_dict(),
            device_seconds=device_seconds,
            spilled=0,
            resident=0,
            checksum=_fold_checksum(
                self.completed, self.last_end, self.latency_sum, device_seconds
            ),
        )


def run_service_replay(config: ReplayConfig):
    """Replay all tenants through one shared fair-share scheduling service.

    Arrivals from every tenant's (independently seeded) process are merged
    into one time-ordered schedule, injected epoch-by-epoch through
    ``schedule_batch``; each epoch boundary is an arbitration point
    (:meth:`~repro.service.core.SchedulingService.trigger`).  Latency here
    includes *fair-share queueing*: time a request spends deferred in its
    tenant's ready pool counts against it, which is the whole point of the
    mode.  Returns a merged :class:`~repro.replay.metrics.ReplayReport`
    with per-tenant telemetry shares attached.
    """
    from repro.replay.metrics import merge_results
    from repro.service.core import SchedulingService

    config.validate()
    service = SchedulingService(platform=_warm_platform(config.profile_dir))
    engine = service.platform.engine
    sink = _attach_sink(engine.trace, config, "service")
    tenants = [
        _ServiceTenant(service, config, i) for i in range(config.tenants)
    ]

    def tenant_schedule(i: int):
        process = make_process(
            config.process, config.rate, **config.process_params
        )
        seed = derive_seed(config.seed, i)
        for t, fam in process.stream(config.families, seed, config.commands):
            yield t, i, fam

    merged_arrivals = heapq.merge(
        *(tenant_schedule(i) for i in range(config.tenants))
    )

    def fire(payload: Tuple[int, int]) -> None:
        tenant_idx, fam = payload
        tenants[tenant_idx].enqueue(fam)

    base = engine.now  # tenant setup (program builds) takes simulated time
    chunk = config.chunk
    batch: List[Tuple[float, object, Tuple[int, int]]] = []
    for t, tenant_idx, fam in merged_arrivals:
        batch.append((base + t, fire, (tenant_idx, fam)))
        if len(batch) >= chunk:
            engine.schedule_batch(batch)
            service.run_until_time(batch[-1][0])
            service.trigger()
            del batch[:]
    if batch:
        engine.schedule_batch(batch)
        engine.run_until_idle()
    # Drain: keep arbitrating until every ready pool has reached the fleet.
    while service.has_backlog():
        service.trigger()
        service.run_until_idle()
    service.run_until_idle()
    if sink is not None:
        engine.trace.flush()
        sink.close()

    usage = service.utilization()
    results = [
        t.result({"fleet": usage[t.name].device_seconds})
        for t in tenants
    ]
    report = merge_results(results)
    report.shares = service.shares()
    return report

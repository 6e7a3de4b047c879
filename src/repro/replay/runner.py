"""Open-loop replay drivers: per-tenant engine replay and service replay.

Two replay modes share the arrival machinery (:mod:`repro.replay.arrivals`),
the chunked injection loop, the latency fold and the result types
(:mod:`repro.replay.metrics`):

* **engine mode** (:func:`run_tenant`) — each tenant replays against its
  own device fleet, dispatching requests straight onto per-device FIFOs
  with a join-shortest-queue or round-robin policy and per-(family,
  device) service times derived from the measured
  :class:`~repro.core.device_profiler.DeviceProfile`.  Each FIFO is
  modelled once, in closed form: a request starts when it arrives or when
  its device frees up, whichever is later (Lindley's recursion).  The
  intervals are recorded into the tenant's trace in the order an event
  engine would complete them, so traces and results are exactly those of
  an event-driven replay.  Tenants are
  *independent replicas*, which is exactly what makes serial and sharded
  runs bit-identical — and it scales to millions of commands per run;
* **service mode** (:func:`run_service_replay`) — all tenants share one
  :class:`~repro.service.core.SchedulingService` fleet and contend through
  the fair-share arbiter, at smaller command counts.  This is the mode
  that measures *real* multi-tenant interference and fairness; engine mode
  measures raw open-loop queueing behaviour and replay throughput.

Both modes consume arrivals in chunks of ``config.chunk``.  Service mode
injects each chunk into the event engine with
:meth:`~repro.sim.engine.SimEngine.schedule_batch`, drains it with
:meth:`~repro.sim.engine.SimEngine.run_until_time` and arbitrates at the
chunk boundary.  Engine mode records each chunk's completed intervals
before it reads the next, so a streamed trace keeps memory flat.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core import profile_store
from repro.replay.arrivals import (
    DEFAULT_FAMILIES,
    KernelFamily,
    derive_seed,
    make_process,
)
from repro.replay.metrics import LatencyHistogram, TenantResult
from repro.sim.engine import SimError
from repro.sim.export import JsonlTraceSink
from repro.sim.trace import TraceSink

__all__ = [
    "ReplayConfig",
    "DiscardSink",
    "run_tenant",
    "run_service_replay",
]

_INF = float("inf")


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
    #: arrivals per replay chunk (one ``schedule_batch`` epoch in service
    #: mode)
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
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
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
        for w in self.weights:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"weights must be positive and finite, got {w}")
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


class _ReplayTenant:
    """One replay tenant: its identity, the arrival-to-completion latency
    of its requests folded in completion order, and the
    :class:`TenantResult` built from them."""

    __slots__ = (
        "name", "index", "weight", "hist", "completed", "latency_sum", "last_end"
    )

    def __init__(self, config: ReplayConfig, index: int) -> None:
        self.name = config.tenant_name(index)
        self.index = index
        self.weight = config.tenant_weight(index)
        self.hist = LatencyHistogram()
        self.completed = 0
        self.latency_sum = 0.0
        self.last_end = 0.0

    def fold(self, arrival: float, end: float) -> None:
        latency = end - arrival
        self.hist.add(latency)
        self.completed += 1
        self.latency_sum += latency
        if end > self.last_end:
            self.last_end = end

    def result(
        self, requests: int, device_seconds: Dict[str, float], **extra
    ) -> TenantResult:
        """The tenant's outcome; ``extra`` fills the trace and cold-start
        counters."""
        # The checksum is pure float additions in a fixed (sorted-key)
        # order, no libm calls, so it is bit-identical across processes
        # and platforms; the serial-vs-sharded tests and the perf-baseline
        # checksum pin it.
        checksum = float(self.completed) + self.last_end + self.latency_sum
        for name in sorted(device_seconds):
            checksum += device_seconds[name]
        return TenantResult(
            tenant=self.name,
            index=self.index,
            weight=self.weight,
            requests=requests,
            completed=self.completed,
            end_time=self.last_end,
            latency_sum=self.latency_sum,
            histogram=self.hist.to_dict(),
            device_seconds=device_seconds,
            checksum=checksum,
            **extra,
        )


class _EngineTenant(_ReplayTenant):
    """One tenant's engine-mode replay state (single-use).

    Each device is a FIFO of closed-form ``(end, start, name, category,
    meta, arrival)`` intervals; the head is in service, the rest wait.
    Intervals are recorded into ``trace`` in the completion order of an
    event engine, ``(end, seq)``: a head takes the next sequence number
    when its service begins (at its arrival on an idle device, else when
    its predecessor is recorded), and a chunk of arrivals takes its
    numbers when it is injected, before any of them runs.  ``heap`` holds
    one ``(end, seq, device)`` entry per busy device.
    """

    __slots__ = (
        "trace",
        "resources",
        "durations",
        "free",
        "fifos",
        "heap",
        "seq",
        "last_arrival",
        "names",
        "metas",
        "jsq",
        "rr_next",
        "cold_start",
        "predict",
        "churn",
        "arrivals",
        "seen",
        "prof_names",
        "profiling_epochs",
        "predicted_epochs",
    )

    def __init__(self, platform, config: ReplayConfig, index: int) -> None:
        super().__init__(config, index)
        self.trace = platform.engine.trace
        devices = platform.node.device_list()
        profile = platform.device_profile
        self.resources = [d.resource.name for d in devices]
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
        self.fifos: List[Deque[tuple]] = [deque() for _ in devices]
        self.heap: List[Tuple[float, int, int]] = []
        self.seq = 0
        self.last_arrival = 0.0
        # Shared per-family request names and trace metadata: requests of a
        # family are indistinguishable, so a million intervals share four
        # strings and four read-only dicts instead of allocating their own.
        self.names = [f"req:{fam.name}" for fam in config.families]
        self.metas = [
            {"family": fam.name, "tenant": self.name} for fam in config.families
        ]
        self.jsq = config.policy == "jsq"
        self.rr_next = 0
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

    def _queue(self, dev: int, interval: tuple) -> None:
        """Append ``interval`` to device ``dev``'s FIFO; on an idle device
        its service begins now."""
        fifo = self.fifos[dev]
        fifo.append(interval)
        if len(fifo) == 1:
            heapq.heappush(self.heap, (interval[0], self.seq, dev))
            self.seq += 1

    def record_until(self, time: float, order: float) -> None:
        """Record, in completion order, every head whose ``(end, seq)`` is
        below ``(time, order)``, beginning each successor's service."""
        heap = self.heap
        fifos = self.fifos
        record = self.trace.record
        key = (time, order)
        while heap and heap[0] < key:
            dev = heapq.heappop(heap)[2]
            fifo = fifos[dev]
            end, start, name, category, meta, arrival = fifo.popleft()
            record(self.resources[dev], name, category, start, end, meta)
            if arrival is not None:
                self.fold(arrival, end)
            if fifo:
                heapq.heappush(heap, (fifo[0][0], self.seq, dev))
                self.seq += 1

    def inject(self, chunk: List[Tuple[float, int]]) -> None:
        """Serve one chunk of ``(arrival, family)`` requests, then record
        every interval that ends by the chunk's last arrival."""
        base = self.seq
        self.seq += len(chunk)
        last = self.last_arrival
        for j, (now, fam) in enumerate(chunk):
            if not last <= now < _INF:  # also rejects NaN
                raise SimError(f"arrival at {now} after one at {last}")
            last = now
            self.record_until(now, base + j)
            self.arrive(now, fam)
        self.last_arrival = last
        self.record_until(last, _INF)

    def _first_sight(self, fam: int, now: float) -> None:
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
        durations = self.durations[fam]
        name = self.prof_names[fam]
        meta = self.metas[fam]
        free = self.free
        for dev, duration in enumerate(durations):
            start = free[dev]
            if start < now:
                start = now
            end = free[dev] = start + duration
            self._queue(dev, (end, start, name, "profile-kernel", meta, None))

    def arrive(self, now: float, fam: int) -> None:
        """Dispatch one request arriving at ``now``."""
        if self.cold_start:
            self.arrivals += 1
            generation = self.arrivals // self.churn if self.churn else 0
            key = fam * 1_000_003 + generation
            if key not in self.seen:
                self.seen.add(key)
                self._first_sight(fam, now)
        free = self.free
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
        start = free[dev]
        if start < now:
            start = now
        end = free[dev] = start + self.durations[fam][dev]
        self._queue(dev, (end, start, self.names[fam], "work", self.metas[fam], now))


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    """Consecutive lists of ``size`` items; the last may be shorter."""
    it = iter(items)
    while True:
        chunk = list(islice(it, size))
        if not chunk:
            return
        yield chunk


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
    the profile is warmed into the shared directory first
    (:func:`~repro.core.profile_store.warm`), so this one loads it without
    charging simulated time."""
    from repro.ocl.platform import Platform

    profile_dir = profile_store.warm([None], profile_dir)
    return Platform(profile=True, profile_dir=profile_dir)


def run_tenant(config: ReplayConfig, index: int) -> TenantResult:
    """Replay one tenant's full arrival schedule on its own device fleet."""
    config.validate()
    platform = _warm_platform(config.profile_dir)
    trace = platform.engine.trace
    sink = _attach_sink(trace, config, f"tenant{index}")

    state = _EngineTenant(platform, config, index)
    process = make_process(config.process, config.rate, **config.process_params)
    seed = derive_seed(config.seed, index)
    arrivals = process.stream(config.families, seed, config.commands)
    for chunk in _chunks(arrivals, config.chunk):
        state.inject(chunk)
    state.record_until(_INF, 0)

    device_seconds = trace.by_resource()
    resident = len(trace)
    if sink is not None:
        trace.flush()
        sink.close()
    return state.result(
        config.commands,
        dict(device_seconds),
        spilled=trace.spilled_count,
        resident=resident,
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


class _ServiceTenant(_ReplayTenant):
    """One tenant's client state against the shared scheduling service."""

    def __init__(self, service, config: ReplayConfig, index: int) -> None:
        from repro.ocl.enums import SchedFlag

        super().__init__(config, index)
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
        self.requests = 0

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
        self.fold(self.arrivals.popleft(), task.end_time)


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
    events = ((base + t, fire, (i, fam)) for t, i, fam in merged_arrivals)
    for chunk in _chunks(events, config.chunk):
        engine.schedule_batch(chunk)
        if len(chunk) < config.chunk:
            engine.run_until_idle()
        else:
            service.run_until_time(chunk[-1][0])
            service.trigger()
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
        t.result(
            t.requests, {"fleet": usage[t.name].device_seconds},
            spilled=0, resident=0,
        )
        for t in tenants
    ]
    report = merge_results(results)
    report.shares = service.shares()
    return report

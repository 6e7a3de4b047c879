"""The four benchmark workloads.

Each workload class does its set-up in ``__init__`` (warm the device-profile
cache, fit what needs fitting) and runs one timed pass per :meth:`run`.  A
pass returns a :class:`PassResult`: how many operations it attempted and how
many failed, a checksum of its outputs, and the simulated (virtual-time)
outcomes.  The seed only shapes the inputs; the program never sees it.

* ``figures`` — every paper experiment at paper scale, the reproduction
  users run.  Seed-independent.
* ``replay-engine`` — open-loop Poisson replay straight onto the event
  engine; bypasses the OpenCL, scheduler, hardware-cost and service layers.
* ``service-fairshare`` — open-loop replay through the shared fair-share
  service, arbitrating every 64 arrivals.  One fixed arrival schedule (see
  :class:`ServiceFairshare`).
* ``stream-modes`` — one scheduled context streaming double-buffered
  write/kernel/read rounds with overlap, splitting and a scheduler trigger
  per kernel.

Both replays are open loop: arrivals fire at their virtual timestamps, so
the generator is never late in virtual time, and latency is timed from the
scheduled arrival.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Virtual-time outcomes every pass reports; 0.0 where a workload has none.
OUTCOMES = ("sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "sim_goodput",
            "fairness_jain", "sim_makespan_s", "autofit_overhead_pct",
            "sim.busy_frac")


@dataclass
class PassResult:
    attempted: int
    failed: int
    checksum: str
    #: commands submitted (0 where the workload does not count commands)
    commands: int = 0
    outcomes: Dict[str, float] = field(default_factory=dict)
    #: the pass's engine trace, kept only for the per-command timeline
    trace: Any = None


def _outcomes(**values: float) -> Dict[str, float]:
    out = {name: 0.0 for name in OUTCOMES}
    out.update(values)
    return out


def _device_count() -> int:
    from repro.hardware.presets import aji_cluster15_node

    return len(aji_cluster15_node().devices)


# ---------------------------------------------------------------------------
class Figures:
    """Every registered experiment, serially, in one process."""

    def __init__(self, seed: int, scale: str, cache_dir: str) -> None:
        from repro.bench import figures, parallel
        from repro.ocl.platform import Platform
        from repro.predict.store import default_predict_dir, load_or_fit

        self.cache_dir = cache_dir
        self.fast = scale == "smoke"
        # fig4 alone is a third of a fast-mode pass; smoke runs leave it out.
        self.names = [
            n for n in figures.EXPERIMENTS if not (self.fast and n == "fig4")
        ]
        parallel.prewarm_profile_cache(self.names, cache_dir)
        spec = Platform(profile=True, profile_dir=cache_dir).spec
        load_or_fit(spec, default_predict_dir(profile_dir=cache_dir))

    def run(self) -> PassResult:
        from repro.bench.parallel import run_parallel

        results = run_parallel(
            self.names, fast=self.fast, jobs=1, profile_dir=self.cache_dir
        )
        # The loc table counts application source lines, which legitimately
        # change with application code, so it stays out of the checksum.
        digest = hashlib.sha256()
        for name, res in results.items():
            if name == "loc":
                continue
            for i, row in enumerate(res.rows):
                for col in res.columns:
                    value = row.get(col)
                    if isinstance(value, (int, float)):
                        digest.update(f"{name}|{i}|{col}|{value!r}\n".encode())
        overhead = 0.0
        if "fig4" in results:
            factors = [
                max(row["overhead_pct"], 0.0) / 100.0 + 1.0
                for row in results["fig4"].rows
                if row["schedule"] == "Auto Fit"
            ]
            overhead = 100.0 * (math.prod(factors) ** (1.0 / len(factors)) - 1.0)
        return PassResult(
            attempted=len(self.names),
            failed=0,
            checksum=digest.hexdigest()[:16],
            outcomes=_outcomes(autofit_overhead_pct=overhead),
        )


# ---------------------------------------------------------------------------
def _latency_outcomes(report, with_p999: bool) -> Dict[str, float]:
    p50, p99, p999 = report.merged.quantiles([0.50, 0.99, 0.999])
    return {
        "sim_p50_ms": p50 * 1e3,
        "sim_p99_ms": p99 * 1e3,
        # p99.9 needs >= 10 samples beyond it: reported only at 10k+ requests
        "sim_p999_ms": p999 * 1e3 if with_p999 else 0.0,
        "sim_goodput": report.simulated_throughput,
    }


class ReplayEngine:
    """Engine-mode open-loop Poisson replay, 4 tenants, default chunk."""

    TENANTS = 4
    RATE = 300.0  # per tenant, ~2/3 of one tenant fleet's capacity

    def __init__(self, seed: int, scale: str, cache_dir: str) -> None:
        from repro.replay.runner import ReplayConfig
        from repro.replay.shard import ensure_profile_cache

        ensure_profile_cache(cache_dir)
        self.config = ReplayConfig(
            commands=150_000 if scale == "full" else 5_000,
            tenants=self.TENANTS,
            rate=self.RATE,
            seed=seed,
            profile_dir=cache_dir,
        )
        self.devices = _device_count()

    def run(self) -> PassResult:
        from repro.replay.shard import run_serial

        report = run_serial(self.config)
        attempted = self.config.commands * self.config.tenants
        busy = sum(
            sec
            for t in report.tenants
            for res, sec in t.device_seconds.items()
            if res.startswith("dev:")
        )
        capacity = sum(self.devices * t.end_time for t in report.tenants)
        return PassResult(
            attempted=attempted,
            failed=attempted - report.total_commands,
            checksum=repr(report.checksum),
            commands=attempted,
            outcomes=_outcomes(
                **_latency_outcomes(report, with_p999=True),
                **{"sim.busy_frac": busy / capacity},
            ),
        )


class ServiceFairshare:
    """Service-mode replay: 4 weighted tenants on one fair-share fleet.

    The arrival schedule is fixed rather than drawn from the seed.  The
    arbiter sizes its credit quantum from the smallest pool of its first
    round, so the number of rounds, and with it the host cost, follows the
    first 64 arrivals: 631 to 1,499 rounds (3.7M to 8.8M ``kernel_time``
    calls) across seeds 1, 14, 18 and 20.  Host time is comparable between
    runs only on one schedule.
    """

    TENANTS = 4
    WEIGHTS = (4.0, 2.0, 1.0, 1.0)
    RATE = 40.0  # per tenant: 160/s offered
    SCHEDULE_SEED = 1

    def __init__(self, seed: int, scale: str, cache_dir: str) -> None:
        from repro.replay.runner import ReplayConfig
        from repro.replay.shard import ensure_profile_cache

        ensure_profile_cache(cache_dir)
        self.config = ReplayConfig(
            commands=800 if scale == "full" else 60,
            tenants=self.TENANTS,
            rate=self.RATE,
            seed=self.SCHEDULE_SEED,
            weights=self.WEIGHTS,
            chunk=64,
            profile_dir=cache_dir,
        )
        self.devices = _device_count()

    def run(self) -> PassResult:
        from repro.replay.runner import run_service_replay

        report = run_service_replay(self.config)
        attempted = self.config.commands * self.config.tenants
        busy = sum(t.device_seconds["fleet"] for t in report.tenants)
        return PassResult(
            attempted=attempted,
            failed=attempted - report.total_commands,
            checksum=repr(report.checksum),
            commands=attempted,
            outcomes=_outcomes(
                **_latency_outcomes(report, with_p999=False),
                fairness_jain=report.fairness,
                **{"sim.busy_frac": busy / (self.devices * report.virtual_seconds)},
            ),
        )


# ---------------------------------------------------------------------------
class StreamModes:
    """Double-buffered streaming on 4 scheduled queues: overlap + split +
    one scheduler trigger per kernel, every read-back checked.

    The host keeps a window of ``WINDOW`` rounds in flight and finishes the
    queues at its end, then checks the window's read-backs.  Round ``r``
    uploads the window slot's fixed input and scales it by ``r + 1``, so a
    stale or misplaced read-back cannot match.
    """

    QUEUES = 4
    N = 1 << 16
    FLOPS = (20, 200, 2000)
    WINDOW = 16

    def __init__(self, seed: int, scale: str, cache_dir: str) -> None:
        from repro.ocl.platform import Platform

        Platform(profile=True, profile_dir=cache_dir)
        self.cache_dir = cache_dir
        self.rounds = 1500 if scale == "full" else 40
        rng = random.Random(seed)
        self.flops = [rng.choice(self.FLOPS) for _ in range(self.QUEUES)]

    def run(self) -> PassResult:
        import numpy as np

        from repro.core.flags import SchedulerConfig
        from repro.core.runtime import MultiCL
        from repro.ocl.enums import ContextScheduler, SchedFlag

        n = self.N
        mcl = MultiCL(
            policy=ContextScheduler.AUTO_FIT,
            config=SchedulerConfig(per_kernel_trigger=True),
            overlap=True,
            split=True,
            profile_dir=self.cache_dir,
        )
        ctx = mcl.context
        flags = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH

        def source_value(slot: int, qi: int) -> int:
            return slot * self.QUEUES + qi + 1

        streams = []
        for qi, flops in enumerate(self.flops):
            program = ctx.create_program(
                f"// @multicl flops_per_item={flops} bytes_per_item=8 writes=1\n"
                f"__kernel void scale{qi}(__global float* src, "
                f"__global float* dst, float s) {{ }}\n"
            ).build()
            kernel = program.create_kernel(f"scale{qi}")
            kernel.set_host_function(
                lambda a: np.multiply(a["src"], a["s"], out=a["dst"])
            )
            queue = mcl.queue(flags=flags, name=f"q{qi}")
            ins = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32),
                                     name=f"in{qi}.{b}") for b in range(2)]
            outs = [ctx.create_buffer(4 * n, host_array=np.zeros(n, np.float32),
                                      name=f"out{qi}.{b}") for b in range(2)]
            sources = [np.full(n, source_value(slot, qi), np.float32)
                       for slot in range(self.WINDOW)]
            results = [np.empty(n, np.float32) for _ in range(self.WINDOW)]
            streams.append((queue, kernel, ins, outs, sources, results))

        wrong = 0
        t0 = mcl.now
        for r in range(self.rounds):
            b = r % 2
            slot = r % self.WINDOW
            for queue, kernel, ins, outs, sources, results in streams:
                queue.enqueue_write_buffer(ins[b], sources[slot])
                kernel.set_arg(0, ins[b])
                kernel.set_arg(1, outs[b])
                kernel.set_arg(2, float(r + 1))
                queue.enqueue_nd_range_kernel(kernel, (n,), (64,))
                queue.enqueue_read_buffer(outs[b], results[slot])
            if slot == self.WINDOW - 1 or r == self.rounds - 1:
                for queue, *_ in streams:
                    queue.finish()
                # A strided sample of every read-back in the window.
                for done in range(r - slot, r + 1):
                    k = done % self.WINDOW
                    for qi, stream in enumerate(streams):
                        expected = source_value(k, qi) * (done + 1)
                        wrong += not (stream[5][k][::64] == expected).all()
        makespan = mcl.now - t0
        trace = mcl.engine.trace
        busy = sum(
            sec for res, sec in trace.by_resource().items()
            if res.startswith("dev:")
        )
        commands = 3 * self.QUEUES * self.rounds
        return PassResult(
            attempted=self.QUEUES * self.rounds,
            failed=wrong,
            checksum=repr(makespan),
            commands=commands,
            outcomes=_outcomes(
                sim_makespan_s=makespan,
                **{"sim.busy_frac": busy / (len(mcl.device_names) * mcl.now)},
            ),
            trace=trace,
        )


WORKLOADS = {
    "figures": Figures,
    "replay-engine": ReplayEngine,
    "service-fairshare": ServiceFairshare,
    "stream-modes": StreamModes,
}


def timeline(trace) -> List[Dict[str, Any]]:
    """Per-command timeline (oclkit ``concurrent.c`` shape): each interval's
    resource, category and start/end relative to the earliest event."""
    intervals = list(trace)
    if not intervals:
        return []
    t0 = min(iv.start for iv in intervals)
    return [
        {
            "resource": iv.resource,
            "category": iv.category,
            "task": iv.task,
            "start": iv.start - t0,
            "end": iv.end - t0,
        }
        for iv in sorted(intervals, key=lambda iv: (iv.start, iv.end))
    ]

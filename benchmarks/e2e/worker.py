"""One benchmark process: set up one workload, run its passes, report.

``run.py`` starts this script in a fresh interpreter per workload.  It
prints protocol lines on standard output, each a JSON object with an
``event`` key: ``ready`` (with the ``time.monotonic()`` reading at which
set-up finished, and the host speed measured right after) and, unless
``--setup-only``, ``result``.

Untraced (``--trace 0``): :data:`PASSES` passes run back to back, each
under a :class:`HostSpeedProbe`; each pass's wall time, host speed,
checksum and virtual-time outcomes are reported.  Traced (``--trace 1``):
one untraced pass, then one pass under :class:`tracer.Tracer`, whose spans,
Chrome trace and per-layer summary go to ``--out``.

Host speed is how fast a fixed pure-Python loop runs now, against how fast
it runs on a quiet 2.0 GHz Xeon: 1.0 there, below 1 when the host is slow.
The loop calls no ``repro`` code, so no change to the program moves it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

#: Timed passes of an untraced run; host times are medians over them.
PASSES = 3
#: The set-up reading: iterations, and their seconds on the quiet host.
REFERENCE_ITERATIONS, REFERENCE_S = 1_000_000, 0.15
#: One in-pass probe: iterations, and their seconds on the quiet host (a
#: probe runs cold in a signal handler, so its per-iteration time is higher).
PROBE_ITERATIONS, PROBE_S = 5_000, 0.0008
PROBE_PERIOD_S = 0.1


def reference_seconds(iterations: int) -> float:
    """Host seconds of the fixed loop (dict reads and writes, integer
    arithmetic) run ``iterations`` times."""
    table = {}
    total = 0
    start = time.perf_counter()
    for i in range(iterations):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return time.perf_counter() - start


class HostSpeedProbe:
    """Samples host speed during a timed region (a context manager).

    The host's speed drifts by tens of percent over minutes, and short
    readings between passes catch bursts the passes average out.  So a
    ``SIGALRM`` timer runs a ~1 ms probe of the fixed loop every
    :data:`PROBE_PERIOD_S` of wall time, inside the region, about 1% of it.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _probe(self, _signum, _frame) -> None:
        self.samples.append(reference_seconds(PROBE_ITERATIONS))

    def __enter__(self) -> "HostSpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self) -> float:
        """Seconds the probes took out of the region."""
        return sum(self.samples)

    def speed(self) -> float:
        """Median probe speed; a region too short for a probe gets one now."""
        samples = self.samples or [reference_seconds(PROBE_ITERATIONS)]
        return PROBE_S / statistics.median(samples)


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def timed_pass(workload, around=None):
    """(wall seconds, PassResult or None if the pass raised), timed inside
    the context manager ``around`` (a tracer or a probe)."""
    # Contexts hold reference cycles; collecting them between passes keeps
    # the previous pass's garbage out of this pass's time and peak memory.
    gc.collect()
    with around or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            result = workload.run()
        except Exception:  # a failed pass is reported, not fatal
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - start
    return wall, result


def pass_record(wall: float, result) -> dict:
    if result is None:
        return {"wall": wall, "attempted": 1, "failed": 1, "checksum": None,
                "commands": 0, "outcomes": {}}
    return {"wall": wall, "attempted": result.attempted, "failed": result.failed,
            "checksum": result.checksum, "commands": result.commands,
            "outcomes": result.outcomes}


def run_untraced(workload) -> dict:
    passes = []
    for _ in range(PASSES):
        probe = HostSpeedProbe()
        wall, result = timed_pass(workload, probe)
        passes.append({**pass_record(wall - probe.busy(), result),
                       "speed": probe.speed()})
        if result is None:
            break
        del result  # keeps this pass's engine trace out of the next pass's peak
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"passes": passes, "peak_rss_mb": rss_mb}


def run_traced(workload, name: str, out: Path) -> dict:
    from tracer import Tracer
    from workloads import timeline

    wall, plain = timed_pass(workload)
    passes = [pass_record(wall, plain)]
    if plain is None:
        return {"passes": passes, "layers": {}}
    tracer = Tracer()
    traced_wall, traced = timed_pass(workload, tracer)
    passes.append(pass_record(traced_wall, traced))
    if traced is None:
        return {"passes": passes, "layers": {}}
    layers = tracer.metrics()
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
    layers.update(traced.outcomes)
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out, name)
    with open(out / f"{name}.layers.json", "w") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    if traced.trace is not None:
        with open(out / f"{name}.timeline.jsonl", "w") as fh:
            for row in timeline(traced.trace):
                fh.write(json.dumps(row) + "\n")
    return {"passes": passes, "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, args.cache_dir)
    ready = time.monotonic()
    speed = REFERENCE_S / reference_seconds(REFERENCE_ITERATIONS)
    emit("ready", time=ready, speed=speed)
    if args.setup_only:
        return 0
    if args.trace:
        report = run_traced(workload, args.workload, Path(args.out))
    else:
        report = run_untraced(workload)
    emit("result", **report)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MultiCL reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # all workloads, untraced + traced
    python3 benchmarks/e2e/run.py --workload figures --seed 1 --trace 0
    python3 benchmarks/e2e/run.py --workload stream-modes --trace 1
    python3 benchmarks/e2e/run.py --json runs.jsonl ... # append each run's record
    python3 benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl

Each workload runs in fresh child processes (``worker.py``), one at a time,
each single-threaded.  Set-up (interpreter start, imports, device-profile
cache, predictor fit) is timed in three separate processes on fresh caches
and reported as the median; the last of them goes on to run three passes.
``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced pass and reports the
``per_layer`` metrics, writing spans, a Chrome trace, the per-layer summary
and (for ``stream-modes``) the per-command timeline under ``--out``.

The bounded host times (``setup_s``, ``pass_s``) are given at reference
host speed: each raw time is multiplied by the host speed the worker
measured with a fixed loop (after each set-up; during each pass), which
cancels most of the drift in host speed between runs.  The raw times are
printed beside them (``setup_wall_s``, ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A pass whose
checksum differs from the pin in ``pins.json`` (full scale; default seed
unless the workload ignores the seed), from the run's first pass, or
(traced) from the untraced pass counts all its operations as failed, and
the run exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("figures", "replay-engine", "service-fairshare", "stream-modes")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
#: Wall-clock limit for one workload run, set-up included.
TIME_LIMIT_S = 170.0
#: Units of the metrics reported beside the ``BENCHMARK.json`` ones.
EXTRA_UNITS = {"cmds_per_s": "1/s", "error_rate": "ratio", "wall_s": "s",
               "setup_wall_s": "s", "host_speed": "ratio"}


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def child_env(cache_dir: str) -> Dict[str, str]:
    """The parent's environment without ``MULTICL_*`` knobs, one thread per
    numeric library, and the profile caches pointed at ``cache_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MULTICL_")}
    env.update(
        MULTICL_PROFILE_DIR=cache_dir,
        MULTICL_PROFILE_CACHE=cache_dir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(argv: List[str], scratch: Path, deadline: float):
    """Run one worker on a fresh cache; return (set-up seconds, events)."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv, "--cache-dir", cache],
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(cache),
            timeout=max(deadline - started, 1.0),
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    events = {}
    for line in proc.stdout.splitlines():
        if line.startswith('{"event"'):
            event = json.loads(line)
            events[event.pop("event")] = event
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or "ready" not in events:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return events["ready"]["time"] - started, events


def run_workload(name: str, seed: int, trace: int, scale: str, out: Path,
                 pins: dict) -> dict:
    """Set up and run one workload; returns its record (see ``summarize``)."""
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    argv = ["--workload", name, "--seed", str(seed), "--trace", str(trace),
            "--scale", scale, "--out", str(out)]
    setups = []
    repeats = 1 if trace else SETUP_REPEATS
    for i in range(repeats):
        last = i == repeats - 1
        setup_s, events = spawn(argv if last else argv + ["--setup-only"],
                                scratch, deadline)
        setups.append((setup_s, events["ready"]["speed"]))
    try:
        scratch.rmdir()
    except OSError:
        pass
    return summarize(name, seed, trace, scale, setups, events["result"], pins)


def summarize(name: str, seed: int, trace: int, scale: str,
              setups: List[Tuple[float, float]], result: dict,
              pins: dict) -> dict:
    """One run's record from its (set-up seconds, host speed) pairs and the
    worker's ``result`` event."""
    passes = result["passes"]
    pin = None
    if scale == pins["scale"] and (
        seed == pins["seed"] or name in pins["seed_independent"]
    ):
        pin = pins["checksums"].get(name)
    expected = pin if pin is not None else passes[0]["checksum"]
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"]
        wrong = p["checksum"] != expected or p["outcomes"] != passes[0]["outcomes"]
        failed += p["attempted"] if wrong else p["failed"]

    metrics: Dict[str, float] = {
        "setup_s": statistics.median(s * speed for s, speed in setups),
        "setup_wall_s": statistics.median(s for s, _ in setups),
    }
    walls = [p["wall"] for p in passes]
    if trace:
        metrics.update(result["layers"])
    else:
        metrics["pass_s"] = statistics.median(p["wall"] * p["speed"] for p in passes)
        metrics["wall_s"] = statistics.median(walls)
        metrics["host_speed"] = statistics.median(p["speed"] for p in passes)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        if passes[0]["commands"]:
            metrics["cmds_per_s"] = passes[0]["commands"] / metrics["wall_s"]
        metrics.update(passes[0]["outcomes"])
    metrics["error_rate"] = failed / attempted
    return {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "checksum": passes[0]["checksum"], "pin": pin, "walls": walls,
        "speeds": [p.get("speed") for p in passes], "setups": setups,
        "metrics": metrics,
    }


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_share"):
        return "ratio"
    return EXTRA_UNITS.get(name, "")


def report(record: dict, spec: dict) -> dict:
    """Print ``record`` for people; return the result object to print last."""
    section = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    names = [m["name"] for m in section]
    missing = [n for n in names if n not in record["metrics"]]
    if missing and record["correct"]:
        raise KeyError(f"{record['workload']}: metrics not measured: {missing}")
    # A pass that raised measured nothing after it: its metrics read 0 and
    # the result line says the run failed.
    values = {n: record["metrics"].get(n, 0.0) for n in names}
    tag = f"{record['workload']} (seed {record['seed']}, {record['scale']}, " \
          f"trace {record['trace']})"
    print(tag)
    extras = {n: v for n, v in sorted(record["metrics"].items()) if n not in values}
    for name, value in {**values, **extras}.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name, spec)}")
    pin = record["pin"]
    status = "no pin" if pin is None else (
        "matches pin" if record["checksum"] == pin else f"MISMATCH, pin {pin}")
    print(f"  checksum {record['checksum']} ({status}); "
          f"{record['failed']}/{record['attempted']} failed")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in section
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # SIGTERM unwinds like an exception, so a running worker is killed and
    # waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="accepted only as run_seconds of BENCHMARK.json, "
                        "which benchmark harnesses pass; a run is three passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: 0 with --workload, both without)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", type=Path, help="append run records (JSONL)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for traces and summaries")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "pins.json")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']} (run_seconds "
                     f"of BENCHMARK.json): the run length is fixed")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        modes = [args.trace]
    else:
        modes = [0] if args.workload else [0, 1]

    results = []
    for name in names:
        for trace in modes:
            record = run_workload(name, args.seed, trace, args.scale, args.out,
                                  pins)
            if args.json:
                with open(args.json, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
            results.append((record, report(record, spec)))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{rec['workload']}/{name}": value
                for rec, r in results
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

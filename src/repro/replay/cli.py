"""Command line for open-loop replay: ``python -m repro.replay ...``.

Also reachable as ``python -m repro.bench replay ...`` so the whole
evaluation surface lives under one entry point.

Examples::

    # one million commands, four tenants, Poisson arrivals, two shards
    python -m repro.replay --commands 250000 --tenants 4 --shards 2

    # bursty traffic through the shared fair-share service
    python -m repro.replay --mode service --process bursty \\
        --commands 2000 --tenants 3 --weights 4,2,1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.replay.runner import ReplayConfig

__all__ = ["build_config", "main"]


def _parse_weights(raw: str) -> tuple:
    try:
        weights = tuple(float(w) for w in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights must be comma-separated numbers, got {raw!r}"
        )
    if not weights or any(w <= 0.0 for w in weights):
        raise argparse.ArgumentTypeError("weights must be positive")
    return weights


def _build_parser(prog: Optional[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog or "python -m repro.replay",
        description="Open-loop traffic replay against the simulated fleet: "
        "seeded arrival processes, per-request latency percentiles, "
        "throughput, and per-tenant fairness.",
    )
    parser.add_argument(
        "--commands", type=int, default=100_000, metavar="N",
        help="commands per tenant (default 100000)",
    )
    parser.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="independent tenants (default 4)",
    )
    parser.add_argument(
        "--process", choices=("poisson", "bursty", "diurnal"),
        default="poisson", help="arrival process (default poisson)",
    )
    parser.add_argument(
        "--rate", type=float, default=300.0, metavar="R",
        help="arrivals per simulated second per tenant (default 300, "
        "~2/3 of a tenant fleet's capacity)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; tenant i replays substream derive_seed(seed, i)",
    )
    parser.add_argument(
        "--weights", type=_parse_weights, default=(1.0,), metavar="W1,W2,...",
        help="per-tenant fair-share weights, cycled (default 1)",
    )
    parser.add_argument(
        "--policy", choices=("jsq", "rr"), default="jsq",
        help="engine-mode dispatch policy (default jsq)",
    )
    parser.add_argument(
        "--mode", choices=("engine", "service"), default="engine",
        help="engine: independent per-tenant replicas at scale; "
        "service: shared fair-share fleet with real contention",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="fan tenants across N processes (engine mode; default 1; "
        "results are bit-identical to serial)",
    )
    parser.add_argument(
        "--chunk", type=int, default=8192, metavar="K",
        help="arrivals injected per epoch (default 8192)",
    )
    parser.add_argument(
        "--spill-every", type=int, default=16384, metavar="K",
        help="streaming-trace spill threshold (default 16384)",
    )
    parser.add_argument(
        "--no-streaming", action="store_true",
        help="keep the full trace resident (small runs only)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="spill intervals to PATH.tenant<i>.jsonl (engine mode) or "
        "PATH.service.jsonl (service mode) instead of discarding",
    )
    parser.add_argument(
        "--cold-start", action="store_true",
        help="engine mode: model the dynamic profiler's cold start — the "
        "first arrival of each unseen kernel family runs one profiling "
        "launch per device before requests of that family are served",
    )
    parser.add_argument(
        "--predict", action="store_true",
        help="with --cold-start: serve unseen families from the "
        "static-feature predictor (repro.predict) — zero profiling "
        "launches hit the devices",
    )
    parser.add_argument(
        "--family-churn", type=int, default=0, metavar="N",
        help="with --cold-start: every N arrivals, families count as "
        "unseen again (0 = only the very first sight is cold)",
    )
    parser.add_argument(
        "--verify-serial", action="store_true",
        help="after a sharded run, re-run serially and fail on any "
        "checksum difference",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def build_config(args: argparse.Namespace) -> ReplayConfig:
    return ReplayConfig(
        commands=args.commands,
        tenants=args.tenants,
        process=args.process,
        rate=args.rate,
        seed=args.seed,
        weights=args.weights,
        policy=args.policy,
        chunk=args.chunk,
        spill_every=args.spill_every,
        streaming=not args.no_streaming,
        trace_path=args.trace,
        cold_start=args.cold_start,
        predict=args.predict,
        family_churn=args.family_churn,
    ).validate()


def _report_json(report) -> str:
    pct = report.percentiles()
    return json.dumps(
        {
            "total_commands": report.total_commands,
            "virtual_seconds": report.virtual_seconds,
            "wall_seconds": report.wall_seconds,
            "simulated_throughput": report.simulated_throughput,
            "replay_rate": report.replay_rate,
            "fairness": report.fairness,
            "checksum": report.checksum,
            "latency": {**pct, "mean": report.merged.mean},
            "shares": report.shares,
            "tenants": [
                {
                    "tenant": t.tenant,
                    "weight": t.weight,
                    "completed": t.completed,
                    "end_time": t.end_time,
                    "throughput": t.throughput,
                    "spilled": t.spilled,
                    "checksum": t.checksum,
                    "profiling_epochs": t.profiling_epochs,
                    "predicted_epochs": t.predicted_epochs,
                }
                for t in report.tenants
            ],
        },
        indent=2,
    )


def main(argv: Optional[List[str]] = None, prog: Optional[str] = None) -> int:
    args = _build_parser(prog).parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.mode == "service":
        if args.shards != 1:
            print(
                "error: --shards applies to engine mode only (service mode "
                "shares one fleet)",
                file=sys.stderr,
            )
            return 2
        from repro.replay.runner import run_service_replay
        from repro.replay.shard import ensure_profile_cache

        import time

        started = time.perf_counter()
        # As in engine mode: a warm profile cache charges no simulated
        # time, so the report does not depend on the cache's prior state.
        config = config.with_profile_dir(ensure_profile_cache(config.profile_dir))
        report = run_service_replay(config)
        report.wall_seconds = time.perf_counter() - started
    else:
        from repro.replay.shard import (
            run_serial,
            run_sharded,
            verify_against_serial,
        )

        report = (
            run_serial(config)
            if args.shards <= 1
            else run_sharded(config, args.shards)
        )
        if args.verify_serial:
            if not verify_against_serial(report, config):
                print(
                    "verify-serial FAILED: sharded replay diverged from the "
                    "serial reference",
                    file=sys.stderr,
                )
                return 1
            print("verified: sharded replay bit-identical to the serial run")

    print(_report_json(report) if args.json else report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

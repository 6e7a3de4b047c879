"""Command-line entry point: ``python -m repro.bench <experiment> [--full]``.

``list`` shows the available experiments; ``all`` runs every one.  Fast
mode (default) uses reduced problem classes/iterations; ``--full`` runs the
paper-scale configurations of Section VI.  Every run goes through
:func:`~repro.bench.parallel.run_parallel`: ``--jobs N`` fans the
experiments' independent units across N worker processes, ``--jobs 1``
(the default) runs them in-process, and the results are identical either
way (``--verify-serial`` asserts it).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench.figures import EXPERIMENTS
from repro.bench.parallel import run_parallel, verify_against_serial

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "replay":
        # Open-loop replay has its own option surface; hand the rest of the
        # command line to its CLI so both spellings behave identically:
        # ``python -m repro.bench replay ...`` == ``python -m repro.replay ...``
        from repro.replay.cli import main as replay_main

        return replay_main(argv[1:], prog="python -m repro.bench replay")
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the MultiCL paper's tables and figures "
        "on the simulated testbed.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'list', or 'replay' "
        "(open-loop traffic replay; see 'replay --help')",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale workloads (slower); default is a reduced fast mode",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fan independent experiment units across N processes "
        "(default 1 = in-process; results are identical either way)",
    )
    parser.add_argument(
        "--verify-serial",
        action="store_true",
        help="after a parallel run, re-run serially and fail on any "
        "difference (the determinism guarantee, enforced)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, exp in EXPERIMENTS.items():
            print(f"{name:10s} {exp.describe}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2
    if args.verify_serial and args.jobs == 1:
        print("--verify-serial requires --jobs N (N != 1)", file=sys.stderr)
        return 2

    fast = not args.full
    t0 = time.time()
    results = run_parallel(names, fast=fast, jobs=args.jobs)
    wall = time.time() - t0
    for result in results.values():
        print(result.render())
        print()
    print(f"({len(names)} experiment(s) regenerated in {wall:.1f}s wall "
          f"time, --jobs {args.jobs})")
    if args.verify_serial:
        mismatches = verify_against_serial(results, fast=fast)
        if mismatches:
            print(
                f"parallel/serial mismatch in: {', '.join(mismatches)}",
                file=sys.stderr,
            )
            return 1
        print("verified: parallel results identical to the serial run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Process-pool runner for the experiment fleet.

The paper's evaluation is a fleet of *independent* simulations — each
figure, and each configuration inside a sweep figure, runs its own
:class:`~repro.ocl.platform.Platform` with its own event engine.  This
module fans those units (rows of :data:`repro.bench.figures.EXPERIMENTS`)
across a :class:`concurrent.futures.ProcessPoolExecutor` and merges their
rows back in canonical unit order, so a parallel run produces
:class:`~repro.bench.harness.ExperimentResult`\\ s identical to the serial
path — the serial results remain the source of truth and ``--verify-serial``
(or :func:`verify_against_serial`) asserts the equality.

Determinism requires one piece of care: on a *cold* device-profile cache
the microbenchmarks charge the unit's simulated engine before the workload
starts, shifting every later timestamp by a constant — and float addition
at different absolute offsets differs in ulps.  The runner therefore
**prewarms** the shared on-disk profile cache (one measurement per node
spec, single-flight locked in :mod:`repro.core.profile_store`) before
fanning out (and :func:`~repro.bench.figures.run_experiment` does the same),
so every unit — serial or parallel, first or last — runs with a warm cache
and bit-identical timestamps.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench import figures
from repro.bench.harness import ExperimentResult
from repro.core import profile_store

__all__ = [
    "default_jobs",
    "prewarm_profile_cache",
    "run_parallel",
    "verify_against_serial",
]


def default_jobs() -> int:
    """Worker count when ``--jobs`` is given without a value: the CPUs."""
    return max(os.cpu_count() or 1, 1)


def prewarm_profile_cache(
    names: Iterable[str], profile_dir: Optional[str]
) -> str:
    """Warm every node spec the experiments ``names`` need into
    ``profile_dir`` (:func:`repro.core.profile_store.warm`); returns it."""
    factories = dict.fromkeys(
        f for name in names for f in figures.experiment_prewarm_specs(name)
    )
    return profile_store.warm(
        [f() if f is not None else None for f in factories], profile_dir
    )


def _run_unit(task: Tuple[str, object, bool]):
    name, key, fast = task
    return figures.run_experiment_unit(name, key, fast)


def run_parallel(
    names: Iterable[str],
    fast: bool = True,
    jobs: Optional[int] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, ExperimentResult]:
    """Run ``names`` with their units fanned across ``jobs`` processes.

    Returns ``{name: ExperimentResult}`` in the input order.  ``jobs=None``
    uses :func:`default_jobs`; ``jobs=1`` executes the same unit schedule
    in-process (useful to isolate pool effects).  ``profile_dir`` defaults
    to the harness-wide shared directory (``MULTICL_PROFILE_DIR`` or a
    per-process tempdir cleaned at exit).  Units share identical NPB runs
    within the call (:func:`~repro.bench.figures.shared_runs`).
    """
    names = list(names)
    jobs = default_jobs() if jobs is None else max(int(jobs), 1)
    profile_dir = prewarm_profile_cache(names, profile_dir)

    tasks: List[Tuple[str, object, bool]] = []
    counts: List[Tuple[str, int]] = []
    for name in names:
        units = figures.experiment_units(name, fast)
        counts.append((name, len(units)))
        tasks.extend((name, key, fast) for key in units)

    with figures.shared_runs():
        payloads = profile_store.fork_map(_run_unit, tasks, jobs, profile_dir)

    results: Dict[str, ExperimentResult] = {}
    offset = 0
    for name, n in counts:
        results[name] = figures.merge_experiment_units(
            name, payloads[offset : offset + n]
        )
        offset += n
    return results


def verify_against_serial(
    results: Dict[str, ExperimentResult], fast: bool = True
) -> List[str]:
    """Re-run each experiment serially and compare; returns mismatches.

    The profile cache is warm after a parallel run, so the serial rerun is
    cheap and exercises exactly the reference path.
    """
    mismatches: List[str] = []
    for name, parallel_result in results.items():
        serial_result = figures.run_experiment(name, fast=fast)
        if serial_result != parallel_result:
            mismatches.append(name)
    return mismatches

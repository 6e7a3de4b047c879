"""Sharded tenant replay: fan independent tenants across processes.

Engine-mode tenants are independent replicas (own platform, own engine,
own derived seed), so sharding is embarrassingly parallel — and, more
importantly, *bit-exact*: :func:`run_serial` and :func:`run_sharded`
produce identical merged reports (including the float checksum) because

* every tenant's arrival schedule depends only on ``derive_seed(seed, i)``,
  never on which process replays it;
* the device-profile cache is prewarmed once (single-flight locked on
  disk) before any tenant starts, so every replica sees the same measured
  profile and a zero-time platform construction — the same discipline
  :mod:`repro.bench.parallel` uses for the experiment fleet, whose
  :func:`~repro.bench.parallel.fork_map` / worker-initializer machinery
  this module reuses;
* results are merged in tenant-index order regardless of completion order.

``verify_against_serial`` re-runs the schedule serially (cheap: the cache
is warm) and compares checksums — the CI replay smoke job's assertion.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.replay.metrics import ReplayReport, TenantResult, merge_results
from repro.replay.runner import ReplayConfig, run_tenant

__all__ = [
    "ensure_profile_cache",
    "run_serial",
    "run_sharded",
    "verify_against_serial",
]


def ensure_profile_cache(profile_dir: Optional[str]) -> str:
    """Warm the shared device-profile cache; return the resolved directory.

    Constructing one profiled platform measures (or loads) the default
    node's profile into ``profile_dir`` under the profile store's
    single-flight lock; every later construction — this process or a
    forked shard — then charges no simulated time, which keeps replay
    timestamps identical everywhere.
    """
    from repro.bench import figures
    from repro.ocl.platform import Platform

    if profile_dir is None:
        profile_dir = figures._profile_dir()
    else:
        figures.set_profile_dir(profile_dir)
    Platform(profile=True, profile_dir=profile_dir)
    return profile_dir


def _replay_one(task: Tuple[ReplayConfig, int]) -> TenantResult:
    config, index = task
    return run_tenant(config, index)


def run_serial(config: ReplayConfig) -> ReplayReport:
    """Replay every tenant in index order, in-process; the reference path."""
    config.validate()
    started = time.perf_counter()
    config = config.with_profile_dir(ensure_profile_cache(config.profile_dir))
    results = [run_tenant(config, i) for i in range(config.tenants)]
    report = merge_results(results)
    report.wall_seconds = time.perf_counter() - started
    return report


def run_sharded(config: ReplayConfig, shards: int) -> ReplayReport:
    """Replay tenants fanned across ``shards`` worker processes.

    Produces a report bit-identical to :func:`run_serial` on the same
    config (``wall_seconds`` excepted — that is measured, not simulated).
    """
    from repro.bench.figures import set_profile_dir
    from repro.bench.parallel import fork_map

    config.validate()
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    started = time.perf_counter()
    profile_dir = ensure_profile_cache(config.profile_dir)
    config = config.with_profile_dir(profile_dir)
    tasks = [(config, i) for i in range(config.tenants)]
    results: List[TenantResult] = fork_map(
        _replay_one,
        tasks,
        jobs=shards,
        initializer=set_profile_dir,
        initargs=(profile_dir,),
    )
    report = merge_results(results)
    report.wall_seconds = time.perf_counter() - started
    return report


def verify_against_serial(report: ReplayReport, config: ReplayConfig) -> bool:
    """Whether a (sharded) report matches a fresh serial replay bit-exactly."""
    serial = run_serial(config)
    if serial.checksum != report.checksum:
        return False
    if serial.total_commands != report.total_commands:
        return False
    return serial.merged.to_dict() == report.merged.to_dict()

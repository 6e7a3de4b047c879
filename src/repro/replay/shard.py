"""Sharded tenant replay: fan independent tenants across processes.

Engine-mode tenants are independent replicas (own platform, own engine,
own derived seed), so sharding is embarrassingly parallel — and, more
importantly, *bit-exact*: :func:`run_serial` and :func:`run_sharded`
produce identical merged reports (including the float checksum) because

* every tenant's arrival schedule depends only on ``derive_seed(seed, i)``,
  never on which process replays it;
* the device-profile cache is prewarmed once (single-flight locked on
  disk) before any tenant starts, so every replica sees the same measured
  profile and a zero-time platform construction — the warm-up and the
  process map (:func:`~repro.core.profile_store.warm`,
  :func:`~repro.core.profile_store.fork_map`) the experiment fleet uses;
* results are merged in tenant-index order regardless of completion order.

``verify_against_serial`` re-runs the schedule serially (cheap: the cache
is warm) and compares checksums — the CI replay smoke job's assertion.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core import profile_store
from repro.replay.metrics import ReplayReport, TenantResult, merge_results
from repro.replay.runner import ReplayConfig, run_tenant

__all__ = [
    "ensure_profile_cache",
    "run_serial",
    "run_sharded",
    "verify_against_serial",
]


def ensure_profile_cache(profile_dir: Optional[str]) -> str:
    """Warm the default node's device profile into the shared cache
    (:func:`repro.core.profile_store.warm`); return the directory."""
    return profile_store.warm([None], profile_dir)


def _replay_one(task: Tuple[ReplayConfig, int]) -> TenantResult:
    config, index = task
    return run_tenant(config, index)


def run_serial(config: ReplayConfig) -> ReplayReport:
    """Replay every tenant in index order, in-process; the reference path
    (:func:`run_sharded` with one shard)."""
    return run_sharded(config, 1)


def run_sharded(config: ReplayConfig, shards: int) -> ReplayReport:
    """Replay tenants fanned across ``shards`` worker processes.

    Produces a report bit-identical to :func:`run_serial` on the same
    config (``wall_seconds`` excepted — that is measured, not simulated).
    """
    config.validate()
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    started = time.perf_counter()
    profile_dir = ensure_profile_cache(config.profile_dir)
    config = config.with_profile_dir(profile_dir)
    tasks = [(config, i) for i in range(config.tenants)]
    results: List[TenantResult] = profile_store.fork_map(
        _replay_one, tasks, shards, profile_dir
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

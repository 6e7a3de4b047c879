"""Parallel experiment fleet: the experiment table's contract, determinism
vs the serial reference, runs shared within one call, profile-cache
prewarming, and the CLI flags."""

from contextlib import nullcontext

import pytest

from repro.bench import figures
from repro.bench.__main__ import main as bench_main
from repro.bench.figures import EXPERIMENTS, run_experiment
from repro.bench.parallel import (
    default_jobs,
    prewarm_profile_cache,
    run_parallel,
)
from repro.core import profile_store
from repro.core.flags import SchedulerConfig

#: Cheap experiments covering single-unit, multi-unit NPB, and the fig9
#: grid whose units each run both layouts.
CHEAP = ["fig3", "fig9", "loc"]


@pytest.fixture()
def shared_profile_dir(tmp_path):
    """Pin the harness profile cache to a per-test dir; restore after."""
    profile_store.set_profile_dir(str(tmp_path))
    yield str(tmp_path)
    profile_store.set_profile_dir(None)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_experiment(shared_profile_dir):
    for name, exp in EXPERIMENTS.items():
        assert len(exp.columns) == len(set(exp.columns)), f"{name} dup columns"
        for fast in (True, False):
            units = exp.units(fast)
            assert units, f"{name} declares no units"
            assert len(units) == len(set(map(repr, units))), f"{name} dup units"
    for name in CHEAP:
        columns = set(EXPERIMENTS[name].columns)
        for row in run_experiment(name, fast=True).rows:
            assert set(row) <= columns, (name, set(row) - columns)


def test_sweep_experiments_decompose_into_multiple_units():
    # The sweeps the tentpole names must actually fan out.
    for name in ("fig4", "fig6", "ablations", "baselines"):
        assert len(figures.experiment_units(name, True)) > 1


def test_prewarm_specs_include_cluster_extra():
    assert len(figures.experiment_prewarm_specs("cluster")) == 2
    assert figures.experiment_prewarm_specs("fig3") == (None,)


def test_manual_unit_composition_equals_run_experiment(shared_profile_dir):
    name = "fig3"
    # Warm the cache first: a cold first unit pays the device-profiling
    # charge on its engine, shifting its timestamps relative to a warm
    # rerun (the drift prewarming exists to eliminate).
    prewarm_profile_cache([name], shared_profile_dir)
    payloads = [
        figures.run_experiment_unit(name, key, True)
        for key in figures.experiment_units(name, True)
    ]
    composed = figures.merge_experiment_units(name, payloads)
    assert composed == run_experiment(name, fast=True)


def test_serial_path_prewarms_like_the_parallel_runner(tmp_path):
    # Each side starts on its own cold cache: the serial path must prewarm
    # too, or its first unit pays the device-profiling charge on its engine
    # and every later timestamp shifts by ulps.
    try:
        profile_store.set_profile_dir(str(tmp_path / "serial"))
        serial = run_experiment("fig3", fast=True)
        parallel = run_parallel(["fig3"], fast=True, jobs=1,
                                profile_dir=str(tmp_path / "parallel"))
    finally:
        profile_store.set_profile_dir(None)
    assert serial == parallel["fig3"]


# ---------------------------------------------------------------------------
# Parallel == serial (the determinism guarantee)
# ---------------------------------------------------------------------------
def test_parallel_results_identical_to_serial(shared_profile_dir):
    parallel = run_parallel(CHEAP, fast=True, jobs=4,
                            profile_dir=shared_profile_dir)
    assert list(parallel) == CHEAP
    for name in CHEAP:
        serial = run_experiment(name, fast=True)
        assert parallel[name] == serial, name


def test_jobs1_runs_the_same_unit_schedule(shared_profile_dir):
    inproc = run_parallel(["fig9"], fast=True, jobs=1,
                          profile_dir=shared_profile_dir)
    assert inproc["fig9"] == run_experiment("fig9", fast=True)


def test_fig9_merge_preserves_row_order(shared_profile_dir):
    result = run_parallel(["fig9"], fast=True, jobs=2,
                          profile_dir=shared_profile_dir)["fig9"]
    serial = run_experiment("fig9", fast=True)
    assert [r["mapping"] for r in result.rows] == [
        r["mapping"] for r in serial.rows
    ]


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------
@pytest.fixture()
def npb_calls(monkeypatch):
    """Count the NPB runs the harness actually simulates."""
    calls = []
    real = figures.run_npb

    def counting(app, **kw):
        calls.append(app.NAME)
        return real(app, **kw)

    monkeypatch.setattr(figures, "run_npb", counting)
    return calls


def test_runs_are_shared_within_one_call_only(shared_profile_dir, npb_calls,
                                              monkeypatch):
    # Fig. 5 and the profiled half of predicted_vs_profiled are Fig. 4's
    # AUTO_FIT runs; unshared, the three take 60 runs.
    names = ["fig4", "fig5", "predicted_vs_profiled"]
    first = run_parallel(names, fast=True, jobs=1)
    assert len(npb_calls) == 47
    # The memo dies with its call: a second call simulates everything again.
    second = run_parallel(names, fast=True, jobs=1)
    assert len(npb_calls) == 2 * 47
    # Outside a run call nothing is reused.
    del npb_calls[:]
    for _ in range(2):
        figures.run_experiment_unit("fig5", ("BT", "W"), True)
    assert len(npb_calls) == 2
    monkeypatch.setattr(figures, "shared_runs", nullcontext)
    unshared = run_parallel(names, fast=True, jobs=1)
    assert len(npb_calls) == 2 + 60
    assert first == second == unshared


def test_shared_run_key_follows_the_resolved_config(shared_profile_dir,
                                                    npb_calls, monkeypatch):
    for knob in ("MULTICL_PREDICT", "MULTICL_SPLIT", "MULTICL_OVERLAP",
                 "MULTICL_SANITIZE", "MULTICL_ITERATIVE_FREQUENCY"):
        monkeypatch.delenv(knob, raising=False)
    with figures.shared_runs():
        base = figures._npb("EP", "S", 1, True)
        # An explicit config equal to the environment's is the same run.
        same = figures._npb(
            "EP", "S", 1, True, config=SchedulerConfig(data_caching=True)
        )
        assert same is base and len(npb_calls) == 1
        # config=None follows MULTICL_* overrides, so the key must too.
        monkeypatch.setenv("MULTICL_PREDICT", "1")
        predicted = figures._npb("EP", "S", 1, True)
        assert predicted is not base and len(npb_calls) == 2


# ---------------------------------------------------------------------------
# Prewarming
# ---------------------------------------------------------------------------
def test_prewarm_charges_once_then_platforms_boot_warm(tmp_path):
    from repro.ocl.platform import Platform

    assert prewarm_profile_cache(["fig3"], str(tmp_path)) == str(tmp_path)
    assert len(list(tmp_path.glob("device-profile-*.json"))) == 1
    platform = Platform(profile=True, profile_dir=str(tmp_path))
    assert platform.engine.now == 0.0  # warm cache: no simulated charge


def test_prewarm_cluster_warms_both_specs(tmp_path):
    prewarm_profile_cache(["cluster"], str(tmp_path))
    assert len(list(tmp_path.glob("device-profile-*.json"))) == 2


def test_default_jobs_positive():
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_jobs_with_verify_serial(shared_profile_dir, capsys):
    assert bench_main(["fig9", "--jobs", "2", "--verify-serial"]) == 0
    out = capsys.readouterr().out
    assert "identical to the serial run" in out


def test_cli_verify_serial_requires_jobs(capsys):
    assert bench_main(["fig9", "--verify-serial"]) == 2


def test_cli_rejects_unknown_experiment_in_parallel(capsys):
    assert bench_main(["nope", "--jobs", "2"]) == 2

"""Fig. 10 — per-iteration profiling amortisation for FDM-Seismology."""

from repro.bench.figures import run_experiment


def test_fig10_amortization(run_once):
    result = run_once(run_experiment, "fig10", fast=True)
    times = result.column("total_ms")
    assert len(times) >= 10
    first, rest = times[0], times[1:]
    steady = sum(rest) / len(rest)
    # The first (profiled) iteration is visibly more expensive...
    assert first > steady * 1.5, (first, steady)
    # ...and the remaining iterations are flat (profile-cache hits).
    assert max(rest) <= steady * 1.1
    assert min(rest) >= steady * 0.9
    # Amortisation: total overhead stays a single-iteration affair.
    overhead_fraction = (first - steady) / (sum(times))
    assert overhead_fraction < 0.5
    # The paper's stacked split: stress (25 kernels) dominates velocity (7).
    for row in result.rows:
        assert row["stress_ms"] > row["velocity_ms"] > 0
    # Profiling work appears only in the first iteration.
    assert result.rows[0]["profiling_ms"] > 0
    assert all(r["profiling_ms"] == 0 for r in result.rows[1:])

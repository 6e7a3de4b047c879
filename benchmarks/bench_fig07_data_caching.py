"""Fig. 7 — effect of data caching on FT's profiling transfer overhead."""

from repro.bench.figures import run_experiment


def test_fig7_data_caching(run_once):
    result = run_once(run_experiment, "fig7", fast=True)
    assert result.column("queues") == [1, 2, 4, 8]
    for row in result.rows:
        # Caching always reduces the scheduler's data movement...
        assert row["with_caching_s"] < row["without_caching_s"], row
        # ...by a consistent margin at every queue count (paper: ≈50%;
        # our 3-device op-count arithmetic bounds it near ≈30%).
        assert 15.0 <= row["reduction_pct"] <= 60.0, row

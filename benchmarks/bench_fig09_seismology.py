"""Fig. 9 — FDM-Seismology across queue-device mappings and schedulers."""

from repro.bench.figures import run_experiment


def test_fig9_seismology_mappings(run_once):
    result = run_once(run_experiment, "fig9", fast=True)
    col = {r["mapping"]: r["column_major_ms"] for r in result.rows}
    row = {r["mapping"]: r["row_major_ms"] for r in result.rows}

    # Column-major: best when both queues share the CPU; worst when both
    # share a single GPU; spread ≈ 2.7x (paper).
    manual_col = {k: v for k, v in col.items() if k.startswith("(")}
    assert min(manual_col, key=manual_col.get) == "(cpu,cpu)"
    spread_col = max(manual_col.values()) / min(manual_col.values())
    assert 2.0 <= spread_col <= 3.5, spread_col

    # Row-major: best split across the two GPUs; ≈2.3x better than the
    # worst mapping (paper).
    manual_row = {k: v for k, v in row.items() if k.startswith("(")}
    best_row = min(manual_row, key=manual_row.get)
    assert best_row in ("(gpu0,gpu1)", "(gpu1,gpu0)")
    spread_row = max(manual_row.values()) / min(manual_row.values())
    assert 1.8 <= spread_row <= 3.0, spread_row

    # AUTO_FIT lands near the best mapping for BOTH layouts (its first
    # iteration carries the profiling cost; steady state is optimal).
    assert col["MultiCL Auto Fit"] <= min(manual_col.values()) * 1.5
    assert row["MultiCL Auto Fit"] <= min(manual_row.values()) * 1.5
    # Round-robin splits across the GPUs regardless of layout: fine for
    # row-major, suboptimal for column-major.
    assert abs(row["Round Robin"] - row["(gpu0,gpu1)"]) / row["(gpu0,gpu1)"] < 0.05
    assert col["Round Robin"] > col["(cpu,cpu)"] * 1.2

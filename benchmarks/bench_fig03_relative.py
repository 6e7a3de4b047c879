"""Fig. 3 — single-device CPU vs GPU relative execution times."""

from repro.bench.figures import FIG3_PAPER_RATIOS, run_experiment


def test_fig3_relative_execution(run_once):
    result = run_once(run_experiment, "fig3", fast=True)
    ratios = {r["benchmark"]: r["gpu_over_cpu"] for r in result.rows}
    # Headline shape: CPU wins everything except EP; EP wins on the GPU.
    for name, ratio in ratios.items():
        if name == "EP":
            assert ratio < 1.0, f"EP should be GPU-favoured, got {ratio:.2f}"
        else:
            assert ratio > 1.0, f"{name} should be CPU-favoured, got {ratio:.2f}"
    # Ordering of CPU advantage roughly matches the paper: BT/MG worst on
    # GPU, FT mildest.
    assert ratios["FT"] < ratios["BT"]
    assert ratios["FT"] < ratios["MG"]
    # Each ratio within a factor ~1.6 of the paper's bar (fast classes).
    for name, ratio in ratios.items():
        paper = FIG3_PAPER_RATIOS[name]
        assert 0.5 < ratio / paper < 2.0, (name, ratio, paper)

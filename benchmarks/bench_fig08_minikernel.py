"""Fig. 8 — impact of minikernel profiling for the EP benchmark."""

from repro.bench.figures import run_experiment


def test_fig8_minikernel_profiling(run_once):
    result = run_once(run_experiment, "fig8", fast=True)
    classes = sorted({r["class"] for r in result.rows})
    for pc in classes:
        mini = result.row_for(**{"class": pc, "mode": "minikernel"})
        full = result.row_for(**{"class": pc, "mode": "full kernel"})
        # Minikernel profiling is dramatically cheaper than full-kernel
        # profiling at every class.
        assert mini["profiling_overhead_pct"] < full["profiling_overhead_pct"]
        # And stays a small overhead in absolute terms (paper: ~3%).
        assert mini["profiling_overhead_pct"] < 10.0, (pc, mini)
    # Full-kernel overhead grows with the problem class (paper: up to ~20x,
    # because the whole kernel runs on the 20x-slower CPU during profiling).
    fulls = [
        result.row_for(**{"class": pc, "mode": "full kernel"})[
            "profiling_overhead_pct"
        ]
        for pc in ("S", "W", "A")
    ]
    assert fulls[0] < fulls[-1]

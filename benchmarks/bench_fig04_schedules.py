"""Fig. 4 — manual schedules vs AUTO_FIT with four command queues."""

from repro.bench.figures import run_experiment


def test_fig4_manual_vs_autofit(run_once):
    result = run_once(run_experiment, "fig4", fast=True)
    benchmarks = sorted({r["benchmark"] for r in result.rows})
    assert len(benchmarks) == 6
    for bench in benchmarks:
        rows = [r for r in result.rows if r["benchmark"] == bench]
        auto = next(r for r in rows if r["schedule"] == "Auto Fit")
        manual = [r for r in rows if r["schedule"] != "Auto Fit"]
        best = min(r["seconds"] for r in manual)
        worst = max(r["seconds"] for r in manual)
        # AUTO_FIT tracks the best manual schedule (the paper's headline):
        # always far from the worst, within modest overhead of the best.
        assert auto["seconds"] < worst, bench
        assert auto["seconds"] <= best * 1.6, (
            bench,
            auto["seconds"],
            best,
        )
        # Overhead is non-negative against the ideal-mapping baseline.
        assert auto["overhead_pct"] >= -1e-9, bench

"""Fig. 5 — distribution of kernels across devices under AUTO_FIT."""

from repro.bench.figures import run_experiment


def test_fig5_kernel_distribution(run_once):
    result = run_once(run_experiment, "fig5", fast=True)
    by_bench = {r["benchmark"].split(".")[0]: r for r in result.rows}
    assert set(by_bench) == {"BT", "CG", "EP", "FT", "MG", "SP"}
    # EP's kernels go to the GPUs (paper: "our scheduler has assigned all
    # the kernels to the GPU").
    ep = by_bench["EP"]
    assert ep["cpu_pct"] <= 5.0
    assert ep["gpu0_pct"] + ep["gpu1_pct"] >= 95.0
    # Every other benchmark gives the CPU at least half the kernels
    # ("the CPU still gets a majority of the kernels").
    for name, row in by_bench.items():
        if name == "EP":
            continue
        assert row["cpu_pct"] >= 50.0, (name, row)
    # The strongly CPU-leaning benchmarks (BT, MG per Fig. 3) give the CPU
    # more share than the milder FT.
    assert by_bench["BT"]["cpu_pct"] >= by_bench["FT"]["cpu_pct"]

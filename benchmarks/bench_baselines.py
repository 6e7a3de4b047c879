"""Related-work baseline: epoch vs kernel scheduling granularity."""

from repro.bench.figures import run_experiment


def test_scheduling_granularity_contrast(run_once):
    result = run_once(run_experiment, "baselines", fast=True)

    def row(workload, policy):
        return result.row_for(workload=workload, policy=policy)

    epoch = row("coherent queues", "MultiCL AUTO_FIT (epochs)")
    kernel = row("coherent queues", "SOCL-style (per kernel)")
    rr = row("coherent queues", "Round robin")
    # The paper's regime: epoch batching matches per-kernel quality...
    assert epoch["seconds"] <= kernel["seconds"] * 1.05
    # ...with an order of magnitude fewer scheduling decisions...
    assert epoch["decisions"] * 8 <= kernel["decisions"]
    # ...and fewer migrations; both beat affinity-blind round-robin.
    assert epoch["migrations"] <= kernel["migrations"]
    assert epoch["seconds"] < rr["seconds"]
    # Mixed queues: per-kernel placement ping-pongs (many migrations).
    mixed_kernel = row("mixed queues", "SOCL-style (per kernel)")
    assert mixed_kernel["migrations"] > kernel["migrations"]

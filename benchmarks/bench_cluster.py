"""Extension bench: MultiCL over SnuCL cluster mode."""

from repro.bench.figures import run_experiment


def test_cluster_scheduling(run_once):
    result = run_once(run_experiment, "cluster", fast=True)

    def row(workload, platform):
        return result.row_for(workload=workload, platform=platform)

    # Compute-heavy pools get faster by borrowing remote GPUs...
    single = row("compute-heavy", "single node")
    clustered = row("compute-heavy", "two-node cluster")
    assert clustered["remote_queues"] >= 1
    assert clustered["seconds"] < single["seconds"]
    # ...while bandwidth-bound pools never cross the network.
    assert row("bandwidth-bound", "two-node cluster")["remote_queues"] == 0

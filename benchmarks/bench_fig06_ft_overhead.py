"""Fig. 6 — FT profiling (data-transfer) overhead vs command-queue count."""

from repro.bench.figures import run_experiment


def test_fig6_ft_profiling_overhead(run_once):
    result = run_once(run_experiment, "fig6", fast=True)
    queues = result.column("queues")
    assert queues == [1, 2, 4, 8]
    data = result.column("data_per_queue_mb")
    overhead = result.column("overhead_pct")
    transfer = result.column("profile_transfer_s")
    # Data per queue halves as the queue count doubles.
    for a, b in zip(data, data[1:]):
        assert abs(a / b - 2.0) < 0.01, (a, b)
    # Profiling overhead falls with more queues (the amortisation claim).
    assert overhead[0] > overhead[-1]
    assert all(o >= 0 for o in overhead)
    # And the staged profiling traffic shrinks in step with the data.
    for a, b in zip(transfer, transfer[1:]):
        assert a > b, (a, b)

"""Table II and Section VI.C — configurations and lines-of-code claims."""

from repro.bench.figures import run_experiment


def test_table2_configurations(run_once):
    result = run_once(run_experiment, "table2", fast=True)
    rows = {r["benchmark"]: r for r in result.rows}
    assert set(rows) == {"BT", "CG", "EP", "FT", "MG", "SP"}
    # Queue-count restrictions from the paper's Table II.
    assert rows["BT"]["queues"].startswith("Square")
    assert rows["SP"]["queues"].startswith("Square")
    assert rows["CG"]["queues"].startswith("Power of 2")
    assert rows["EP"]["queues"].startswith("Any")
    # Scheduler options: EP is the epoch/compute-bound outlier.
    assert "SCHED_COMPUTE_BOUND" in rows["EP"]["scheduler_options"]
    assert "SCHED_KERNEL_EPOCH" in rows["EP"]["scheduler_options"]
    for name in ("BT", "CG", "FT", "MG", "SP"):
        assert "SCHED_EXPLICIT_REGION" in rows[name]["scheduler_options"]
    # BT and FT additionally use clSetKernelWorkGroupInfo.
    assert "clSetKernelWorkGroupInfo" in rows["BT"]["scheduler_options"]
    assert "clSetKernelWorkGroupInfo" in rows["FT"]["scheduler_options"]


def test_loc_changed_lines(run_once):
    result = run_once(run_experiment, "loc", fast=True)
    lines = result.column("lines")
    # "on average, users have to apply our proposed scheduler extensions to
    # only four source lines of code"
    avg = sum(lines) / len(lines)
    assert 2.0 <= avg <= 5.0, avg
    assert max(lines) <= 6


def test_table1_api_surface(run_once):
    result = run_once(run_experiment, "table1", fast=True)
    fns = result.column("cl_function")
    assert "clCreateContext" in fns
    assert "clSetCommandQueueSchedProperty" in fns
    assert "clSetKernelWorkGroupInfo" in fns
    ctx_row = result.row_for(cl_function="clCreateContext")
    assert "ROUND_ROBIN" in ctx_row["options"] and "AUTO_FIT" in ctx_row["options"]
    queue_row = result.row_for(cl_function="clCreateCommandQueue")
    for flag in ("SCHED_AUTO_STATIC", "SCHED_AUTO_DYNAMIC", "SCHED_KERNEL_EPOCH",
                 "SCHED_EXPLICIT_REGION", "SCHED_ITERATIVE",
                 "SCHED_COMPUTE_BOUND", "SCHED_IO_BOUND", "SCHED_MEMORY_BOUND"):
        assert flag in queue_row["options"], flag

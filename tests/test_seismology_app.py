"""FDM-Seismology OpenCL driver: kernel structure, layouts, scheduling."""

import pytest

from repro.ocl.source import parse_program_source
from repro.workloads.base import WorkloadError
from repro.workloads.seismology import (
    DEVICE_COMBOS,
    FDMSeismologyApp,
    run_seismology,
)


# ---------------------------------------------------------------------------
# Structure (paper Section VI.B.2)
# ---------------------------------------------------------------------------
def test_kernel_counts_match_paper():
    """Velocity: 7 kernels (3 + 4); stress: 25 kernels (11 + 14)."""
    app = FDMSeismologyApp()
    infos = parse_program_source(app.generate_source())
    names = [k.name for k in infos]
    vel = [n for n in names if n.startswith("vel_")]
    stress = [n for n in names if n.startswith("st_")]
    assert len(vel) == 7
    assert len(stress) == 25
    assert len([n for n in vel if n.endswith("_r0")]) == 3
    assert len([n for n in vel if n.endswith("_r1")]) == 4
    assert len([n for n in stress if n.endswith("_r0")]) == 11
    assert len([n for n in stress if n.endswith("_r1")]) == 14


def test_invalid_layout_rejected():
    with pytest.raises(WorkloadError):
        FDMSeismologyApp(layout="diagonal")
    with pytest.raises(WorkloadError):
        FDMSeismologyApp(steps=0)


def test_requires_exactly_two_queues(bare_platform):
    app = FDMSeismologyApp()
    ctx = bare_platform.create_context()
    queues = [ctx.create_queue() for _ in range(3)]
    with pytest.raises(WorkloadError):
        app.setup(ctx, queues)


def test_layouts_produce_different_costs():
    col = FDMSeismologyApp(layout="column").generate_source()
    row = FDMSeismologyApp(layout="row").generate_source()
    assert col != row


def test_device_combos_enumerates_nine():
    assert len(DEVICE_COMBOS) == 9
    assert ("cpu", "cpu") in DEVICE_COMBOS
    assert ("gpu0", "gpu1") in DEVICE_COMBOS


# ---------------------------------------------------------------------------
# Scheduling behaviour (Figs. 9 & 10 shapes)
# ---------------------------------------------------------------------------
def test_manual_mode_validates_devices(profile_dir):
    with pytest.raises(WorkloadError):
        run_seismology(mode="manual", devices=["cpu"], profile_dir=profile_dir)
    with pytest.raises(WorkloadError):
        run_seismology(mode="bogus", profile_dir=profile_dir)


def test_column_major_prefers_cpu_pair(profile_dir):
    run = run_seismology("column", mode="auto", steps=4, profile_dir=profile_dir)
    assert set(run.bindings.values()) == {"cpu"}


def test_row_major_prefers_gpu_pair(profile_dir):
    run = run_seismology("row", mode="auto", steps=4, profile_dir=profile_dir)
    assert set(run.bindings.values()) == {"gpu0", "gpu1"}


def test_round_robin_splits_across_gpus(profile_dir):
    run = run_seismology("column", mode="round_robin", steps=3, profile_dir=profile_dir)
    assert sorted(run.bindings.values()) == ["gpu0", "gpu1"]


def test_first_iteration_carries_profiling(profile_dir):
    run = run_seismology("column", mode="auto", steps=6, profile_dir=profile_dir)
    it = run.iteration_seconds
    steady = sum(it[1:]) / len(it[1:])
    assert it[0] > 1.5 * steady


def test_manual_combo_timings_ordered(profile_dir):
    best = run_seismology(
        "column", mode="manual", devices=("cpu", "cpu"), steps=3,
        profile_dir=profile_dir,
    )
    worst = run_seismology(
        "column", mode="manual", devices=("gpu0", "gpu0"), steps=3,
        profile_dir=profile_dir,
    )
    assert worst.seconds > 2.0 * best.seconds  # paper: 2.7x spread


def test_functional_mode_runs_real_physics(profile_dir):
    run = run_seismology(
        "column", mode="manual", devices=("cpu", "cpu"), steps=12,
        functional=True, profile_dir=profile_dir,
    )
    assert run.checks["stable"]
    assert run.checks["steps"] == 12
    assert run.checks["energy"] > 0.0


def test_functional_matches_reference_solver(profile_dir):
    """The driver's region-split stepping equals a directly-run solver."""
    import numpy as np

    from repro.workloads.seismology.app import _FUNCTIONAL_PARAMS
    from repro.workloads.seismology.fdm import RegionPairSimulation

    steps = 10
    ref = RegionPairSimulation(_FUNCTIONAL_PARAMS)
    ref.run(steps)

    mcl_run_app = FDMSeismologyApp(layout="column", steps=steps, functional=True)
    from repro.core.runtime import MultiCL
    from repro.ocl.enums import SchedFlag

    mcl = MultiCL(profile_dir=profile_dir)
    queues = [mcl.queue(device="cpu", flags=SchedFlag.SCHED_OFF, name=f"q{i}")
              for i in range(2)]
    mcl_run_app.setup(mcl.context, queues)
    for it in range(steps):
        mcl_run_app.enqueue_iteration(it)
        for q in queues:
            q.finish()
    sim = mcl_run_app.sim
    assert sim is not None
    for f in ("vx", "vz", "sxx", "szz", "sxz"):
        assert np.array_equal(getattr(sim.mono, f), getattr(ref.mono, f)), f


def test_iteration_records_complete(profile_dir):
    run = run_seismology("row", mode="auto", steps=5, profile_dir=profile_dir)
    assert run.name == "FDM-Seismology"
    assert run.num_queues == 2
    assert len(run.iteration_seconds) == 5
    assert run.problem_class == "row"


def test_functional_3d_solver_through_driver(profile_dir):
    """The driver runs the full 3-D elastic solver as kernel payloads."""
    import numpy as np

    from repro.workloads.npb.common import run_npb
    from repro.workloads.seismology.app import _FUNCTIONAL_PARAMS_3D
    from repro.workloads.seismology.fdm3d import ALL_FIELDS, RegionPair3D

    app = FDMSeismologyApp(layout="row", steps=8, functional=True, solver_dim=3)
    run = run_npb(app, mode="manual", devices=("gpu0", "gpu1"),
                  profile_dir=profile_dir)
    assert run.checks["stable"] and run.checks["steps"] == 8
    # Matches the directly-run 3-D reference bit-for-bit.
    ref = RegionPair3D(_FUNCTIONAL_PARAMS_3D)
    ref.run(8)
    for f in ALL_FIELDS:
        assert np.array_equal(getattr(app.sim.mono, f), getattr(ref.mono, f)), f


def test_auto_mode_reports_profiler_stats(profile_dir):
    """FDM-Seismology runs through the NPB driver, so an auto-mode run
    reports the kernel profiler's counters like every NPB app."""
    run = run_seismology("column", mode="auto", steps=3, profile_dir=profile_dir)
    assert run.profiler_stats
    assert run.profiler_stats["kernels_measured"] > 0


def test_solver_dim_validated():
    with pytest.raises(WorkloadError):
        FDMSeismologyApp(solver_dim=4)

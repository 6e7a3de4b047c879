"""The six NPB drivers: Table II restrictions, functional checks, runs."""

import pytest

from repro.workloads.base import ProblemClass, WorkloadError
from repro.workloads.npb import BENCHMARKS, BT, CG, EP, FT, MG, SP, get_benchmark
from repro.workloads.npb.common import run_npb
from repro.ocl.enums import SchedFlag
from repro.ocl.source import parse_program_source

ALL = [BT, CG, EP, FT, MG, SP]


# ---------------------------------------------------------------------------
# Registry and Table II restrictions
# ---------------------------------------------------------------------------
def test_registry_complete():
    assert set(BENCHMARKS) == {"BT", "CG", "EP", "FT", "MG", "SP"}
    assert get_benchmark("bt") is BT
    with pytest.raises(WorkloadError):
        get_benchmark("LU")


@pytest.mark.parametrize("cls", ALL)
def test_queue_rules_enforced(cls):
    for ok in cls.QUEUE_RULE.allowed:
        cls(cls.VALID_CLASSES[0], ok)  # does not raise
    with pytest.raises(WorkloadError):
        cls(cls.VALID_CLASSES[0], 3)  # 3 is never allowed (not square/pow2)


def test_square_rule_specifics():
    BT(ProblemClass.S, 1)
    BT(ProblemClass.S, 4)
    with pytest.raises(WorkloadError):
        BT(ProblemClass.S, 2)


def test_ft_classes_capped_at_A():
    """FT classes stop at A — larger grids exceed the C2050's 3 GB."""
    assert ProblemClass.B not in FT.VALID_CLASSES
    with pytest.raises(WorkloadError):
        FT(ProblemClass.B, 1)


def test_ep_supports_class_d():
    assert ProblemClass.D in EP.VALID_CLASSES


@pytest.mark.parametrize("cls", ALL)
def test_invalid_class_rejected(cls):
    invalid = [c for c in ProblemClass if c not in cls.VALID_CLASSES]
    if invalid:
        with pytest.raises(WorkloadError):
            cls(invalid[0], cls.QUEUE_RULE.allowed[0])


@pytest.mark.parametrize("cls", ALL)
def test_table2_scheduler_options(cls):
    if cls is EP:
        assert cls.TABLE2_FLAGS & SchedFlag.SCHED_KERNEL_EPOCH
        assert cls.TABLE2_FLAGS & SchedFlag.SCHED_COMPUTE_BOUND
    else:
        assert cls.TABLE2_FLAGS & SchedFlag.SCHED_EXPLICIT_REGION
    assert (cls is BT or cls is FT) == cls.USES_WORKGROUP_INFO


# ---------------------------------------------------------------------------
# Generated sources
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL)
def test_generated_source_parses_with_annotations(cls):
    app = cls(cls.VALID_CLASSES[0], 1)
    infos = parse_program_source(app.generate_source())
    assert infos
    for info in infos:
        assert "flops_per_item" in info.annotations or (
            "bytes_per_item" in info.annotations
        ), info.name


def test_bt_has_five_kernels():
    infos = parse_program_source(BT(ProblemClass.S, 1).generate_source())
    names = {k.name for k in infos}
    assert names == {
        "bt_compute_rhs",
        "bt_x_solve",
        "bt_y_solve",
        "bt_z_solve",
        "bt_add",
    }


def test_sp_has_six_kernels():
    infos = parse_program_source(SP(ProblemClass.S, 1).generate_source())
    assert len(infos) == 6


def test_ep_source_scales_with_class():
    src_s = EP(ProblemClass.S, 1).generate_source()
    src_d = EP(ProblemClass.D, 1).generate_source()
    assert src_s != src_d  # per-class CPU efficiency calibration


# ---------------------------------------------------------------------------
# Iteration counts (NPB 3.3 scaling)
# ---------------------------------------------------------------------------
def test_default_iterations_match_npb():
    assert BT(ProblemClass.S, 1).default_iterations == 60
    assert BT(ProblemClass.A, 1).default_iterations == 200
    assert CG(ProblemClass.B, 1).default_iterations == 75
    assert FT(ProblemClass.A, 1).default_iterations == 6
    assert MG(ProblemClass.B, 1).default_iterations == 20
    assert EP(ProblemClass.C, 1).default_iterations == 1


def test_iterations_override():
    app = SP(ProblemClass.S, 1, iterations_override=3)
    assert app.iterations == 3
    app2 = SP(ProblemClass.S, 1, iterations_override=0)
    assert app2.iterations == 1  # clamped to at least one


# ---------------------------------------------------------------------------
# Functional-mode checks
# ---------------------------------------------------------------------------
def test_ep_functional_checks(profile_dir):
    app = EP(ProblemClass.S, 2, functional=True)
    run = run_npb(app, mode="manual", devices=["cpu", "gpu0"], profile_dir=profile_dir)
    assert 0.7 < run.checks["acceptance"] < 0.85  # ~pi/4
    counts = run.checks["counts"]
    assert counts[0] > counts[3]


def test_cg_functional_checks(profile_dir):
    app = CG(ProblemClass.S, 1, functional=True, iterations_override=5)
    run = run_npb(app, mode="manual", devices=["cpu"], profile_dir=profile_dir)
    assert run.checks["converged"]


def test_ft_functional_checksum_matches_reference(profile_dir):
    app = FT(ProblemClass.S, 1, functional=True)
    run = run_npb(app, mode="manual", devices=["cpu"], profile_dir=profile_dir)
    got = run.checks["checksum"]
    ref = run.checks["checksum_ref"]
    assert got == pytest.approx(ref, rel=1e-9)


def test_mg_functional_converging(profile_dir):
    app = MG(ProblemClass.S, 1, functional=True)
    run = run_npb(app, mode="manual", devices=["cpu"], profile_dir=profile_dir)
    assert run.checks["converging"]
    hist = run.checks["residual_history"]
    assert hist[-1] < hist[0]


def test_bt_functional_bounded(profile_dir):
    app = BT(ProblemClass.S, 1, functional=True, iterations_override=5)
    run = run_npb(app, mode="manual", devices=["cpu"], profile_dir=profile_dir)
    assert run.checks["bounded"]
    assert run.checks["max_value"] < 1.0


def test_sp_functional_monotone(profile_dir):
    app = SP(ProblemClass.S, 1, functional=True, iterations_override=5)
    run = run_npb(app, mode="manual", devices=["cpu"], profile_dir=profile_dir)
    assert run.checks["monotone"] and run.checks["bounded"]


# ---------------------------------------------------------------------------
# Driver behaviour
# ---------------------------------------------------------------------------
def test_manual_mode_requires_devices(profile_dir):
    app = EP(ProblemClass.S, 1)
    with pytest.raises(WorkloadError):
        run_npb(app, mode="manual", profile_dir=profile_dir)
    with pytest.raises(WorkloadError):
        run_npb(app, mode="manual", devices=["cpu", "gpu0"], profile_dir=profile_dir)


def test_unknown_mode_rejected(profile_dir):
    with pytest.raises(WorkloadError):
        run_npb(EP(ProblemClass.S, 1), mode="magic", profile_dir=profile_dir)


def test_run_returns_complete_record(profile_dir):
    app = CG(ProblemClass.S, 2, iterations_override=4)
    run = run_npb(app, mode="auto", profile_dir=profile_dir)
    assert run.name == "CG" and run.problem_class == "S"
    assert run.num_queues == 2 and run.mode == "auto"
    assert run.seconds > 0
    assert set(run.bindings) == {"q0", "q1"}
    assert len(run.iteration_seconds) == 4
    assert run.mappings  # the scheduler fired at least once


def test_explicit_region_only_profiles_warmup(profile_dir):
    app = MG(ProblemClass.S, 2, iterations_override=6)
    run = run_npb(app, mode="auto", profile_dir=profile_dir)
    it = run.iteration_seconds
    # Warm-up iteration carries the profiling cost; the rest are flat.
    steady = sum(it[1:]) / len(it[1:])
    assert it[0] > steady
    assert max(it[1:]) <= steady * 1.25


def test_auto_mode_beats_worst_manual(profile_dir):
    worst = run_npb(
        BT(ProblemClass.S, 4, iterations_override=10),
        mode="manual",
        devices=["gpu0"] * 4,
        profile_dir=profile_dir,
    )
    auto = run_npb(
        BT(ProblemClass.S, 4, iterations_override=10),
        mode="auto",
        profile_dir=profile_dir,
    )
    assert auto.seconds < worst.seconds


def test_round_robin_mode(profile_dir):
    app = CG(ProblemClass.S, 4, iterations_override=3)
    run = run_npb(app, mode="round_robin", profile_dir=profile_dir)
    # GPUs first, then CPU, then wrap.
    assert list(run.bindings.values()) == ["gpu0", "gpu1", "cpu", "gpu0"]


def test_overhead_metric():
    from repro.workloads.base import WorkloadRun
    from repro.core.runtime import RunStats
    from repro.sim.trace import Trace

    run = WorkloadRun(
        name="X", problem_class="S", num_queues=1, mode="auto",
        seconds=1.2, stats=RunStats.from_trace(Trace(), 0, 1.2),
    )
    assert run.overhead_vs(1.0) == pytest.approx(0.2)
    with pytest.raises(WorkloadError):
        run.overhead_vs(0.0)


def test_workloadrun_devices_used(profile_dir):
    run = run_npb(
        CG(ProblemClass.S, 2, iterations_override=2),
        mode="manual",
        devices=["cpu", "gpu1"],
        profile_dir=profile_dir,
    )
    assert sorted(set(run.bindings.values())) == ["cpu", "gpu1"]

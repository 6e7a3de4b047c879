"""End-to-end predictor integration: zero-measurement scheduling, the
corrector loop, fault-driven invalidation, and replay cold start.

The headline acceptance criterion lives here: with prediction enabled,
unseen kernels are scheduled with *zero* profiling measurements, and the
resulting makespan stays within 15% of the fully-profiled run.
"""

import pytest

from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.hardware.presets import symmetric_dual_gpu_node
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.predict import Predictor
from repro.replay.runner import ReplayConfig, run_tenant
from repro.sim.faults import FaultPlan
from repro.workloads.base import ProblemClass
from repro.workloads.npb import get_benchmark
from repro.workloads.npb.common import run_npb

AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH

PROGRAM = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale_a(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}

// @multicl flops_per_item=20 bytes_per_item=64 divergence=0.6 writes=1
__kernel void drift_b(__global float* b, int n) {
  int i = get_global_id(0);
  b[i] = b[i] * 0.5f;
}
"""

N = 1 << 18


def _cg(pc="S", queues=4):
    return get_benchmark("CG")(ProblemClass(pc), queues)


# ---------------------------------------------------------------------------
# Acceptance: zero measurements, bounded makespan
# ---------------------------------------------------------------------------
def test_predicted_run_schedules_with_zero_measurements(profile_dir):
    profiled = run_npb(_cg(), mode="auto", profile_dir=profile_dir)
    predicted = run_npb(
        _cg(),
        mode="auto",
        config=SchedulerConfig(predict=True),
        profile_dir=profile_dir,
    )
    stats = predicted.profiler_stats
    assert stats["kernels_measured"] == 0
    assert stats["profiling_runs"] == 0
    assert stats["kernels_predicted"] > 0
    assert stats["predict_declines"] == 0
    # Baseline measured normally.
    assert profiled.profiler_stats["kernels_measured"] > 0
    # Makespan within 15% of the fully-profiled run (it is usually
    # *faster*: the profiling epoch is gone).
    delta = abs(predicted.seconds - profiled.seconds) / profiled.seconds
    assert delta < 0.15


def test_predictor_off_by_default(profile_dir):
    run = run_npb(_cg(), mode="auto", profile_dir=profile_dir)
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    assert mcl.context.scheduler.profiler.predictor is None
    assert run.profiler_stats["kernels_predicted"] == 0


def test_env_var_and_constructor_toggle(profile_dir, monkeypatch):
    monkeypatch.setenv("MULTICL_PREDICT", "1")
    assert SchedulerConfig.from_env().predict is True
    mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
    assert mcl.context.scheduler.profiler.predictor is not None
    # Constructor override beats the environment.
    off = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
        predict=False,
    )
    assert off.context.scheduler.profiler.predictor is None
    monkeypatch.setenv("MULTICL_PREDICT", "0")
    on = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
        predict=True,
    )
    assert on.context.scheduler.profiler.predictor is not None


# ---------------------------------------------------------------------------
# Corrector loop: measurements feed residuals and online re-fits
# ---------------------------------------------------------------------------
def test_declined_predictions_flow_into_corrector(profile_dir, monkeypatch):
    # An impossible confidence bar forces the predictor to decline every
    # kernel; measurements then flow through observe(), and a zero
    # tolerance turns every observation into an online re-fit.
    monkeypatch.setattr(Predictor, "min_confidence", 1.1)
    monkeypatch.setattr(Predictor, "tolerance", 0.0)
    cfg = SchedulerConfig(predict=True)
    run = run_npb(_cg(), mode="auto", config=cfg, profile_dir=profile_dir)
    assert run.profiler_stats["kernels_predicted"] == 0
    assert run.profiler_stats["predict_declines"] > 0
    assert run.profiler_stats["kernels_measured"] > 0

    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT, config=cfg, profile_dir=profile_dir
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    k = program.create_kernel("scale_a")
    buf = ctx.create_buffer(4 * N)
    buf.mark_valid("host")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(flags=AUTO, name="q0")
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    q.finish()
    predictor = mcl.context.scheduler.profiler.predictor
    assert predictor.stats.observations > 0
    assert predictor.stats.refits > 0
    assert any(predictor.residuals.values())


def test_corrector_refit_moves_the_prediction(profile_dir):
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        config=SchedulerConfig(predict=True),
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    k = program.create_kernel("scale_a")
    buf = ctx.create_buffer(4 * N)
    buf.mark_valid("host")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(flags=AUTO, name="q0")
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    q.finish()
    predictor = mcl.context.scheduler.profiler.predictor
    feat = predictor.features_for(k)
    device = next(iter(predictor.model.devices))
    n = N
    before = predictor.predict_seconds(feat, device, n)

    from repro.ocl.kernel import WorkGroupConfig

    class _FakeCmd:
        kernel = k
        launch = WorkGroupConfig.normalize((n,), (128,))

    # Fabricate a gross mis-prediction; observe() must re-fit and pull the
    # prediction toward the observation.
    observed = before * 4.0
    rel = predictor.observe(_FakeCmd(), device, observed)
    assert rel > predictor.tolerance
    after = predictor.predict_seconds(feat, device, n)
    assert abs(after - observed) < abs(before - observed)
    assert predictor.stats.refits >= 1


# ---------------------------------------------------------------------------
# Fault-driven invalidation
# ---------------------------------------------------------------------------
def test_device_failure_drops_predictor_state(profile_dir, monkeypatch):
    monkeypatch.setattr(Predictor, "min_confidence", 1.1)
    monkeypatch.setattr(Predictor, "tolerance", 0.0)
    cfg = SchedulerConfig(predict=True)
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        config=cfg,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    ka = program.create_kernel("scale_a")
    kb = program.create_kernel("drift_b")
    for k in (ka, kb):
        buf = ctx.create_buffer(4 * N)
        buf.mark_valid("host")
        k.set_arg(0, buf)
        k.set_arg(1, N)
    q1 = mcl.queue(flags=AUTO, name="q1")
    q2 = mcl.queue(flags=AUTO, name="q2")
    q1.enqueue_nd_range_kernel(ka, (N,), (128,))
    q2.enqueue_nd_range_kernel(kb, (N,), (128,))
    for q in (q1, q2):
        q.finish()
    predictor = mcl.context.scheduler.profiler.predictor
    # Declined predictions were measured on both devices -> residuals exist.
    assert "gpu1" in predictor.residuals

    mcl.inject_faults(FaultPlan().fail_device("gpu1", at=mcl.now + 1e-4))
    for _ in range(3):
        q1.enqueue_nd_range_kernel(ka, (N,), (128,))
        q2.enqueue_nd_range_kernel(kb, (N,), (128,))
        for q in (q1, q2):
            q.finish()
    assert "gpu1" not in predictor.residuals
    assert predictor.stats.invalidations > 0
    # Surviving device state is untouched by the dead device's cleanup.
    assert predictor.stats.observations > 0


def test_invalidate_device_rearms_next_observe(profile_dir):
    """Regression: after a fault-driven invalidation the device's next
    observation must force a re-fit even when its residual happens to be
    within tolerance — otherwise a recovered device keeps stale weights
    forever."""
    mcl = MultiCL(
        policy=ContextScheduler.AUTO_FIT,
        config=SchedulerConfig(predict=True),
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    k = program.create_kernel("scale_a")
    buf = ctx.create_buffer(4 * N)
    buf.mark_valid("host")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(flags=AUTO, name="q0")
    q.enqueue_nd_range_kernel(k, (N,), (128,))
    q.finish()
    predictor = mcl.context.scheduler.profiler.predictor
    feat = predictor.features_for(k)
    device = next(iter(predictor.model.devices))
    predictor.tolerance = 1e9  # residuals alone can never trip a re-fit

    from repro.ocl.kernel import WorkGroupConfig

    class _FakeCmd:
        kernel = k
        launch = WorkGroupConfig.normalize((N,), (128,))

    spot_on = predictor.predict_seconds(feat, device, N)
    before = predictor.stats.refits
    predictor.observe(_FakeCmd(), device, spot_on)  # rel ≈ 0: no re-fit
    assert predictor.stats.refits == before

    predictor.invalidate_device(device)  # slowdown cleared / device lost
    predictor.observe(_FakeCmd(), device, spot_on)
    assert predictor.stats.refits == before + 1  # re-armed: forced re-fit
    predictor.observe(_FakeCmd(), device, spot_on)
    assert predictor.stats.refits == before + 1  # armed exactly once


def test_slowdown_then_clear_rearms_predictor(profile_dir, monkeypatch):
    """A transient slowdown window must invalidate the device's predictor
    state at both edges (slowdown-era residuals are wrong once cleared) and
    re-fit on the first healthy measurement after recovery."""
    # Decline everything → always measure; re-fits can only come from the
    # re-arm.
    monkeypatch.setattr(Predictor, "min_confidence", 1.1)
    monkeypatch.setattr(Predictor, "tolerance", 1e9)
    cfg = SchedulerConfig(
        predict=True,
        iterative_refresh=1,  # re-measure every trigger → observe() flows
    )
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        config=cfg,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    k = program.create_kernel("scale_a")
    buf = ctx.create_buffer(4 * N)
    buf.mark_valid("host")
    k.set_arg(0, buf)
    k.set_arg(1, N)
    q = mcl.queue(flags=AUTO, name="q1")
    for _ in range(2):
        q.enqueue_nd_range_kernel(k, (N,), (128,))
        q.finish()
    predictor = mcl.context.scheduler.profiler.predictor
    assert predictor.stats.observations > 0
    assert predictor.stats.refits == 0
    assert predictor.residuals  # warm residual rings on the measured pool

    mcl.inject_faults(
        FaultPlan().slow_device("gpu0", at=mcl.now + 1e-6, duration=1e-3, factor=3.0)
    )
    mcl.engine.elapse(2e-3)  # window opens and closes, no measurements in it
    # Both edges invalidated gpu0: fresh residual ring, device re-armed.
    assert "gpu0" not in predictor.residuals
    assert "gpu0" in predictor._invalidated

    q.enqueue_nd_range_kernel(k, (N,), (128,))
    q.finish()
    # First healthy measurement after recovery re-anchored the model.
    assert predictor.stats.refits >= 1
    assert "gpu0" not in predictor._invalidated


def test_invalidate_device_unit(profile_dir):
    from repro.hardware.presets import aji_cluster15_node
    from repro.predict import Predictor, load_or_fit

    # run_npb fixtures above already fitted the model under
    # <profile_dir>/predict; this hits that cache.
    model, _ = load_or_fit(aji_cluster15_node(), f"{profile_dir}/predict")
    predictor = Predictor(
        model,
        kinds={"cpu": "cpu"},
        overheads={"cpu": 1e-5},
    )
    predictor.residuals["cpu"] = [("k", 0.5), ("k", 0.1)]
    removed = predictor.invalidate_device("cpu")
    assert removed == 2
    assert predictor.invalidate_device("cpu") == 0  # idempotent
    assert predictor.stats.invalidations == 2


# ---------------------------------------------------------------------------
# Replay cold start
# ---------------------------------------------------------------------------
def _replay(profile_dir, **kw):
    cfg = ReplayConfig(
        commands=2500,
        tenants=1,
        profile_dir=profile_dir,
        **kw,
    ).validate()
    return run_tenant(cfg, 0)


def test_cold_start_defaults_keep_checksums_bit_identical(profile_dir):
    base = _replay(profile_dir)
    predicted = _replay(profile_dir, cold_start=True, predict=True)
    # The predicted path never touches a device, so the replay outcome is
    # bit-identical to a run with no cold-start modelling at all.
    assert predicted.checksum == base.checksum
    assert base.profiling_epochs == 0 and base.predicted_epochs == 0
    assert predicted.predicted_epochs > 0 and predicted.profiling_epochs == 0


def test_cold_start_profiling_hurts_tail_latency(profile_dir):
    churn = 400
    cold = _replay(profile_dir, cold_start=True, family_churn=churn)
    predicted = _replay(
        profile_dir, cold_start=True, predict=True, family_churn=churn
    )
    assert cold.profiling_epochs > 0
    assert predicted.predicted_epochs == cold.profiling_epochs
    p99_cold = cold.hist.quantile(0.99)
    p99_pred = predicted.hist.quantile(0.99)
    assert p99_pred < p99_cold, (
        f"predicted p99 {p99_pred} should beat profiled cold start {p99_cold}"
    )
    assert cold.checksum != predicted.checksum


def test_predict_without_cold_start_rejected():
    with pytest.raises(ValueError, match="cold_start"):
        ReplayConfig(predict=True).validate()
    with pytest.raises(ValueError, match="family_churn"):
        ReplayConfig(cold_start=True, family_churn=-1).validate()

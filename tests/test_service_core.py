"""Multi-tenant scheduling service: admission, fair share, telemetry,
incremental pool costing, and device failures."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.hardware.cost import KernelCost, kernel_time
from repro.ocl.enums import CommandKind, ContextScheduler, SchedFlag
from repro.service import (
    UNTAGGED,
    AdmissionError,
    QuotaExceeded,
    SchedulingService,
    TenantQuota,
)
from repro.sim.faults import FaultInjector, FaultPlan

PROGRAM = """
// @multicl flops_per_item=200 bytes_per_item=8 writes=0
__kernel void scale(__global float* x, const float a) {
  int i = get_global_id(0);
  x[i] = x[i] * a;
}
"""

N = 1 << 16


@pytest.fixture
def service(profile_dir):
    return SchedulingService(profile_dir=profile_dir)


class Client:
    """Client-side tenant state for tests: program, kernel, queue, buffer."""

    def __init__(self, session):
        self.session = session
        program = session.create_program(PROGRAM).build()
        self.kernel = program.create_kernel("scale")
        self.buffer = session.create_buffer(
            4 * N, host_array=np.zeros(N, np.float32)
        )
        self.queue = session.create_queue(
            sched_flags=SchedFlag.SCHED_AUTO_DYNAMIC
        )

    def enqueue_epoch(self):
        self.kernel.set_arg(0, self.buffer)
        self.kernel.set_arg(1, 2.0)
        self.queue.enqueue_nd_range_kernel(self.kernel, (N,), (64,))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_session_cap_rejects(self, profile_dir):
        svc = SchedulingService(max_sessions=2, profile_dir=profile_dir)
        svc.create_session("a")
        svc.create_session("b")
        with pytest.raises(AdmissionError, match="at capacity"):
            svc.create_session("c")

    def test_session_cap_waitlist_admits_on_close(self, profile_dir):
        svc = SchedulingService(max_sessions=1, profile_dir=profile_dir)
        a = svc.create_session("a")
        w = svc.create_session("w", on_overload="queue")
        assert w.state == "waiting" and w.context is None
        with pytest.raises(AdmissionError, match="waiting"):
            w.create_buffer(16)  # waiting sessions hold no fleet resources
        a.close()
        assert w.state == "active" and w.context is not None
        assert w.context.tenant == "w"

    def test_duplicate_tenant_name_rejected(self, service):
        service.create_session("dup")
        with pytest.raises(AdmissionError, match="already exists"):
            service.create_session("dup")

    def test_byte_quota_rejects_over_allocation(self, service):
        s = service.create_session(
            "t", quota=TenantQuota(max_resident_bytes=1000)
        )
        s.create_buffer(800)
        with pytest.raises(AdmissionError, match="resident-byte quota"):
            s.create_buffer(300)
        s.create_buffer(200)  # exactly at the quota is fine

    def test_queue_quota_rejects(self, service):
        s = service.create_session("t", quota=TenantQuota(max_queues=2))
        s.create_queue(sched_flags=SchedFlag.SCHED_OFF)
        s.create_queue(sched_flags=SchedFlag.SCHED_OFF)
        with pytest.raises(AdmissionError, match="queue quota"):
            s.create_queue(sched_flags=SchedFlag.SCHED_OFF)

    def test_byte_quota_env_default(self, service, monkeypatch):
        monkeypatch.setenv("MULTICL_TENANT_QUOTA_BYTES", "500")
        s = service.create_session("enved")
        assert s.quota.max_resident_bytes == 500
        with pytest.raises(AdmissionError, match="resident-byte quota"):
            s.create_buffer(501)

    def test_explicit_quota_beats_env(self, service, monkeypatch):
        monkeypatch.setenv("MULTICL_TENANT_QUOTA_BYTES", "500")
        s = service.create_session(
            "big", quota=TenantQuota(max_resident_bytes=10_000)
        )
        assert s.quota.max_resident_bytes == 10_000
        s.create_buffer(5_000)


# ---------------------------------------------------------------------------
# Fair-share arbitration
# ---------------------------------------------------------------------------
class TestFairShare:
    def test_weighted_shares_converge_to_weights(self, profile_dir):
        svc = SchedulingService(max_sessions=4, profile_dir=profile_dir)
        weights = {"alpha": 4.0, "beta": 2.0, "gamma": 1.0, "delta": 1.0}
        clients = {
            name: Client(
                svc.create_session(
                    name, weight=w, policy=ContextScheduler.ROUND_ROBIN
                )
            )
            for name, w in weights.items()
        }
        # Closed loop: every tenant keeps exactly one epoch deferred, so
        # dispatch rate is limited only by fair-share credit.
        for _ in range(120):
            for c in clients.values():
                if not c.session.pending_queues():
                    c.enqueue_epoch()
            svc.trigger()
            svc.run_until_idle()
        shares = svc.telemetry.shares(list(weights))
        total = sum(weights.values())
        for name, w in weights.items():
            target = w / total
            assert shares[name] == pytest.approx(target, rel=0.10), name

    def test_forced_trigger_drains_the_blocked_tenant(self, service):
        c = Client(service.create_session("solo"))
        c.enqueue_epoch()
        assert c.session.pending_queues()
        c.queue.finish()  # forced trigger: must drain despite zero rounds
        assert not c.session.pending_queues()
        service.run_until_idle()
        assert service.telemetry.device_seconds("solo") > 0.0

    def test_voluntary_round_defers_underfunded_pools(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        heavy = Client(svc.create_session("heavy", weight=4.0))
        light = Client(svc.create_session("light", weight=1.0))
        heavy.enqueue_epoch()
        light.enqueue_epoch()
        # Round 1 auto-calibrates quantum to half the pool cost per max
        # weight: heavy affords its pool within 2 rounds, light needs 8.
        rounds_until = {}
        for rnd in range(1, 20):
            svc.trigger()
            for name, c in (("heavy", heavy), ("light", light)):
                if name not in rounds_until and not c.session.pending_queues():
                    rounds_until[name] = rnd
            if len(rounds_until) == 2:
                break
        assert rounds_until["heavy"] < rounds_until["light"]

    def test_priority_orders_service_within_a_round(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir, quantum=1e6)
        lo = Client(svc.create_session("lo", priority=0))
        hi = Client(svc.create_session("hi", priority=5))
        lo.enqueue_epoch()
        hi.enqueue_epoch()
        svc.trigger()  # huge quantum: both dispatch, in priority order
        log = [tenant for _, tenant, _ in svc.arbiter.dispatch_log]
        assert log == ["hi", "lo"]

    def test_device_time_quota_parks_and_raises_when_forced(self, service):
        c = Client(
            service.create_session(
                "tiny", quota=TenantQuota(max_device_seconds=1e-12)
            )
        )
        c.enqueue_epoch()
        c.queue.flush()  # first dispatch: not yet over quota, charges time
        assert c.session.charged_seconds > 1e-12
        c.enqueue_epoch()
        assert service.trigger() == 0  # parked: voluntary rounds skip it
        assert c.session.pending_queues()
        with pytest.raises(QuotaExceeded, match="device-time quota"):
            c.queue.flush()

    def test_tenants_keep_their_own_policy(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        af = Client(svc.create_session("af", policy=ContextScheduler.AUTO_FIT))
        rr = Client(
            svc.create_session("rr", policy=ContextScheduler.ROUND_ROBIN)
        )
        from repro.core.scheduler import AutoFitScheduler, RoundRobinScheduler

        assert isinstance(af.session.context.scheduler, AutoFitScheduler)
        assert isinstance(rr.session.context.scheduler, RoundRobinScheduler)
        af.enqueue_epoch()
        rr.enqueue_epoch()
        svc.drain()
        # Both policies recorded a mapping for their own pool only.
        assert af.session.context.scheduler.mapping_history
        assert rr.session.context.scheduler.mapping_history


    def test_kernel_granularity_tenant_is_arbitrated(self, profile_dir):
        """Its per-kernel triggers go through the fair-share arbiter, so
        the tenant is dispatched and charged like any other."""
        from repro.core.baselines import KERNEL_GRANULARITY_POLICY

        svc = SchedulingService(profile_dir=profile_dir)
        kg = Client(svc.create_session("kg", policy=KERNEL_GRANULARITY_POLICY))
        for _ in range(3):
            kg.enqueue_epoch()
        kg.queue.finish()
        charges = [c for _, t, c in svc.arbiter.dispatch_log if t == "kg"]
        assert charges and all(c > 0 for c in charges)
        assert kg.session.charged_seconds > 0

# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_tenant_sums_reconcile_with_raw_trace(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        clients = [Client(svc.create_session(f"t{i}")) for i in range(3)]
        for c in clients:
            c.enqueue_epoch()
        svc.drain()
        trace = svc.platform.engine.trace
        dev_total = sum(
            iv.end - iv.start
            for iv in trace
            if iv.resource.startswith("dev:")
            and iv.category in ("kernel", "transfer", "migration")
        )
        link_total = sum(
            iv.end - iv.start
            for iv in trace
            if iv.resource.startswith("link:")
            and iv.category in ("transfer", "migration")
        )
        snap = svc.telemetry.snapshot()
        assert sum(u.device_seconds for u in snap.values()) == pytest.approx(
            dev_total
        )
        assert sum(u.link_seconds for u in snap.values()) == pytest.approx(
            link_total
        )

    def test_untagged_bucket_collects_non_service_work(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        c = Client(svc.create_session("tagged"))
        c.enqueue_epoch()
        svc.drain()
        # An untenanted context on the same platform issues untagged work.
        plain = svc.platform.create_context()
        q = plain.create_queue()
        buf = plain.create_buffer(1024)
        q.enqueue_write_buffer(buf, None)
        q.finish()
        svc.run_until_idle()
        snap = svc.telemetry.snapshot()
        assert snap[UNTAGGED].link_seconds > 0.0
        assert "tagged" in snap

    def test_profiling_overhead_not_charged_to_tenants(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        c = Client(svc.create_session("af", policy=ContextScheduler.AUTO_FIT))
        c.enqueue_epoch()
        svc.drain()
        usage = svc.telemetry.usage("af")
        assert usage.device_seconds > 0.0
        assert all(
            not cat.startswith("profile") for cat in usage.by_category
        )

    def test_incremental_cursor_matches_fresh_fold(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir)
        c = Client(svc.create_session("t"))
        c.enqueue_epoch()
        svc.drain()
        mid = svc.telemetry.device_seconds("t")  # fold part-way
        c.enqueue_epoch()
        svc.drain()
        incremental = svc.telemetry.device_seconds("t")
        assert incremental > mid
        from repro.service.telemetry import TenantTelemetry

        fresh = TenantTelemetry(svc.platform.engine.trace)
        assert fresh.device_seconds("t") == pytest.approx(incremental)

    def test_telemetry_exact_across_spills(self):
        from repro.replay import DiscardSink
        from repro.service.telemetry import TenantTelemetry
        from repro.sim.trace import Trace

        trace = Trace()
        trace.attach_sink(DiscardSink(), spill_every=4)
        telemetry = TenantTelemetry(trace)
        for i in range(10):
            trace.record(
                "dev:gpu0", f"k{i}", "kernel", float(i), i + 1.0, {"tenant": "a"}
            )
            if i == 2:
                telemetry.refresh()  # fold part-way, then spill twice
        assert trace.spilled_count == 8
        usage = telemetry.usage("a")
        assert usage.tasks == trace.count(category="kernel") == 10
        assert usage.device_seconds == trace.total_time(category="kernel") == 10.0

    def test_service_replay_streaming_matches_resident(self, profile_dir):
        from dataclasses import replace

        from repro.ocl.platform import Platform
        from repro.replay import ReplayConfig, run_service_replay

        # Warm the profile cache so both runs start from the same clock.
        Platform(profile=True, profile_dir=profile_dir)
        config = ReplayConfig(
            commands=100, tenants=3, rate=400.0, seed=5,
            weights=(4.0, 2.0, 1.0), chunk=64, spill_every=64,
            profile_dir=profile_dir,
        )
        streamed = run_service_replay(config)
        resident = run_service_replay(replace(config, streaming=False))
        assert streamed.checksum == resident.checksum
        assert streamed.shares == resident.shares


# ---------------------------------------------------------------------------
# Session lifecycle
# ---------------------------------------------------------------------------
class TestSessionLifecycle:
    def test_close_releases_queues_and_is_idempotent(self, service):
        c = Client(service.create_session("t"))
        c.enqueue_epoch()
        c.session.close()  # finishes pending work, releases queues
        assert c.session.state == "closed"
        assert c.queue.released
        c.session.close()  # idempotent

    def test_closed_session_rejects_resources(self, service):
        s = service.create_session("t")
        s.close()
        with pytest.raises(AdmissionError, match="closed"):
            s.create_buffer(16)

    def test_closed_name_can_be_reused(self, service):
        service.create_session("t").close()
        again = service.create_session("t")
        assert again.state == "active"

    def test_waiting_session_close_leaves_waitlist(self, profile_dir):
        svc = SchedulingService(max_sessions=1, profile_dir=profile_dir)
        a = svc.create_session("a")
        w1 = svc.create_session("w1", on_overload="queue")
        w2 = svc.create_session("w2", on_overload="queue")
        w1.close()  # gives up its waitlist spot
        a.close()
        assert w1.state == "closed"
        assert w2.state == "active"  # w2 got the slot, not the closed w1

    def test_invalid_weight_rejected(self, service):
        with pytest.raises(ValueError, match="weight"):
            service.create_session("bad", weight=0.0)

    @pytest.mark.parametrize(
        "weight", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    def test_non_finite_or_non_positive_weight_rejected(self, service, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            service.create_session("bad", weight=weight)
        assert not service.sessions

    def test_invalid_overload_mode_rejected(self, service):
        with pytest.raises(ValueError, match="on_overload"):
            service.create_session("bad", on_overload="panic")


# ---------------------------------------------------------------------------
# Incremental pool costing
# ---------------------------------------------------------------------------
def _reference_pool_seconds(context, pool):
    """The arbiter's pool estimate re-summed from scratch: every deferred
    command priced on every active device, left to right from ``0.0``."""
    node = context.platform.node
    devices = context.active_device_names or list(context.device_names)
    total = 0.0
    for q in pool:
        best = math.inf
        for dev in devices:
            spec = node.device(dev).spec
            seconds = 0.0
            for cmd in q.pending:
                if cmd.kind is CommandKind.NDRANGE_KERNEL:
                    seconds += kernel_time(
                        spec, cmd.kernel.launch_cost(spec, cmd.launch)
                    )
                elif cmd.kind is CommandKind.WRITE_BUFFER:
                    seconds += node.h2d_seconds(dev, cmd.nbytes)
                elif cmd.kind is CommandKind.READ_BUFFER:
                    seconds += node.d2h_seconds(dev, cmd.nbytes)
                elif cmd.kind in (
                    CommandKind.FILL_BUFFER, CommandKind.COPY_BUFFER
                ):
                    seconds += node.d2d_seconds(dev, dev, cmd.nbytes)
            best = min(best, seconds)
        total += 0.0 if best is math.inf else best
    return total


def _scalar_priced_model(factor):
    """A cost model that reads the kernel's scalar argument, so
    ``set_arg`` re-prices launches that are already deferred."""

    def model(spec, config, args):
        items = config.work_items
        return KernelCost(
            flops=factor * args[1] * items,
            bytes=0.0,  # compute-bound: the price follows args[1]
            work_items=items,
            workgroup_size=config.workgroup_size,
        )

    return model


_TENANT = st.integers(0, 1)
_QUEUE = st.integers(0, 1)
_STEP = st.one_of(
    st.tuples(st.just("kernel"), _TENANT, _QUEUE, st.integers(8, 16)),
    st.tuples(
        st.sampled_from(["write", "read", "fill"]),
        _TENANT,
        _QUEUE,
        st.integers(1, 1 << 14),
    ),
    st.tuples(st.just("voluntary")),
    st.tuples(st.just("forced"), _TENANT, _QUEUE),
    st.tuples(st.just("config"), _TENANT, st.integers(0, 2), st.integers(8, 16)),
    st.tuples(st.just("cost_model"), _TENANT, st.floats(1.0, 1e3)),
    st.tuples(st.just("set_arg"), _TENANT, st.floats(0.5, 4.0)),
    # Delays short enough to land while dispatched kernels still run.
    st.tuples(st.just("fail"), _TENANT, _QUEUE, st.sampled_from([0.0, 1e-6, 1e-5])),
    st.tuples(st.just("run"), st.sampled_from([1e-6, 1e-5, 1e-3])),
)


class TestIncrementalCosting:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=st.lists(_STEP, min_size=1, max_size=25))
    # One fixed example per way a summed prefix goes stale: issue empties
    # the queue, a failure requeues in-flight work at the front, a per-device
    # config or a cost model lands on a deferred launch, and set_arg changes
    # what a cost model reads.
    @example(steps=[("kernel", 0, 0, 10), ("forced", 0, 0), ("kernel", 0, 0, 14)])
    @example(
        steps=[
            ("kernel", 0, 0, 10),
            ("forced", 0, 0),
            ("kernel", 0, 0, 14),
            ("fail", 0, 0, 0.0),
        ]
    )
    @example(
        steps=[("kernel", 0, 0, 12)] + [("config", 0, d, 16) for d in range(3)]
    )
    @example(steps=[("kernel", 1, 0, 12), ("cost_model", 1, 500.0)])
    @example(
        steps=[
            ("cost_model", 1, 10.0),
            ("kernel", 1, 0, 12),
            ("set_arg", 1, 3.0),
        ]
    )
    def test_estimate_equals_full_recosting(self, profile_dir, steps):
        svc = SchedulingService(profile_dir=profile_dir)
        clients = []
        for i, policy in enumerate(
            (ContextScheduler.AUTO_FIT, ContextScheduler.ROUND_ROBIN)
        ):
            c = Client(svc.create_session(f"t{i}", weight=2.0 - i, policy=policy))
            c.queues = [c.queue, c.session.create_queue()]
            c.kernel.set_arg(0, c.buffer)
            c.kernel.set_arg(1, 2.0)
            clients.append(c)
        devices = svc.platform.device_names
        # Check every estimate the arbiter makes, inside its voluntary,
        # forced and fault-recovery rounds too.
        estimate = svc.arbiter.estimate_pool_seconds

        def checked_estimate(context, pool):
            seconds = estimate(context, pool)
            assert seconds == _reference_pool_seconds(context, pool)
            return seconds

        svc.arbiter.estimate_pool_seconds = checked_estimate

        def check():
            for c in clients:
                ctx = c.session.context
                checked_estimate(ctx, ctx.pending_queues())

        for step in steps:
            op = step[0]
            if op == "kernel":
                _, t, qi, log2 = step
                c = clients[t]
                c.queues[qi].enqueue_nd_range_kernel(c.kernel, (1 << log2,), (64,))
            elif op in ("write", "read", "fill"):
                _, t, qi, words = step
                c = clients[t]
                enqueue = getattr(c.queues[qi], f"enqueue_{op}_buffer")
                enqueue(c.buffer, None, 4 * words)
            elif op == "voluntary":
                svc.trigger()
            elif op == "forced":
                _, t, qi = step
                clients[t].queues[qi].flush()
            elif op == "config":
                _, t, d, log2 = step
                clients[t].kernel.set_work_group_info(devices[d], (1 << log2,))
            elif op == "cost_model":
                _, t, factor = step
                clients[t].kernel.set_cost_model(_scalar_priced_model(factor))
            elif op == "set_arg":
                _, t, value = step
                clients[t].kernel.set_arg(1, value)
            elif op == "fail":
                # Fail the device a queue is bound to (likely where its
                # in-flight work runs), keeping at least one survivor.
                _, t, qi, delay = step
                ctx = clients[t].session.context
                dev = clients[t].queues[qi].device
                if dev in ctx.active_device_names and len(ctx.active_device_names) > 1:
                    at = svc.now + delay
                    FaultInjector(ctx).arm(FaultPlan().fail_device(dev, at=at))
                    svc.run_until_time(at)
            else:
                svc.run_until_time(svc.now + step[1])
            check()
        svc.drain()
        check()
        assert not any(c.session.pending_queues() for c in clients)

    def test_set_arg_reprices_only_on_a_new_value(self, service):
        c = Client(service.create_session("t"))
        c.kernel.set_cost_model(_scalar_priced_model(10.0))
        c.enqueue_epoch()
        context = c.session.context
        edits = context.cost_edits
        c.enqueue_epoch()  # the same buffer and scalar again
        assert context.cost_edits == edits
        c.kernel.set_arg(1, 3.0)
        assert context.cost_edits == edits + 1

    def test_custom_cost_model_prices_bit_identically(self, service):
        # A custom cost model's KernelCost carries no times memo, so every
        # launch is priced afresh.
        c = Client(service.create_session("t"))
        c.kernel.set_cost_model(_scalar_priced_model(10.0))
        for _ in range(5):
            c.enqueue_epoch()
        context = c.session.context
        spec = service.platform.node.device_list()[0].spec
        cmd = c.queue.pending[0]
        assert cmd.kernel.launch_cost(spec, cmd.launch).times is None
        pool = context.pending_queues()
        assert service.arbiter.estimate_pool_seconds(context, pool) == (
            _reference_pool_seconds(context, pool)
        )

    def test_memo_filled_in_a_slowdown_window_is_unscaled(self, service):
        c = Client(service.create_session("t"))
        context = c.session.context
        node = service.platform.node
        dev = node.device(context.device_names[0])
        # Fill the times memo through submit_kernel while dev runs slow.
        FaultInjector(context).arm(
            FaultPlan().slow_device(dev.name, at=service.now, duration=1.0, factor=4.0)
        )
        service.run_until_time(service.now)
        assert dev.slowdown == 4.0
        immediate = c.session.create_queue(dev.name, SchedFlag.SCHED_OFF)
        c.kernel.set_arg(0, c.buffer)
        c.kernel.set_arg(1, 2.0)
        launched = immediate.enqueue_nd_range_kernel(c.kernel, (N,), (64,))
        cost = c.kernel.launch_cost(dev.spec, launched.launch)
        unscaled = kernel_time(dev.spec, cost)
        assert cost.times[dev] == unscaled
        assert launched.task.duration == unscaled * 4.0
        for _ in range(3):
            c.queue.enqueue_nd_range_kernel(c.kernel, (N,), (64,))
        pool = context.pending_queues()
        assert pool == [c.queue]
        assert service.arbiter.estimate_pool_seconds(context, pool) == (
            _reference_pool_seconds(context, pool)
        )

    def test_set_arg_repricing_is_bit_identical(self, service):
        c = Client(service.create_session("t"))
        c.kernel.set_cost_model(_scalar_priced_model(10.0))
        context = c.session.context
        estimate = service.arbiter.estimate_pool_seconds
        for _ in range(3):
            c.enqueue_epoch()
        before = estimate(context, context.pending_queues())
        c.kernel.set_arg(1, 3.0)  # bumps cost_edits: the sums restart
        c.queue.enqueue_nd_range_kernel(c.kernel, (N,), (64,))
        pool = context.pending_queues()
        after = estimate(context, pool)
        assert after == _reference_pool_seconds(context, pool)
        assert after != before

    def test_replay_costs_each_command_once_per_device(
        self, profile_dir, monkeypatch
    ):
        from repro.replay.runner import ReplayConfig, run_service_replay
        from repro.service import arbiter

        calls = [0]

        def counting_kernel_time(spec, cost):
            calls[0] += 1
            return kernel_time(spec, cost)

        monkeypatch.setattr(arbiter, "kernel_time", counting_kernel_time)
        config = ReplayConfig(
            commands=100,
            tenants=4,
            rate=40.0,
            seed=1,
            weights=(4.0, 2.0, 1.0, 1.0),
            chunk=64,
            profile_dir=profile_dir,
        )
        report = run_service_replay(config)
        commands = config.commands * config.tenants
        assert report.total_commands == commands
        devices = SchedulingService(profile_dir=profile_dir).platform.device_names
        assert 0 < calls[0] <= commands * len(devices)
        # The annotation model's costs memoise kernel_time per device, so
        # each tenant's kernel families are priced once per device.
        assert calls[0] <= config.tenants * len(config.families) * len(devices)


# ---------------------------------------------------------------------------
# Device failure under the service
# ---------------------------------------------------------------------------
class TestServiceFaults:
    def _run(self, profile_dir, fail):
        """Two tenants, each with one dispatched (in-flight) and one
        deferred epoch of functional kernels; optionally fail the device
        both tenants' in-flight work runs on."""
        svc = SchedulingService(profile_dir=profile_dir, quantum=1e6)
        runs = {}
        clients = {}
        events = {"a": [], "b": []}
        for name, factor in (("a", 2.0), ("b", 3.0)):
            c = Client(svc.create_session(name))
            c.buffer.array[:] = 1.0

            def payload(args, name=name, factor=factor):
                runs[name] = runs.get(name, 0) + 1
                args["x"] *= factor

            c.kernel.set_host_function(payload)
            c.factor = factor
            clients[name] = c

        def epoch():
            for name, c in clients.items():
                c.kernel.set_arg(0, c.buffer)
                c.kernel.set_arg(1, c.factor)
                for _ in range(4):
                    events[name].append(
                        c.queue.enqueue_nd_range_kernel(c.kernel, (N,), (64,))
                    )

        epoch()
        assert svc.trigger() == 2  # huge quantum: both pools dispatch
        epoch()  # deferred behind the in-flight epoch
        dead, failed_at = None, None
        if fail:
            dead = clients["a"].queue.device
            for name, c in clients.items():
                assert c.queue.device == dead
                assert c.queue.pending  # the deferred epoch
                assert not events[name][3].task.done  # the in-flight one
            # One injector, armed on tenant a: the failure is still
            # platform-wide, so tenant b must recover too.
            failed_at = svc.now
            FaultInjector(clients["a"].session.context).arm(
                FaultPlan().fail_device(dead, at=failed_at)
            )
            svc.run_until_time(failed_at)
            replayed = {
                iv.meta["queue"]
                for iv in svc.platform.engine.trace
                if iv.task.startswith("replay:")
            }
            assert replayed == {c.queue.name for c in clients.values()}
        svc.drain()
        outputs = {n: c.buffer.array.copy() for n, c in clients.items()}
        return svc, runs, events, outputs, dead, failed_at

    def test_failure_recovers_every_tenant(self, profile_dir):
        _, runs_ok, _, outputs_ok, _, _ = self._run(profile_dir, fail=False)
        svc, runs, events, outputs, dead, failed_at = self._run(
            profile_dir, fail=True
        )
        # Every payload ran exactly once (replays only re-charge time).
        assert runs == runs_ok == {"a": 8, "b": 8}
        # drain() completed every command, the replayed ones included.
        assert all(
            e.task is not None and e.task.done
            for tenant in events.values()
            for e in tenant
        )
        assert not any(s.pending_queues() for s in svc.active_sessions())
        # Nothing ran on the dead device after it failed.
        late = [
            iv
            for iv in svc.platform.engine.trace
            if iv.resource == f"dev:{dead}"
            and iv.end > failed_at
            and iv.category != "fault"
        ]
        assert late == []
        for name in outputs_ok:
            np.testing.assert_array_equal(outputs[name], outputs_ok[name])

    def test_failure_leaves_a_parked_tenant_deferred(self, profile_dir):
        svc = SchedulingService(profile_dir=profile_dir, quantum=1e6)
        parked = Client(
            svc.create_session(
                "parked", quota=TenantQuota(max_device_seconds=1e-12)
            )
        )
        parked.enqueue_epoch()
        parked.queue.finish()  # runs to completion, charged past its quota
        assert svc.arbiter.is_parked(parked.session)
        parked.enqueue_epoch()  # deferred, with nothing of it in flight
        deferred = list(parked.queue.pending)
        busy = [Client(svc.create_session(name)) for name in ("a", "b")]
        for c in busy:
            c.enqueue_epoch()
        assert svc.trigger() == 2  # the parked tenant is skipped
        dispatched = [t for _, t, _ in svc.arbiter.dispatch_log]
        # Fail the device running tenant a's epoch: recovery must neither
        # force the parked tenant's pool (QuotaExceeded) nor dispatch it.
        failed_at = svc.now
        FaultInjector(busy[0].session.context).arm(
            FaultPlan().fail_device(busy[0].queue.device, at=failed_at)
        )
        svc.run_until_time(failed_at)
        replayed = {
            iv.meta["queue"]
            for iv in svc.platform.engine.trace
            if iv.task.startswith("replay:")
        }
        assert replayed  # in-flight work was lost and recovered

        def still_deferred():
            pending = parked.queue.pending
            return len(pending) == len(deferred) and all(
                a is b and not a.issued for a, b in zip(pending, deferred)
            )

        assert still_deferred()
        later = [t for _, t, _ in svc.arbiter.dispatch_log[len(dispatched):]]
        assert "parked" not in later
        for c in busy:
            c.session.finish()
        svc.run_until_idle()
        assert not any(c.session.pending_queues() for c in busy)
        assert still_deferred()

"""Per-queue flags, SchedulerConfig interpretation and the MultiCL facade."""

import pytest

from repro import knobs
from repro.core.flags import (
    _ENV_FIELDS,
    CONFIG_PROPERTY_KEY,
    ITERATIVE_FREQ_ENV,
    SchedulerConfig,
)
from repro.core.runtime import MultiCL, RunStats
from repro.ocl.enums import ContextProperty, ContextScheduler, SchedFlag
from repro.sim.trace import Trace


# ---------------------------------------------------------------------------
# Per-queue flags
# ---------------------------------------------------------------------------
def test_static_queue_profiled_only_when_dynamic_also_set(profile_dir):
    """Under AUTO_FIT, SCHED_AUTO_STATIC alone places from hints with no
    profiling launch; with SCHED_AUTO_DYNAMIC also set, dynamic wins and
    the epoch is profiled."""
    src = """
// @multicl flops_per_item=300 bytes_per_item=8 writes=1
__kernel void work(__global float* in, __global float* out, int n) { }
"""
    static = SchedFlag.SCHED_AUTO_STATIC | SchedFlag.SCHED_KERNEL_EPOCH

    def profile_launches(flags):
        mcl = MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)
        ctx = mcl.context
        k = ctx.create_program(src).build().create_kernel("work")
        n = 1 << 16
        k.set_arg(0, ctx.create_buffer(4 * n))
        k.set_arg(1, ctx.create_buffer(4 * n))
        k.set_arg(2, n)
        q = mcl.queue(flags=flags)
        q.enqueue_nd_range_kernel(k, (n,), (64,))
        q.finish()
        return mcl.engine.trace.count(category="profile-kernel")

    assert profile_launches(static) == 0
    assert profile_launches(static | SchedFlag.SCHED_AUTO_DYNAMIC) > 0


# ---------------------------------------------------------------------------
# SchedulerConfig
# ---------------------------------------------------------------------------
def test_config_defaults_are_paper_settings():
    cfg = SchedulerConfig()
    assert cfg.data_caching and cfg.profile_caching and cfg.allow_minikernel
    assert not cfg.per_kernel_trigger
    assert cfg.iterative_refresh == 0


def test_config_with_():
    cfg = SchedulerConfig().with_(data_caching=False)
    assert not cfg.data_caching
    assert SchedulerConfig().data_caching  # original untouched (frozen)


def test_config_from_env(monkeypatch):
    """from_env reads each field from its knob-table row, whose default is
    the field's own (overlap and sanitize default to None: the context
    reads the environment for them)."""
    defaults = SchedulerConfig()
    for attr, name in _ENV_FIELDS.items():
        expect = None if attr in ("overlap", "sanitize") else knobs.KNOBS[name].default
        assert getattr(defaults, attr) == expect, attr
    env = {
        ITERATIVE_FREQ_ENV: "5",
        "MULTICL_PREDICT": "yes",
        "MULTICL_SPLIT": "1",
        "MULTICL_OVERLAP": "on",
        "MULTICL_SANITIZE": "true",
    }
    assert set(env) == set(_ENV_FIELDS.values())
    for name, raw in env.items():
        monkeypatch.setenv(name, raw)
    assert SchedulerConfig.from_env() == SchedulerConfig(
        iterative_refresh=5,
        predict=True,
        split=True,
        overlap=True,
        sanitize=True,
    )


def test_config_from_env_warns_on_invalid(monkeypatch):
    """A typo'd MULTICL_ITERATIVE_FREQUENCY warns, once per process (every
    tenant session resolves a config), and keeps the default."""
    monkeypatch.setenv(ITERATIVE_FREQ_ENV, "junk")
    with pytest.warns(RuntimeWarning, match=ITERATIVE_FREQ_ENV) as record:
        cfgs = [SchedulerConfig.from_env() for _ in range(3)]
    assert [w.category for w in record] == [RuntimeWarning]
    assert all(cfg.iterative_refresh == 0 for cfg in cfgs)


def test_config_from_env_valid_value_does_not_warn(monkeypatch, recwarn):
    monkeypatch.setenv(ITERATIVE_FREQ_ENV, "7")
    assert SchedulerConfig.from_env().iterative_refresh == 7
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("switch", ["sanitize", "predict", "overlap", "split"])
def test_mode_switch_precedence(switch, monkeypatch, profile_dir):
    """MultiCL argument > explicit config value > environment > default,
    and the context hands its one resolved config to the scheduler."""
    env = f"MULTICL_{switch.upper()}"

    def resolved(config=None, **kw):
        mcl = MultiCL(
            policy=ContextScheduler.ROUND_ROBIN, config=config,
            profile_dir=profile_dir, **kw,
        )
        assert mcl.context.scheduler.config is mcl.context.config
        return getattr(mcl.context.config, switch)

    monkeypatch.delenv(env, raising=False)
    assert resolved() is False
    monkeypatch.setenv(env, "1")
    assert resolved() is True
    assert resolved(SchedulerConfig(**{switch: False})) is False
    assert resolved(SchedulerConfig(**{switch: True}), **{switch: False}) is False
    # A config that leaves sanitize/overlap unset still defers to the
    # environment; predict/split are plain fields whose default wins.
    assert resolved(SchedulerConfig(iterative_refresh=3)) is (
        switch in ("sanitize", "overlap")
    )


def test_config_property_type_checked(profile_dir):
    from repro.ocl.platform import Platform

    platform = Platform(profile=True, profile_dir=profile_dir)
    with pytest.raises(TypeError):
        platform.create_context(
            properties={
                ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT,
                CONFIG_PROPERTY_KEY: {"data_caching": False},
            }
        )


# ---------------------------------------------------------------------------
# RunStats
# ---------------------------------------------------------------------------
def _trace():
    t = Trace()
    t.record("dev:cpu", "k", "kernel", 0.0, 1.0)
    t.record("dev:gpu0", "k", "kernel", 0.0, 0.5)
    t.record("dev:gpu0", "p", "profile-kernel", 0.5, 1.5)
    t.record("link:pcie", "s", "profile-transfer", 0.0, 0.25)
    t.record("host", "m", "schedule", 1.5, 1.6)
    t.record("dev:cpu", "old", "kernel", 10.0, 11.0)  # outside window
    return t


def test_runstats_window_filtering():
    stats = RunStats.from_trace(_trace(), 0.0, 5.0)
    assert stats.duration == 5.0
    assert stats.kernel_count_by_device == {"cpu": 1, "gpu0": 1}
    assert stats.kernel_seconds_by_device["cpu"] == pytest.approx(1.0)


def test_runstats_overhead_categories():
    stats = RunStats.from_trace(_trace(), 0.0, 5.0)
    assert stats.profiling_seconds == pytest.approx(1.0 + 0.25 + 0.1)
    assert stats.profile_transfer_seconds == pytest.approx(0.25)
    assert stats.profile_kernel_seconds == pytest.approx(1.0)


def test_runstats_distribution():
    stats = RunStats.from_trace(_trace(), 0.0, 5.0)
    dist = stats.kernel_distribution()
    assert dist == {"cpu": 0.5, "gpu0": 0.5}
    empty = RunStats.from_trace(Trace(), 0.0, 1.0)
    assert empty.kernel_distribution() == {}


# ---------------------------------------------------------------------------
# MultiCL facade
# ---------------------------------------------------------------------------
def test_facade_manual_context(profile_dir):
    mcl = MultiCL(profile_dir=profile_dir)
    assert mcl.context.scheduler is None
    assert list(mcl.device_names) == ["cpu", "gpu0", "gpu1"]


def test_facade_measure(profile_dir):
    mcl = MultiCL(profile_dir=profile_dir)
    q = mcl.queue(device="gpu0")
    buf = mcl.context.create_buffer(1 << 26)

    def work():
        q.enqueue_write_buffer(buf)

    stats = mcl.measure(work)
    assert stats.duration > 0
    assert stats.by_category.get("transfer", 0) > 0


def test_facade_scheduler_mappings_empty_for_manual(profile_dir):
    mcl = MultiCL(profile_dir=profile_dir)
    assert mcl.scheduler_mappings() == []

"""Static device profiler: measurement, caching, interpolation."""

import json

import pytest

from repro.core import profile_store
from repro.core.device_profiler import (
    BENCH_SIZES,
    BandwidthCurve,
    DeviceProfile,
    get_or_measure,
    measure,
)
from repro.hardware.presets import aji_cluster15_node, symmetric_dual_gpu_node
from repro.ocl.platform import Platform


# ---------------------------------------------------------------------------
# BandwidthCurve
# ---------------------------------------------------------------------------
def _curve():
    c = BandwidthCurve()
    # A link with 10us latency and 1 GB/s.
    for size in BENCH_SIZES:
        c.add(size, 10e-6 + size / 1e9)
    return c


def test_curve_interpolates_between_samples():
    c = _curve()
    mid = 3 * 1024  # between 1KB and 4KB samples
    t = c.seconds_for(mid)
    assert c.seconds_for(1024) < t < c.seconds_for(4096)


def test_curve_exact_at_samples():
    c = _curve()
    for size in BENCH_SIZES:
        assert c.seconds_for(size) == pytest.approx(10e-6 + size / 1e9)


def test_curve_extrapolates_beyond_largest():
    c = _curve()
    big = BENCH_SIZES[-1] * 4
    # Asymptotic bandwidth ~1 GB/s.
    assert c.seconds_for(big) == pytest.approx(10e-6 + big / 1e9, rel=0.01)


def test_curve_zero_bytes_is_free():
    assert _curve().seconds_for(0) == 0.0


def test_curve_rejects_negative():
    with pytest.raises(ValueError):
        _curve().seconds_for(-1)


def test_empty_curve_rejected():
    with pytest.raises(ValueError):
        BandwidthCurve().seconds_for(10)


def test_curve_bandwidth():
    assert _curve().bandwidth_gbs() == pytest.approx(1.0, rel=0.01)


def test_curve_roundtrip():
    c = _curve()
    c2 = BandwidthCurve.from_dict(c.to_dict())
    assert c2.sizes == c.sizes and c2.seconds == c.seconds


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def measured():
    platform = Platform(profile=False)
    return measure(platform), platform


def test_measure_covers_all_devices(measured):
    profile, platform = measured
    assert profile.devices == sorted(platform.device_names)
    for dev in profile.devices:
        assert profile.gflops[dev] > 0
        assert profile.bandwidth_gbs[dev] > 0
        assert profile.launch_overhead_s[dev] > 0
        assert len(profile.h2d[dev].sizes) == len(BENCH_SIZES)


def test_measured_gpu_faster_than_cpu(measured):
    profile, _ = measured
    assert profile.gflops["gpu0"] > profile.gflops["cpu"]
    assert profile.bandwidth_gbs["gpu0"] > profile.bandwidth_gbs["cpu"]


def test_measured_matches_link_model(measured):
    profile, platform = measured
    nbytes = 1 << 24
    model = platform.node.h2d_seconds("gpu0", nbytes)
    assert profile.h2d_seconds("gpu0", nbytes) == pytest.approx(model, rel=0.02)


def test_d2d_is_staged_sum(measured):
    profile, _ = measured
    nbytes = 1 << 22
    assert profile.d2d_seconds("gpu0", "gpu1", nbytes) == pytest.approx(
        profile.d2h_seconds("gpu0", nbytes) + profile.h2d_seconds("gpu1", nbytes)
    )
    assert profile.d2d_seconds("gpu0", "gpu0", nbytes) == 0.0


def test_measure_charges_simulated_time():
    platform = Platform(profile=False)
    measure(platform)
    assert platform.engine.now > 0


def test_noise_is_deterministic():
    p1 = measure(Platform(profile=False), noise=0.05)
    p2 = measure(Platform(profile=False), noise=0.05)
    assert p1.gflops == p2.gflops
    assert p1.gflops != measure(Platform(profile=False), noise=0.0).gflops


def test_profile_roundtrip(measured):
    profile, _ = measured
    again = DeviceProfile.from_dict(profile.to_dict())
    assert again.gflops == profile.gflops
    assert again.launch_overhead_s == profile.launch_overhead_s
    assert again.h2d_seconds("cpu", 12345) == profile.h2d_seconds("cpu", 12345)


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------
def test_get_or_measure_uses_cache(tmp_path):
    cache = str(tmp_path)
    p1 = Platform(profile=False)
    prof1 = get_or_measure(p1, cache_dir=cache)
    assert p1.engine.now > 0  # cold cache: benchmarks ran
    p2 = Platform(profile=False)
    prof2 = get_or_measure(p2, cache_dir=cache)
    assert p2.engine.now == 0.0  # warm cache: no simulated work
    assert prof1.gflops == prof2.gflops


def test_cache_invalidated_by_config_change(tmp_path):
    cache = str(tmp_path)
    get_or_measure(Platform(profile=False), cache_dir=cache)
    other = Platform(symmetric_dual_gpu_node(), profile=False)
    prof = get_or_measure(other, cache_dir=cache)
    assert other.engine.now > 0  # different node -> re-measured
    assert set(prof.gflops) == {"gpu0", "gpu1"}


def test_corrupt_cache_treated_as_miss(tmp_path):
    cache = str(tmp_path)
    spec = aji_cluster15_node()
    path = profile_store.cache_path(spec, cache)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json")
    platform = Platform(profile=False)
    get_or_measure(platform, cache_dir=cache)
    assert platform.engine.now > 0
    # And the cache has been repaired.
    assert json.loads(path.read_text())["node_name"] == spec.name


def test_platforms_share_one_profile_that_no_run_mutates(tmp_path):
    """Platforms on one unchanged profile file share one decoded
    DeviceProfile; every experiment and both replay modes leave it equal
    to the file."""
    from repro.bench.figures import EXPERIMENTS, run_experiment
    from repro.replay import ReplayConfig, run_serial, run_service_replay

    cache = str(tmp_path)
    try:
        profile_store.warm([None], cache)
        shared = Platform(profile=True, profile_dir=cache).device_profile
        for name in EXPERIMENTS:
            run_experiment(name, fast=True)
        config = ReplayConfig(commands=500, tenants=2, profile_dir=cache)
        run_serial(config)
        run_service_replay(config)
    finally:
        profile_store.set_profile_dir(None)
    assert Platform(profile=True, profile_dir=cache).device_profile is shared
    path = profile_store.cache_path(aji_cluster15_node(), cache)
    stored = json.loads(path.read_text())
    assert dict(shared.to_dict(), fingerprint=stored["fingerprint"]) == stored


def test_fingerprint_stable_and_sensitive():
    a = profile_store.node_fingerprint(aji_cluster15_node())
    b = profile_store.node_fingerprint(aji_cluster15_node())
    c = profile_store.node_fingerprint(symmetric_dual_gpu_node())
    assert a == b
    assert a != c


def test_fingerprint_memo_bounded():
    """Fingerprinting a stream of distinct specs never grows the memo
    past its FIFO bound."""
    import dataclasses

    base = aji_cluster15_node()
    digests = set()
    for i in range(3 * profile_store._FP_MEMO_MAX):
        spec = dataclasses.replace(base, name=f"memo-bound-{i}")
        digests.add(profile_store.node_fingerprint(spec))
    assert len(digests) == 3 * profile_store._FP_MEMO_MAX
    assert len(profile_store._fp_memo) <= profile_store._FP_MEMO_MAX


def test_fingerprint_memo_shared_across_equal_specs():
    """Distinct-but-equal spec instances reuse one memo entry."""
    a = aji_cluster15_node()
    fa = profile_store.node_fingerprint(a)
    size = len(profile_store._fp_memo)
    b = aji_cluster15_node()
    assert profile_store.node_fingerprint(b) == fa
    assert len(profile_store._fp_memo) == size


def test_env_var_controls_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(profile_store.PROFILE_CACHE_ENV, str(tmp_path))
    assert profile_store.default_cache_dir() == tmp_path

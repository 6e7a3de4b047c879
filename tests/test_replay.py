"""Open-loop replay: arrivals, histograms, engine/service replay, sharding."""

import math
import random
import re

import pytest

from repro.replay import (
    DEFAULT_FAMILIES,
    DiscardSink,
    LatencyHistogram,
    ReplayConfig,
    derive_seed,
    jain_index,
    make_process,
    merge_results,
    run_serial,
    run_service_replay,
    run_sharded,
    run_tenant,
    verify_against_serial,
)
from repro.replay.arrivals import DiurnalProcess, OnOffProcess, PoissonProcess


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_same_seed_same_schedule(kind):
    p = make_process(kind, rate=100.0)
    a = list(p.stream(DEFAULT_FAMILIES, seed=42, limit=500))
    b = list(p.stream(DEFAULT_FAMILIES, seed=42, limit=500))
    assert a == b  # bit-identical, not approximately equal


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_different_seeds_differ(kind):
    p = make_process(kind, rate=100.0)
    a = list(p.stream(DEFAULT_FAMILIES, seed=1, limit=100))
    b = list(p.stream(DEFAULT_FAMILIES, seed=2, limit=100))
    assert a != b


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_arrivals_nondecreasing_and_families_in_range(kind):
    p = make_process(kind, rate=200.0)
    prev = 0.0
    for t, fam in p.stream(DEFAULT_FAMILIES, seed=7, limit=1000):
        assert t >= prev
        assert 0 <= fam < len(DEFAULT_FAMILIES)
        prev = t


def test_family_mix_follows_weights():
    p = PoissonProcess(rate=100.0)
    counts = [0] * len(DEFAULT_FAMILIES)
    n = 20000
    for _, fam in p.stream(DEFAULT_FAMILIES, seed=3, limit=n):
        counts[fam] += 1
    total_w = sum(f.weight for f in DEFAULT_FAMILIES)
    for fam, count in zip(DEFAULT_FAMILIES, counts):
        expected = fam.weight / total_w
        assert abs(count / n - expected) < 0.02


def test_poisson_rate_matches_long_run():
    p = PoissonProcess(rate=50.0)
    times = [t for t, _ in p.stream(DEFAULT_FAMILIES, seed=9, limit=5000)]
    achieved = len(times) / times[-1]
    assert abs(achieved - 50.0) / 50.0 < 0.05


def test_onoff_arrivals_only_in_on_windows():
    p = OnOffProcess(rate=100.0, on_s=1.0, off_s=3.0)
    cycle = 4.0
    for t, _ in p.stream(DEFAULT_FAMILIES, seed=5, limit=2000):
        offset = t % cycle
        assert offset <= 1.0 + 1e-9  # never inside the OFF window


def test_onoff_preserves_long_run_rate():
    p = OnOffProcess(rate=100.0, on_s=2.0, off_s=6.0)
    times = [t for t, _ in p.stream(DEFAULT_FAMILIES, seed=11, limit=8000)]
    # Measure over complete on/off cycles: the stream always ends inside an
    # ON window, so a naive len/t_last estimate overcounts the rate.
    cycle = 8.0
    horizon = math.floor(times[-1] / cycle) * cycle
    inside = sum(1 for t in times if t < horizon)
    achieved = inside / horizon
    assert abs(achieved - 100.0) / 100.0 < 0.08


def test_diurnal_amplitude_validated():
    with pytest.raises(ValueError):
        DiurnalProcess(rate=10.0, amplitude=1.0)
    with pytest.raises(ValueError):
        DiurnalProcess(rate=10.0, amplitude=-0.1)


# Each would hang, divide by zero, or run time backwards mid-replay; the
# processes are only constructed here, never consumed.
@pytest.mark.parametrize("on_s", [0.0, -1.0, math.nan, math.inf])
def test_onoff_rejects_non_positive_or_non_finite_on_window(on_s):
    with pytest.raises(ValueError, match="on_s"):
        OnOffProcess(rate=10.0, on_s=on_s)
    with pytest.raises(ValueError, match="on_s"):
        ReplayConfig(process="bursty", process_params={"on_s": on_s}).validate()


@pytest.mark.parametrize("off_s", [-1.0, math.nan, math.inf])
def test_onoff_rejects_negative_or_non_finite_off_window(off_s):
    with pytest.raises(ValueError, match="off_s"):
        OnOffProcess(rate=10.0, off_s=off_s)
    with pytest.raises(ValueError, match="off_s"):
        ReplayConfig(process="bursty", process_params={"off_s": off_s}).validate()


@pytest.mark.parametrize("period_s", [0.0, -1.0, math.nan, math.inf])
def test_diurnal_rejects_non_positive_or_non_finite_period(period_s):
    with pytest.raises(ValueError, match="period_s"):
        DiurnalProcess(rate=10.0, period_s=period_s)
    with pytest.raises(ValueError, match="period_s"):
        ReplayConfig(
            process="diurnal", process_params={"period_s": period_s}
        ).validate()


def test_onoff_accepts_zero_off_window():
    times = [t for t, _ in OnOffProcess(rate=50.0, off_s=0.0).stream(
        DEFAULT_FAMILIES, seed=3, limit=500)]
    assert times == sorted(times) and all(math.isfinite(t) for t in times)


def test_diurnal_modulates_rate_over_period():
    p = DiurnalProcess(rate=200.0, amplitude=0.8, period_s=10.0)
    counts = {}
    for t, _ in p.stream(DEFAULT_FAMILIES, seed=13, limit=20000):
        counts[int(t % 10.0)] = counts.get(int(t % 10.0), 0) + 1
    # First half of the sine period (rising) must see more traffic than
    # the trough half.
    peak = sum(counts.get(s, 0) for s in (1, 2, 3))
    trough = sum(counts.get(s, 0) for s in (6, 7, 8))
    assert peak > 1.5 * trough


def test_make_process_unknown_kind():
    with pytest.raises(ValueError, match="unknown arrival process"):
        make_process("fractal", rate=1.0)


@pytest.mark.parametrize(
    "process, bad, accepted",
    [
        ("poisson", "on_s", "none"),
        ("bursty", "amplitude", "['on_s', 'off_s']"),
        ("diurnal", "on_s", "['amplitude', 'period_s']"),
    ],
    ids=["poisson", "bursty", "diurnal"],
)
def test_unknown_process_parameter_is_a_value_error(process, bad, accepted):
    with pytest.raises(ValueError, match=re.escape(f"accepts {accepted}")):
        ReplayConfig(process=process, process_params={bad: 1.0}).validate()


def test_derive_seed_distinct_substreams():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1, 0) != derive_seed(0, 0)


# ---------------------------------------------------------------------------
# Latency histogram
# ---------------------------------------------------------------------------
def test_histogram_quantile_bounded_relative_error():
    rng = random.Random(17)
    samples = [rng.lognormvariate(-6.0, 1.0) for _ in range(20000)]
    hist = LatencyHistogram()
    for s in samples:
        hist.add(s)
    samples.sort()
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = samples[min(int(q * len(samples)), len(samples) - 1)]
        approx = hist.quantile(q)
        assert abs(approx - exact) / exact < 0.08  # growth=1.05 + rank slop


def test_histogram_merge_equals_combined():
    a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    rng = random.Random(23)
    for i in range(5000):
        x = rng.expovariate(100.0)
        (a if i % 2 else b).add(x)
        both.add(x)
    a.merge(b)
    merged, combined = a.to_dict(), both.to_dict()
    # Bucket counts and extrema merge exactly; `total` is a float sum whose
    # order differs between the two paths, so it only matches to an ulp.
    assert merged["total"] == pytest.approx(combined.pop("total"))
    merged.pop("total")
    assert merged == combined
    assert a.quantiles([0.5, 0.99]) == both.quantiles([0.5, 0.99])


def test_histogram_roundtrip_and_stats():
    hist = LatencyHistogram()
    for x in (0.001, 0.002, 0.004, 0.1):
        hist.add(x)
    clone = LatencyHistogram.from_dict(hist.to_dict())
    assert clone.count == 4
    assert clone.total == hist.total
    assert clone.min == 0.001 and clone.max == 0.1
    assert clone.quantile(0.5) == hist.quantile(0.5)
    assert hist.mean == pytest.approx(hist.total / 4)


def test_histogram_edge_cases():
    empty = LatencyHistogram()
    assert empty.quantiles([0.5, 0.99]) == [0.0, 0.0]
    assert empty.mean == 0.0
    hist = LatencyHistogram()
    hist.add(0.0)  # at/below floor -> bucket 0
    hist.add(1e-9)
    assert hist.quantile(0.5) == 1e-9  # edge clamped into observed [min, max]
    with pytest.raises(ValueError):
        LatencyHistogram(floor=0.0)
    with pytest.raises(ValueError):
        hist.merge(LatencyHistogram(growth=1.1))


def test_jain_index():
    assert jain_index([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_index([]) == 1.0


# ---------------------------------------------------------------------------
# Engine-mode replay
# ---------------------------------------------------------------------------
@pytest.fixture
def small_config(profile_dir):
    return ReplayConfig(
        commands=2000,
        tenants=2,
        rate=300.0,
        seed=5,
        chunk=256,
        spill_every=512,
        profile_dir=profile_dir,
    )


def test_run_tenant_completes_all_requests(small_config):
    result = run_tenant(small_config, 0)
    assert result.completed == result.requests == 2000
    assert result.end_time > 0.0
    assert result.latency_sum > 0.0
    hist = result.hist
    assert hist.count == 2000
    assert hist.min > 0.0
    assert 0.0 < hist.quantile(0.5) <= hist.quantile(0.999)
    assert sum(result.device_seconds.values()) > 0.0


def test_streaming_keeps_resident_tail_bounded(small_config):
    result = run_tenant(small_config, 0)
    # Memory flatness: the resident tail never exceeded the spill
    # threshold; the final flush pushed everything through the sink.
    assert result.resident < 512
    assert result.spilled == 2000


def test_streaming_matches_resident_aggregates(small_config):
    from dataclasses import replace

    streaming = run_tenant(small_config, 0)
    resident = run_tenant(replace(small_config, streaming=False), 0)
    assert resident.spilled == 0
    assert resident.resident == 2000
    # Identical simulation either way: streaming only changes bookkeeping.
    assert streaming.checksum == resident.checksum
    assert streaming.device_seconds == resident.device_seconds
    assert streaming.histogram == resident.histogram


def test_jsonl_trace_sink_records_all_intervals(small_config, tmp_path):
    from dataclasses import replace

    from repro.sim.export import read_jsonl_trace

    path = tmp_path / "replay-trace"
    result = run_tenant(replace(small_config, trace_path=str(path)), 0)
    spilled = list(read_jsonl_trace(f"{path}.tenant0.jsonl"))
    assert len(spilled) == 2000  # final flush included the tail
    assert result.spilled == 2000
    total = sum(iv.duration for iv in spilled)
    assert total == pytest.approx(sum(result.device_seconds.values()))


def test_replay_deterministic_across_runs(small_config):
    a = run_tenant(small_config, 0)
    b = run_tenant(small_config, 0)
    assert a.checksum == b.checksum
    assert a.histogram == b.histogram


def test_replay_seed_changes_outcome(small_config):
    from dataclasses import replace

    a = run_tenant(small_config, 0)
    b = run_tenant(replace(small_config, seed=6), 0)
    assert a.checksum != b.checksum


def test_rr_policy_differs_from_jsq(small_config):
    from dataclasses import replace

    jsq = run_tenant(small_config, 0)
    rr = run_tenant(replace(small_config, policy="rr"), 0)
    assert jsq.checksum != rr.checksum
    # Same arrivals either way; only dispatch (and thus latency) changes.
    assert rr.completed == jsq.completed


def test_config_validation():
    with pytest.raises(ValueError):
        ReplayConfig(commands=0).validate()
    with pytest.raises(ValueError):
        ReplayConfig(tenants=0).validate()
    with pytest.raises(ValueError):
        ReplayConfig(rate=-1.0).validate()
    with pytest.raises(ValueError):
        ReplayConfig(policy="lifo").validate()
    with pytest.raises(ValueError):
        ReplayConfig(weights=()).validate()
    with pytest.raises(ValueError):
        ReplayConfig(process="unknown").validate()


@pytest.mark.parametrize("bad", [
    {"rate": math.nan}, {"rate": math.inf}, {"rate": 0.0},
    {"weights": (math.nan, 1.0)}, {"weights": (1.0, math.inf)},
    {"weights": (0.0,)}, {"weights": (-1.0,)},
])
def test_config_rejects_non_finite_or_non_positive_rates_and_weights(bad):
    # A NaN weight's credit never covers a pool, so service replay's drain
    # would spin forever; an infinite one schedules events in the past.
    with pytest.raises(ValueError, match="positive and finite"):
        ReplayConfig(**bad).validate()


@pytest.mark.parametrize("weights", ["nan,1", "1,inf", "-inf", "0", "-1,2"])
def test_cli_rejects_non_finite_or_non_positive_weights(weights, capsys):
    from repro.replay.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--commands", "1", "--tenants", "1", f"--weights={weights}"])
    assert exc.value.code == 2
    assert "positive and finite" in capsys.readouterr().err


def test_chunk_and_spill_defaults_and_validation():
    from repro.replay.cli import main

    cfg = ReplayConfig()
    assert (cfg.chunk, cfg.spill_every) == (8192, 16384)
    for bad in ({"chunk": 0}, {"spill_every": 0}, {"chunk": -5}):
        with pytest.raises(ValueError):
            ReplayConfig(**bad).validate()
    # The CLI flags are the only other way to set them, and reject the same.
    assert main(["--chunk", "0"]) == 2
    assert main(["--spill-every", "0"]) == 2


# ---------------------------------------------------------------------------
# Sharding: serial == sharded, bit for bit
# ---------------------------------------------------------------------------
def test_sharded_bit_identical_to_serial(small_config):
    serial = run_serial(small_config)
    sharded = run_sharded(small_config, shards=2)
    assert sharded.checksum == serial.checksum  # float equality, no tol
    assert sharded.total_commands == serial.total_commands == 4000
    assert sharded.merged.to_dict() == serial.merged.to_dict()
    assert sharded.fairness == serial.fairness
    assert [t.checksum for t in sharded.tenants] == [
        t.checksum for t in serial.tenants
    ]
    assert verify_against_serial(sharded, small_config)


def test_sharded_more_shards_than_tenants(small_config):
    sharded = run_sharded(small_config, shards=8)
    serial = run_serial(small_config)
    assert sharded.checksum == serial.checksum


def test_merge_is_order_independent(small_config):
    results = [run_tenant(small_config, i) for i in range(2)]
    forward = merge_results(results)
    backward = merge_results(list(reversed(results)))
    assert forward.checksum == backward.checksum
    assert forward.merged.to_dict() == backward.merged.to_dict()
    assert [t.tenant for t in backward.tenants] == ["tenant-0", "tenant-1"]


def test_report_metrics_and_render(small_config):
    report = run_serial(small_config)
    pct = report.percentiles()
    assert 0.0 < pct["p50"] <= pct["p99"] <= pct["p999"]
    assert report.simulated_throughput > 0.0
    assert report.replay_rate > 0.0
    assert 0.0 < report.fairness <= 1.0
    text = report.render()
    assert "p99" in text and "tenant-1" in text and "fairness" in text


# ---------------------------------------------------------------------------
# Service-mode replay (shared fleet, fair-share contention)
# ---------------------------------------------------------------------------
def test_service_replay_contends_and_reports_shares(profile_dir):
    config = ReplayConfig(
        commands=150,
        tenants=3,
        rate=400.0,  # 3 x 400/s >> fleet capacity: clear shared overload
        seed=2,
        weights=(4.0, 2.0, 1.0),
        chunk=64,
        profile_dir=profile_dir,
    )
    report = run_service_replay(config)
    assert report.total_commands == 450
    assert all(t.completed == 150 for t in report.tenants)
    assert set(report.shares) == {"tenant-0", "tenant-1", "tenant-2"}
    assert sum(report.shares.values()) == pytest.approx(1.0)
    # Under shared-fleet overload the heavier tenant must finish its
    # (identical) workload no slower than the lightest one.
    by_name = {t.tenant: t for t in report.tenants}
    assert by_name["tenant-0"].end_time <= by_name["tenant-2"].end_time
    assert report.merged.count == 450
    assert math.isfinite(report.checksum)


def test_service_replay_spills_to_jsonl(profile_dir, tmp_path):
    from repro.sim.export import read_jsonl_trace

    path = tmp_path / "svc"
    config = ReplayConfig(
        commands=50, tenants=2, rate=200.0, seed=4, chunk=32,
        spill_every=64, trace_path=str(path), profile_dir=profile_dir,
    )
    report = run_service_replay(config)
    spilled = list(read_jsonl_trace(f"{path}.service.jsonl"))
    kernels = [iv for iv in spilled if iv.category == "kernel"]
    assert len(kernels) == 100  # every request, final flush included
    for t in report.tenants:
        mine = [iv for iv in kernels if iv.meta.get("tenant") == t.tenant]
        assert len(mine) == 50
        assert sum(iv.duration for iv in mine) == pytest.approx(
            t.device_seconds["fleet"]
        )


def test_service_replay_deterministic(profile_dir):
    config = ReplayConfig(
        commands=60, tenants=2, rate=100.0, seed=3, chunk=32,
        profile_dir=profile_dir,
    )
    a = run_service_replay(config)
    b = run_service_replay(config)
    assert a.checksum == b.checksum


def test_library_replays_independent_of_profile_cache(tmp_path):
    """Called on a fresh profile_dir, both replay entry points report the
    same on the first (cold-cache) call as on the second (warm)."""
    engine_config = ReplayConfig(
        commands=300, rate=200.0, profile_dir=str(tmp_path / "engine"),
    )
    cold, warm = [run_tenant(engine_config, 0) for _ in range(2)]
    assert cold.checksum == warm.checksum
    service_config = ReplayConfig(
        commands=100, rate=40.0, chunk=64, weights=(4.0, 2.0, 1.0, 1.0),
        seed=1, profile_dir=str(tmp_path / "service"),
    )
    cold, warm = [run_service_replay(service_config) for _ in range(2)]
    assert cold.checksum == warm.checksum


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_engine_mode(profile_dir, monkeypatch, capsys):
    from repro.core import profile_store
    from repro.replay.cli import main

    monkeypatch.setenv(profile_store.PROFILE_DIR_ENV, profile_dir)
    profile_store.set_profile_dir(profile_dir)
    rc = main(
        ["--commands", "500", "--tenants", "2", "--rate", "200",
         "--shards", "2", "--verify-serial", "--json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified: sharded replay bit-identical" in out
    assert '"total_commands": 1000' in out


def test_cli_service_report_independent_of_profile_cache(tmp_path):
    """With no MULTICL_PROFILE_DIR, a service replay in a fresh $HOME gives
    the same report on its first (cold-cache) and second run."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, HOME=str(tmp_path))
    env.pop("MULTICL_PROFILE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"),
    ]))
    reports = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.replay", "--mode", "service",
             "--commands", "2000", "--json"],
            env=env, capture_output=True, text=True, check=True,
        )
        reports.append(json.loads(proc.stdout))
    cold, warm = reports
    assert cold["checksum"] == warm["checksum"]
    assert cold["fairness"] == warm["fairness"]


def test_replay_imports_no_benchmark_code(tmp_path):
    """A replay resolves and warms its profile cache without loading the
    experiment harness or any workload (checked in a fresh interpreter:
    this one has imported both)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "import sys\n"
        "from repro.replay import ReplayConfig, run_serial, run_service_replay\n"
        "run_serial(ReplayConfig(commands=200, tenants=2))\n"
        "run_service_replay(ReplayConfig(commands=200, tenants=2))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.bench', 'repro.workloads'))))\n"
    )
    env = dict(os.environ, MULTICL_PROFILE_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH"),
    ]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_cli_rejects_bad_arguments(capsys):
    from repro.replay.cli import main

    assert main(["--commands", "0"]) == 2
    assert main(["--mode", "service", "--shards", "4"]) == 2


def test_bench_cli_delegates_replay(profile_dir, monkeypatch, capsys):
    from repro.core import profile_store
    from repro.bench.__main__ import main as bench_main

    monkeypatch.setenv(profile_store.PROFILE_DIR_ENV, profile_dir)
    profile_store.set_profile_dir(profile_dir)
    rc = bench_main(["replay", "--commands", "300", "--tenants", "1",
                     "--rate", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "open-loop replay: 300 commands" in out


def test_discard_sink_counts():
    sink = DiscardSink()
    sink.consume([1, 2, 3])
    sink.consume([4])
    assert sink.consumed == 4
    sink.close()  # base-class no-op

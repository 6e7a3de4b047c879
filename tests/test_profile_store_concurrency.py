"""Concurrent access to the on-disk artifact store: single-flight,
atomic writes, corruption recovery."""

import json
import multiprocessing
import os

import pytest

from repro.core import profile_store
from repro.core.device_profiler import get_or_measure
from repro.hardware.presets import aji_cluster15_node
from repro.ocl.platform import Platform

SPEC = aji_cluster15_node()


def _payload(tag):
    return {"node_name": SPEC.name, "tag": tag}


def _cached(cache_dir, compute):
    """SPEC's profile slot in ``cache_dir``, payloads decoded as dicts."""
    return profile_store.cached(
        profile_store.cache_path(SPEC, cache_dir), SPEC, compute, dict
    )


def _never():
    raise AssertionError("a valid cache file was recomputed")


# ---------------------------------------------------------------------------
# cached: single flight
# ---------------------------------------------------------------------------
def test_load_or_compute_cold_computes_once_then_hits(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return _payload("first")

    payload, computed = _cached(str(tmp_path), compute)
    assert computed and payload["tag"] == "first" and len(calls) == 1

    payload2, computed2 = _cached(str(tmp_path), lambda: _payload("second"))
    assert not computed2 and payload2["tag"] == "first"


def test_load_or_compute_stamps_fingerprint(tmp_path):
    payload, _ = _cached(str(tmp_path), lambda: _payload("x"))
    assert payload["fingerprint"] == profile_store.node_fingerprint(SPEC)
    path = profile_store.cache_path(SPEC, str(tmp_path))
    assert json.loads(path.read_text()) == payload


def _race_worker(cache_dir, barrier, queue):
    def compute():
        # Marker file per *execution* of compute — the single-flight
        # assertion counts these across all racing processes.
        marker = os.path.join(cache_dir, f"computed-{os.getpid()}")
        with open(marker, "w") as fh:
            fh.write("1")
        return {"node_name": SPEC.name, "winner": os.getpid()}

    barrier.wait()
    payload, computed = _cached(cache_dir, compute)
    queue.put((os.getpid(), computed, payload["winner"]))


def test_n_processes_racing_cold_cache_measure_exactly_once(tmp_path):
    n = 4
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n)
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_race_worker, args=(str(tmp_path), barrier, queue))
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=60) for _ in range(n)]
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    markers = [f for f in os.listdir(tmp_path) if f.startswith("computed-")]
    assert len(markers) == 1, f"compute ran {len(markers)} times, want 1"
    winners = {winner for _, _, winner in results}
    assert len(winners) == 1, "losers must re-read the winner's payload"
    computed_flags = [computed for _, computed, _ in results]
    assert computed_flags.count(True) == 1


def _profile_race_worker(cache_dir, barrier, queue):
    barrier.wait()
    platform = Platform(profile=False)
    profile = get_or_measure(platform, cache_dir=cache_dir)
    # engine.now > 0 iff *this* process paid for the microbenchmarks.
    queue.put((platform.engine.now > 0.0, sorted(profile.gflops)))


def test_racing_device_profilers_single_measurement(tmp_path):
    n = 3
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n)
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_profile_race_worker, args=(str(tmp_path), barrier, queue)
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=120) for _ in range(n)]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    paid = [charged for charged, _ in results]
    assert paid.count(True) == 1, f"{paid.count(True)} processes measured"
    devices = {tuple(devs) for _, devs in results}
    assert len(devices) == 1


# ---------------------------------------------------------------------------
# Atomic tmp+rename
# ---------------------------------------------------------------------------
def _save(cache_dir, payload):
    payload = dict(payload, fingerprint=profile_store.node_fingerprint(SPEC))
    profile_store.save_json(profile_store.cache_path(SPEC, cache_dir), payload)


def _rewrite_worker(cache_dir, stop_path):
    i = 0
    while not os.path.exists(stop_path):
        _save(cache_dir, {"node_name": SPEC.name, "i": i})
        i += 1


def test_reader_never_sees_partial_write(tmp_path):
    _save(str(tmp_path), _payload("seed"))
    stop = tmp_path / "stop"
    ctx = multiprocessing.get_context("fork")
    writer = ctx.Process(target=_rewrite_worker, args=(str(tmp_path), str(stop)))
    writer.start()
    try:
        for _ in range(300):
            data, _ = _cached(str(tmp_path), _never)
            # Every read (the writer is mid-rewrite for most of them) is
            # either the complete old or the complete new payload.
            assert data["node_name"] == SPEC.name
            assert "fingerprint" in data
    finally:
        stop.write_text("stop")
        writer.join(timeout=60)
    assert writer.exitcode == 0


def test_save_leaves_no_tmp_litter(tmp_path):
    _save(str(tmp_path), _payload("x"))
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# Corruption recovery
# ---------------------------------------------------------------------------
def test_corrupted_cache_file_is_remeasured_not_crashed(tmp_path):
    path = profile_store.cache_path(SPEC, str(tmp_path))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ this is not json")
    payload, computed = _cached(str(tmp_path), lambda: _payload("fresh"))
    assert computed and payload["tag"] == "fresh"
    # ... and the repaired cache now round-trips.
    with path.open() as fh:
        assert json.load(fh)["tag"] == "fresh"


def test_corrupted_cache_platform_still_boots(tmp_path):
    path = profile_store.cache_path(SPEC, str(tmp_path))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text('{"truncated": ')
    platform = Platform(profile=False)
    profile = get_or_measure(platform, cache_dir=str(tmp_path))
    assert platform.engine.now > 0.0  # had to re-measure
    assert profile.gflops


@pytest.mark.parametrize(
    "content",
    [
        "[1, 2]",
        '{"node_name": "n", "tag": "stale"}',
        '{"fingerprint": "deadbeef", "tag": "stale"}',
        json.dumps({"fingerprint": profile_store.node_fingerprint(SPEC)}),
    ],
    ids=["not-an-object", "unstamped", "other-fingerprint", "undecodable"],
)
def test_unstamped_foreign_or_undecodable_file_is_recomputed(tmp_path, content):
    def tag(payload):
        return payload["tag"]

    path = profile_store.cache_path(SPEC, str(tmp_path))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    assert profile_store.cached(path, SPEC, lambda: _payload("fresh"), tag) == (
        "fresh", True
    )
    # The repaired file passes the same checks on the next read.
    assert profile_store.cached(path, SPEC, _never, tag) == ("fresh", False)


def test_profile_with_missing_fields_is_remeasured(tmp_path):
    _save(str(tmp_path), {"node_name": SPEC.name})
    platform = Platform(profile=True, profile_dir=str(tmp_path))
    assert platform.engine.now > 0.0  # re-measured, no KeyError
    assert platform.device_profile.gflops

"""Performance benchmarks of the library itself (real wall time).

Unlike the figure benches (which regenerate simulated results once), these
measure the *Python* cost of the hot paths — the numbers a user of this
library actually waits on: discrete-event throughput, mapper solve time,
a full scheduled epoch, and the vectorised NPB generator.

Each bench body exists once, in ``run_perf_baseline.BENCHES``: here
pytest-benchmark times it, and its simulation checksum must match the
committed ``BENCH_library_perf.json`` exactly-ish (relative 1e-9), the same
gate ``run_perf_baseline.py --check`` applies.  As there, one untimed
warm-up call first fills the bench's on-disk profile cache, so the timed
calls (and the checksum) never include cold device profiling.
"""

import json
import math
from pathlib import Path

import pytest

import run_perf_baseline

_BASELINE = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_library_perf.json").read_text()
)["benches"]


@pytest.mark.parametrize("name", list(run_perf_baseline.BENCHES))
def test_library_perf(benchmark, name):
    fn = run_perf_baseline.BENCHES[name]
    fn()
    checksum = benchmark(fn)
    assert math.isclose(checksum, _BASELINE[name]["checksum"], rel_tol=1e-9)

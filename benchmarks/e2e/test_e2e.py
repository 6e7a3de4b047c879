"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at ``--scale smoke`` (well under 30 s in total) and
checks what the benchmark promises: every metric of ``BENCHMARK.json`` is
printed with its unit, nothing fails, tracing changes no result and no
count, and the tracing wrappers are gone afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


def installed_wrappers():
    """``module.attr`` of every tracing wrapper still bound anywhere."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if getattr(value, "_e2e_traced", False):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in list(vars(value).items()):
                    if getattr(getattr(raw, "__func__", raw), "_e2e_traced", False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result_and_no_count(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, "smoke", str(tmp_path))
    plain = workload.run()
    assert plain.failed == 0
    calls = []
    for _ in range(2):
        t = tracer.Tracer()
        with t:
            traced = workload.run()
        assert installed_wrappers() == []
        assert traced.failed == 0
        assert traced.checksum == plain.checksum
        assert traced.outcomes == plain.outcomes
        metrics = t.metrics()
        calls.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
        assert 0.0 <= metrics["other.self_share"] < 1.0
    assert calls[0] == calls[1]
    assert any(calls[0].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_with_its_unit(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "replay-engine",
         "--scale", "smoke", "--trace", str(trace),
         "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
            for line in lines[:-1]
        ), m["name"]
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    if trace:
        assert (tmp_path / "replay-engine.spans.jsonl").exists()
        assert (tmp_path / "replay-engine.chrome.json").exists()
        assert (tmp_path / "replay-engine.layers.json").exists()


def test_run_length_is_not_settable():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "replay-engine",
         "--seconds", str(SPEC["run_seconds"] + 1)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


class RaisingWorkload:
    def run(self):
        raise RuntimeError("this pass fails")


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_pass_fails_the_run_and_still_reports(trace, tmp_path):
    workload = RaisingWorkload()
    if trace:
        result = worker.run_traced(workload, "raising", tmp_path)
    else:
        result = worker.run_untraced(workload)
    assert installed_wrappers() == []
    record = run.summarize("replay-engine", 1, trace, "smoke", [(0.3, 1.0)],
                           result, PINS)
    final = run.report(record, SPEC)
    assert not final["correct"]
    assert final["failed"] == final["attempted"] == 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in section]


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [10.0, 14.0] * 5
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "within bound"
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "regressed"

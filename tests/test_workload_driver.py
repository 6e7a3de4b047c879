"""The one workload driver: every evaluation app's run record, pinned.

Each NPB app runs at class S for two iterations at every queue count its
Table II rule allows, and FDM-Seismology runs in both layouts for three
steps, each in manual, auto and round-robin mode (57 runs).  The test
folds what each run reports — simulated seconds, per-iteration seconds,
final bindings, the mapping at every trigger and the run accounting —
into one digest, so a change to the driver, to an app's buffer, kernel
or enqueue order, or to anything they drive shows here.
"""

import dataclasses
import hashlib
import os

from repro.core.flags import SchedulerConfig
from repro.workloads.base import ProblemClass
from repro.workloads.npb import BENCHMARKS
from repro.workloads.npb.common import run_npb
from repro.workloads.seismology import run_seismology

MODES = ("manual", "auto", "round_robin")
DEVICES = ("cpu", "gpu0", "gpu1")

#: sha256 prefix of the folded records of all 57 runs.
DIGEST = "91cf8e3fc7ace5c4"


def _canonical(value):
    """Dicts as sorted item tuples, so only values (not insertion order)
    reach the digest."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def _record(run):
    return _canonical((
        run.name, run.problem_class, run.num_queues, run.mode, run.seconds,
        run.iteration_seconds, run.bindings, run.mappings,
        dataclasses.asdict(run.stats),
    ))


def _runs(profile_dir):
    config = SchedulerConfig(overlap=False, sanitize=False)
    for name in sorted(BENCHMARKS):
        cls = BENCHMARKS[name]
        for queues in cls.QUEUE_RULE.allowed:
            for mode in MODES:
                devices = (
                    [DEVICES[i % len(DEVICES)] for i in range(queues)]
                    if mode == "manual" else None
                )
                app = cls(ProblemClass.S, queues, iterations_override=2)
                yield run_npb(app, mode=mode, devices=devices, config=config,
                              profile_dir=profile_dir)
    for layout in ("column", "row"):
        for mode in MODES:
            devices = DEVICES[:2] if mode == "manual" else None
            yield run_seismology(layout, mode=mode, devices=devices, steps=3,
                                 config=config, profile_dir=profile_dir)


def test_every_driver_output_pinned(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("MULTICL_"):
            monkeypatch.delenv(name)
    records = [_record(run) for run in _runs(str(tmp_path))]
    assert len(records) == 57
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert digest == DIGEST

"""Outside-in tracing of the ``repro`` packages' public entry points.

The traced pass of the benchmark wraps the functions named in
:data:`ENTRIES` — one row per (layer, entry, dotted path, leaf) — and
restores the originals when the pass ends.  Nothing inside ``src/`` knows it
is being traced: the wrappers are installed from here, on class attributes
and on module attributes, including every module that imported a wrapped
function by name (``from repro.hardware.cost import kernel_time``).

Each wrapped call is a span ``(id, parent, layer, entry, start, end)`` kept
in memory.  A span's *self time* is its duration minus the time of the
wrapped calls it made.  Leaf entries are the hot per-command calls
(~1.4M ``kernel_time`` calls on one service replay); they only add to their
entry's call count and self time, because storing a span for each would
distort memory.  A call nested directly in a call of the same entry
(``dispatch`` -> ``on_sync``, ``launch_cost`` -> ``config_cost``) is part of
the outer span, so an entry's call count counts entries into the layer.

Three entries also read the object they were called on, before and after
the outermost call, so the traced run can report ratios of useful outcomes
to attempts without any counter inside the program (see :data:`COUNTERS`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["ENTRIES", "Tracer"]

#: (layer, entry, dotted path, leaf).  Several paths may share one entry.
ENTRIES: Tuple[Tuple[str, str, str, bool], ...] = (
    # OpenCL issue path
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_write_buffer", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_read_buffer", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_fill_buffer", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_copy_buffer", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_nd_range_kernel", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_marker", True),
    ("ocl", "enqueue", "repro.ocl.queue.CommandQueue.enqueue_barrier", True),
    ("ocl", "issue", "repro.ocl.queue.CommandQueue.issue", True),
    ("ocl", "issue_pool", "repro.ocl.context.Context.issue_pool", False),
    ("ocl", "launch_cost", "repro.ocl.kernel.Kernel.launch_cost", True),
    ("ocl", "launch_cost", "repro.ocl.kernel.Kernel.config_cost", True),
    ("ocl", "finish", "repro.ocl.queue.CommandQueue.finish", False),
    # hardware model
    ("hardware", "kernel_time", "repro.hardware.cost.kernel_time", True),
    ("hardware", "link_time", "repro.hardware.cost.transfer_time", True),
    ("hardware", "link_time", "repro.hardware.topology.SimNode.h2d_seconds", True),
    ("hardware", "link_time", "repro.hardware.topology.SimNode.d2h_seconds", True),
    ("hardware", "link_time", "repro.hardware.topology.SimNode.d2d_seconds", True),
    ("hardware", "submit", "repro.hardware.topology.SimDevice.submit_kernel", True),
    ("hardware", "submit", "repro.hardware.topology.SimDevice.submit_intradevice_copy", True),
    ("hardware", "submit", "repro.hardware.topology.SimNode.submit_h2d", True),
    ("hardware", "submit", "repro.hardware.topology.SimNode.submit_d2h", True),
    ("hardware", "submit", "repro.hardware.topology.SimNode.submit_d2d", True),
    # scheduler
    ("core", "dispatch", "repro.core.scheduler.MultiCLSchedulerBase.dispatch", False),
    ("core", "dispatch", "repro.core.scheduler.RoundRobinScheduler.on_sync", False),
    ("core", "dispatch", "repro.core.scheduler.AutoFitScheduler.on_sync", False),
    ("core", "dispatch", "repro.core.baselines.KernelGranularityScheduler.on_sync", False),
    ("core", "profile_epoch", "repro.core.kernel_profiler.KernelProfiler.profile_epoch", False),
    ("core", "map", "repro.core.device_mapper.optimal_mapping", False),
    ("core", "map", "repro.core.device_mapper.greedy_mapping", False),
    ("core", "repair", "repro.core.constraints.repair_mapping", False),
    ("core", "plan_split", "repro.core.split.plan_split", False),
    ("core", "device_profile", "repro.core.device_profiler.get_or_measure", False),
    # event engine
    ("sim", "run", "repro.sim.engine.SimEngine.run_until_idle", False),
    ("sim", "run", "repro.sim.engine.SimEngine.run_until_time", False),
    ("sim", "run", "repro.sim.engine.SimEngine.run_until", False),
    ("sim", "schedule_batch", "repro.sim.engine.SimEngine.schedule_batch", False),
    ("sim", "task", "repro.sim.engine.SimEngine.task", True),
    ("sim", "task", "repro.sim.engine.SimEngine.submit", True),
    # multi-tenant service
    ("service", "arbitrate", "repro.service.core.SchedulingService.trigger", False),
    ("service", "arbitrate", "repro.service.arbiter.FairShareArbiter.on_trigger", False),
    ("service", "arbitrate", "repro.service.arbiter.FairShareArbiter.arbitrate", False),
    ("service", "estimate", "repro.service.arbiter.FairShareArbiter.estimate_pool_seconds", False),
    # predictor
    ("predict", "infer", "repro.predict.Predictor.predict_seconds", False),
    ("predict", "infer", "repro.predict.Predictor.confidence", False),
    ("predict", "observe", "repro.predict.Predictor.observe", False),
    ("predict", "fit", "repro.predict.store.load_or_fit", False),
    ("predict", "fit", "repro.predict.model.PredictorModel.fit", False),
    # replay drivers (arrival generation lands in their self time)
    ("replay", "run", "repro.replay.runner.run_tenant", False),
    ("replay", "run", "repro.replay.runner.run_service_replay", False),
    # application drivers
    ("workloads", "run", "repro.workloads.npb.common.run_npb", False),
    ("workloads", "run", "repro.workloads.seismology.app.run_seismology", False),
    # experiment harness
    ("bench", "unit", "repro.bench.figures.run_experiment_unit", False),
)

#: Layers in report order; time outside every span is ``other``.
LAYERS = ("ocl", "hardware", "core", "sim", "service", "predict", "replay",
          "workloads", "bench")


def _scheduler_counters(scheduler) -> Tuple[int, ...]:
    return (scheduler.mapper_solves, scheduler.mapper_repairs,
            scheduler.mapper_reuses)


def _profiler_counters(profiler) -> Tuple[int, ...]:
    stats = profiler.stats
    predictor = profiler.predictor
    return (
        stats.epoch_cache_hits,
        stats.kernel_cache_hits,
        stats.profiling_runs,
        predictor.stats.predictions if predictor is not None else 0,
        predictor.stats.declines if predictor is not None else 0,
    )


def _arbiter_counters(obj) -> Tuple[int, ...]:
    arbiter = getattr(obj, "arbiter", obj)
    tenants = len(arbiter.service.active_sessions())
    return (arbiter.rounds, len(arbiter.dispatch_log), arbiter.rounds * tenants)


#: entry -> (counter names, reader of the called object).  The tracer adds
#: each counter's change across every outermost call of the entry.
COUNTERS: Dict[str, Tuple[Tuple[str, ...], Callable[[Any], Tuple[int, ...]]]] = {
    "core.dispatch": (("mapper_solves", "mapper_repairs", "mapper_reuses"),
                      _scheduler_counters),
    "core.profile_epoch": (("epoch_cache_hits", "kernel_cache_hits",
                            "profiling_runs", "predictions", "predict_declines"),
                           _profiler_counters),
    # session_rounds: tenant-rounds offered, the base of dispatch_ratio
    "service.arbitrate": (("rounds", "dispatches", "session_rounds"),
                          _arbiter_counters),
}


def _pending_commands(obj) -> int:
    """Deferred commands across the service's tenants (backlog gauge)."""
    arbiter = getattr(obj, "arbiter", obj)
    return sum(
        len(q.pending)
        for s in arbiter.service.active_sessions()
        if s.context is not None
        for q in s.context.pending_queues()
    )


def _resolve(path: str) -> Tuple[Any, str]:
    """``a.b.C.meth`` -> (class or module owning ``meth``, ``"meth"``)."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {path!r}")


class Tracer:
    """Install the :data:`ENTRIES` wrappers for one pass (a context manager)."""

    def __init__(self) -> None:
        #: "layer.entry" -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {
            f"{layer}.{entry}": [0, 0.0] for layer, entry, _, _ in ENTRIES
        }
        self.counters: Dict[str, int] = {
            name: 0 for names, _ in COUNTERS.values() for name in names
        }
        self.backlog_peak = 0
        #: (id, parent id, layer, entry, start, end) of every non-leaf call
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.start = 0.0
        self.end = 0.0
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, entry: str, fn: Callable, leaf: bool) -> Callable:
        key = f"{layer}.{entry}"
        stat = self.stats[key]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        counted = COUNTERS.get(key)
        counters = self.counters
        gauge = key == "service.arbitrate"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            if counted is not None:
                before = counted[1](args[0])
            if gauge:
                tracer.backlog_peak = max(tracer.backlog_peak,
                                          _pending_commands(args[0]))
            parent = stack[-1][2] if stack else 0
            # A leaf stores no span, so its (rare) wrapped callees link to
            # the leaf's parent.
            span_id = parent if leaf else next(ids)
            frame = [key, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not leaf:
                    spans.append((span_id, parent, layer, entry, start, end))
                if counted is not None:
                    after = counted[1](args[0])
                    for name, b, a in zip(counted[0], before, after):
                        counters[name] += a - b

        traced._e2e_traced = True  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        by_id: Dict[int, Tuple[Any, Callable]] = {}
        for layer, entry, path, leaf in ENTRIES:
            owner, attr = _resolve(path)
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(layer, entry, raw.__func__, leaf))
                else:
                    new = self._wrap(layer, entry, raw, leaf)
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
            else:
                by_id[id(raw)] = (raw, self._wrap(layer, entry, raw, leaf))
        # Module-level functions: rebind the name in every module holding
        # it, so by-name imports call the wrapper too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, value))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.uninstall()

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-entry counts and self-time shares of the traced wall time."""
        wall = self.end - self.start
        out: Dict[str, float] = {}
        by_layer = {layer: 0.0 for layer in LAYERS}
        for key, (calls, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_share"] = self_s / wall
            by_layer[key.split(".")[0]] += self_s
        for layer, self_s in by_layer.items():
            out[f"{layer}.self_share"] = self_s / wall
        out["other.self_share"] = 1.0 - sum(by_layer.values()) / wall
        c = self.counters
        out["core.mapper_reuse_ratio"] = _ratio(
            c["mapper_reuses"],
            c["mapper_solves"] + c["mapper_repairs"] + c["mapper_reuses"],
        )
        hits = c["epoch_cache_hits"] + c["kernel_cache_hits"]
        out["core.profile_hit_ratio"] = _ratio(hits, hits + c["profiling_runs"])
        out["predict.accept_ratio"] = _ratio(
            c["predictions"], c["predictions"] + c["predict_declines"]
        )
        out["service.rounds"] = c["rounds"]
        out["service.dispatches"] = c["dispatches"]
        out["service.dispatch_ratio"] = _ratio(c["dispatches"], c["session_rounds"])
        out["service.backlog_peak"] = self.backlog_peak
        return out

    def write(self, out_dir: Path, stem: str) -> None:
        """``<stem>.spans.jsonl`` and ``<stem>.chrome.json`` under ``out_dir``.

        Times are seconds (spans) or microseconds (Chrome trace) from the
        start of the traced pass.
        """
        t0 = self.start
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for sid, parent, layer, entry, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "entry": entry, "start": start - t0, "end": end - t0,
                }) + "\n")
        events = [
            {
                "name": f"{layer}.{entry}", "cat": layer, "ph": "X",
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1, "args": {"id": sid, "parent": parent},
            }
            for sid, parent, layer, entry, start, end in self.spans
        ]
        with open(out_dir / f"{stem}.chrome.json", "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

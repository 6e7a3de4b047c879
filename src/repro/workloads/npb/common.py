"""Shared NPB machinery and the one workload driver.

Each benchmark subclasses :class:`NPBApplication` (BT and SP through
:class:`ADIApplication`) and provides: its (annotated) OpenCL-C program
source, buffer/kernel setup, and a per-iteration enqueue method.
:func:`run_npb` drives it — and FDM-Seismology, through the same
:class:`~repro.workloads.base.Application` surface — in one of three
modes:

* ``manual`` — stock OpenCL: queues created ``SCHED_OFF`` and bound to an
  explicit device list (the paper's baselines: CPU-only, GPU-only, the
  round-robin variants of Fig. 4, and the single-device runs of Fig. 3);
* ``auto`` — the MultiCL path: the *same* driver with the benchmark's
  Table II scheduler options applied — the "about four source lines" the
  paper modifies: context property, queue properties, explicit-region
  start/stop via ``clSetCommandQueueSchedProperty``, and (BT, FT)
  ``clSetKernelWorkGroupInfo`` calls;
* ``round_robin`` — the ROUND_ROBIN global policy baseline.

Iterative benchmarks run their warm-up iterations inside the explicit
scheduling region and are then frozen on the chosen devices, exactly as
described for the SNU-NPB evaluation (Section VI.B.1).
"""

from __future__ import annotations

import dataclasses
import math
from abc import abstractmethod
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.flags import SchedulerConfig
from repro.core.runtime import MultiCL
from repro.hardware.specs import NodeSpec
from repro.ocl.context import Context
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.queue import CommandQueue
from repro.workloads.base import (
    Application,
    ProblemClass,
    QueueRule,
    WorkloadError,
    WorkloadRun,
    square_rule,
)

__all__ = [
    "ADIApplication",
    "NPBApplication",
    "run_npb",
    "kernel_source",
    "BENCHMARKS",
    "get_benchmark",
    "register_benchmark",
]


def kernel_source(
    name: str,
    args: str,
    annotations: Dict[str, object],
    body: str = "/* modelled kernel body */",
) -> str:
    """Render one annotated toy OpenCL-C kernel."""
    annot = " ".join(f"{k}={v}" for k, v in annotations.items())
    return (
        f"// @multicl {annot}\n"
        f"__kernel void {name}({args}) {{\n"
        f"  {body}\n"
        f"}}\n"
    )


class NPBApplication(Application):
    """Base class for the six SNU-NPB-MD drivers."""

    #: Queue-count restriction (paper Table II).
    QUEUE_RULE: QueueRule
    #: Problem classes the benchmark supports (paper Table II).
    VALID_CLASSES: Tuple[ProblemClass, ...] = ()

    def __init__(
        self,
        problem_class: ProblemClass,
        num_queues: int,
        functional: bool = False,
        iterations_override: Optional[int] = None,
    ) -> None:
        problem_class = ProblemClass(problem_class)
        if problem_class not in self.VALID_CLASSES:
            raise WorkloadError(
                f"{self.NAME} supports classes "
                f"{[c.value for c in self.VALID_CLASSES]}, not {problem_class.value}"
            )
        self.QUEUE_RULE.validate(num_queues)
        super().__init__(functional)
        self.problem_class = problem_class
        self.num_queues = num_queues
        self._iterations_override = iterations_override

    @property
    @abstractmethod
    def default_iterations(self) -> int:
        """NPB iteration count for the current problem class."""

    @property
    def iterations(self) -> int:
        if self._iterations_override is not None:
            return max(1, self._iterations_override)
        return self.default_iterations

    @property
    def label(self) -> str:
        return self.problem_class.value


#: Annotation of the ``*_add`` update closing each ADI iteration.
_ADI_ADD = {
    "flops_per_item": 5,
    "bytes_per_item": 80,
    "divergence": 0.0,
    "irregularity": 0.1,
    "cpu_eff": 1.0,
    "gpu_eff": 0.5,
    "writes": "0",
}


class ADIApplication(NPBApplication):
    """BT and SP: ADI sweeps over one 3-D grid in a √Q×√Q column split.

    Per queue and iteration: the pointwise kernels, the x/y/z line solves
    and the ``*_add`` update, then a face exchange between the column
    blocks staged through the host.  Subclasses give the tables below.
    """

    QUEUE_RULE = square_rule((1, 4))
    #: (grid n, iterations) per class — NPB 3.3.
    CLASS_PARAMS: Dict[ProblemClass, Tuple[int, int]] = {}
    #: Kernel and buffer name prefix.
    PREFIX = "?"
    #: (kernel suffix, flops, bytes, annotations, what) of each pointwise
    #: kernel, in launch order.
    POINTWISE: Tuple[Tuple[str, int, int, Dict[str, object], str], ...] = ()
    #: (flops, bytes, annotations, what) of the x/y/z solves.
    SOLVE: Tuple[int, int, Dict[str, object], str]
    #: Doubles per grid point in the ``lhs`` buffer.
    LHS_WIDTH = 0

    @property
    def grid_n(self) -> int:
        return self.CLASS_PARAMS[self.problem_class][0]

    @property
    def default_iterations(self) -> int:
        return self.CLASS_PARAMS[self.problem_class][1]

    @property
    def points_per_queue(self) -> int:
        return self.grid_n ** 3 // self.num_queues

    @property
    def solves(self) -> List[str]:
        return [f"{self.PREFIX}_{axis}_solve" for axis in "xyz"]

    def generate_source(self) -> str:
        args = "__global double* u, __global double* rhs, int n"
        src = ""
        for suffix, flops, nbytes, ann, what in self.POINTWISE:
            src += kernel_source(
                f"{self.PREFIX}_{suffix}", args,
                {"flops_per_item": flops, "bytes_per_item": nbytes,
                 "writes": "1", **ann},
                body=f"/* {what} (modelled) */",
            )
        flops, nbytes, ann, what = self.SOLVE
        for axis, name in zip("xyz", self.solves):
            src += kernel_source(
                name,
                "__global double* u, __global double* rhs, __global double* lhs, int n",
                {"flops_per_item": flops, "bytes_per_item": nbytes,
                 "writes": "1,2", **ann},
                body=f"/* {what} along {axis} (modelled) */",
            )
        return src + kernel_source(
            f"{self.PREFIX}_add", args, _ADI_ADD, body="/* u += rhs (modelled) */"
        )

    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        self._adopt(context, queues)
        pts = self.points_per_queue
        names = [f"{self.PREFIX}_{p[0]}" for p in self.POINTWISE]
        names += self.solves + [f"{self.PREFIX}_add"]
        for qi, q in enumerate(self.queues):
            bufs = {
                key: context.create_buffer(
                    pts * width * 8, name=f"{self.PREFIX}-{key}-{qi}"
                )
                for key, width in (("u", 5), ("rhs", 5), ("lhs", self.LHS_WIDTH))
            }
            q.enqueue_write_buffer(bufs["u"])
            u, rhs = bufs["u"], bufs["rhs"]
            kernels = {
                name: self._kernel(name, u, rhs, bufs["lhs"], pts)
                if name in self.solves else self._kernel(name, u, rhs, pts)
                for name in names
            }
            self._per_queue.append({"bufs": bufs, "kernels": kernels})
        self.finish_all()

    def enqueue_iteration(self, it: int) -> None:
        # The sweeps are launched over all points (wavefront-style); their
        # serial-line inefficiency is captured by the cost annotations,
        # not by starving the launch of work items.
        pts = self.points_per_queue
        for q, state in zip(self.queues, self._per_queue):
            for kernel in state["kernels"].values():
                q.enqueue_nd_range_kernel(kernel, (pts,), (64,))
        # Face exchange between the √Q×√Q column blocks.
        n = self.grid_n
        self._exchange("u", n * n // math.isqrt(self.num_queues) * 5 * 8)


# ---------------------------------------------------------------------------
# Benchmark registry
# ---------------------------------------------------------------------------
BENCHMARKS: Dict[str, type] = {}


def register_benchmark(cls: type) -> type:
    BENCHMARKS[cls.NAME] = cls
    return cls


def get_benchmark(name: str) -> type:
    try:
        return BENCHMARKS[name.upper()]
    except KeyError:
        raise WorkloadError(f"unknown benchmark {name!r}; have {sorted(BENCHMARKS)}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_npb(
    app: Application,
    mode: str = "auto",
    devices: Optional[Sequence[str]] = None,
    node_spec: Optional[NodeSpec] = None,
    config: Optional[SchedulerConfig] = None,
    profile_dir: Optional[str] = None,
    auto_flags: Optional[SchedFlag] = None,
) -> WorkloadRun:
    """Run ``app`` on a fresh simulated platform; see module docstring.

    ``auto_flags`` overrides the queue scheduling flags used in auto mode
    (default: ``SCHED_AUTO_DYNAMIC | app.TABLE2_FLAGS``) — used by the
    static-vs-dynamic ablation.
    """
    if mode not in ("manual", "auto", "round_robin"):
        raise WorkloadError(f"unknown mode {mode!r}")
    policy = {
        "manual": None,
        "auto": ContextScheduler.AUTO_FIT,
        "round_robin": ContextScheduler.ROUND_ROBIN,
    }[mode]
    mcl = MultiCL(
        node_spec=node_spec, policy=policy, config=config, profile_dir=profile_dir
    )
    ndev = len(mcl.device_names)

    queues: List[CommandQueue] = []
    if mode == "manual":
        if devices is None:
            raise WorkloadError("manual mode requires a device list")
        if len(devices) != app.num_queues:
            raise WorkloadError(
                f"need {app.num_queues} devices, got {len(devices)}"
            )
        for i in range(app.num_queues):
            queues.append(
                mcl.queue(device=devices[i], flags=SchedFlag.SCHED_OFF, name=f"q{i}")
            )
        queue_flags = SchedFlag.SCHED_OFF
    else:
        queue_flags = (
            auto_flags
            if auto_flags is not None
            else SchedFlag.SCHED_AUTO_DYNAMIC | app.TABLE2_FLAGS
        )
        for i in range(app.num_queues):
            # SnuCL-style creation: an initial device is still named.
            initial = mcl.device_names[i % ndev]
            queues.append(mcl.queue(device=initial, flags=queue_flags, name=f"q{i}"))

    app.setup(mcl.context, queues)
    if app.USES_WORKGROUP_INFO and mode != "manual":
        app.apply_workgroup_info()

    explicit_region = bool(queue_flags & SchedFlag.SCHED_EXPLICIT_REGION)
    iter_times: List[float] = []
    t0 = mcl.now

    def run_iteration(it: int) -> None:
        t_it = mcl.now
        app.enqueue_iteration(it)
        app.finish_all()
        iter_times.append(mcl.now - t_it)

    if mode != "manual" and explicit_region:
        # The ~4-line change: bracket the warm-up with the proposed
        # clSetCommandQueueSchedProperty calls.
        for q in queues:
            q.set_sched_property(SchedFlag.SCHED_AUTO_DYNAMIC)
        for it in range(min(app.warmup_iterations, app.iterations)):
            run_iteration(it)
        for q in queues:
            q.set_sched_property(SchedFlag.SCHED_OFF)
        start = min(app.warmup_iterations, app.iterations)
    else:
        start = 0
    for it in range(start, app.iterations):
        run_iteration(it)

    app.finalize()
    app.finish_all()
    t1 = mcl.now

    profiler_stats: Dict[str, Any] = {}
    scheduler = mcl.context.scheduler
    profiler = getattr(scheduler, "profiler", None)
    if profiler is not None:
        profiler_stats = dataclasses.asdict(profiler.stats)

    return WorkloadRun(
        name=app.NAME,
        problem_class=app.label,
        num_queues=app.num_queues,
        mode=mode,
        seconds=t1 - t0,
        stats=mcl.stats_between(t0, t1),
        bindings={q.name: q.device for q in queues},
        mappings=mcl.scheduler_mappings(),
        iteration_seconds=iter_times,
        checks=dict(app.checks),
        profiler_stats=profiler_stats,
    )

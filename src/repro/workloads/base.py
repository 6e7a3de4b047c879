"""Shared workload abstractions.

Problem classes follow NPB naming (S, W, A, B, C, D).  Queue-count rules
encode the per-benchmark restrictions of the paper's Table II ("Square:
1,4", "Power of 2: 1,2,4", "Any: 1,2,4").  :class:`Application` is what
the one driver, :func:`repro.workloads.npb.common.run_npb`, runs — every
NPB benchmark and FDM-Seismology — plus the per-queue steps the apps
share.  :class:`WorkloadRun` is the result record the driver returns:
simulated timings, run accounting, scheduler decisions and (in
functional mode) numerical checks.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.core.runtime import RunStats
from repro.ocl.enums import SchedFlag

if TYPE_CHECKING:
    from repro.ocl.context import Context
    from repro.ocl.kernel import Kernel
    from repro.ocl.queue import CommandQueue

__all__ = [
    "Application",
    "ProblemClass",
    "QueueRule",
    "any_queue_rule",
    "power_of_two_rule",
    "square_rule",
    "WorkloadRun",
    "WorkloadError",
]


class WorkloadError(ValueError):
    """Invalid workload configuration (class, queue count...)."""


class ProblemClass(str, enum.Enum):
    """NPB problem classes, smallest to largest."""

    S = "S"
    W = "W"
    A = "A"
    B = "B"
    C = "C"
    D = "D"

    @property
    def rank(self) -> int:
        return list(ProblemClass).index(self)

    def __lt__(self, other: "ProblemClass") -> bool:  # type: ignore[override]
        return self.rank < other.rank


@dataclass(frozen=True)
class QueueRule:
    """Allowed command-queue counts for a benchmark."""

    description: str
    allowed: Sequence[int]

    def validate(self, num_queues: int) -> None:
        if num_queues not in self.allowed:
            raise WorkloadError(
                f"queue count {num_queues} not allowed "
                f"({self.description}: {list(self.allowed)})"
            )


def any_queue_rule(counts: Sequence[int] = (1, 2, 4)) -> QueueRule:
    return QueueRule("Any", tuple(counts))


def power_of_two_rule(counts: Sequence[int] = (1, 2, 4)) -> QueueRule:
    for c in counts:
        if c & (c - 1):
            raise WorkloadError(f"{c} is not a power of two")
    return QueueRule("Power of 2", tuple(counts))


def square_rule(counts: Sequence[int] = (1, 4)) -> QueueRule:
    for c in counts:
        if int(math.isqrt(c)) ** 2 != c:
            raise WorkloadError(f"{c} is not a square")
    return QueueRule("Square", tuple(counts))


class Application(ABC):
    """One evaluation app as the driver runs it.

    The driver reads ``NAME``, ``label`` (the problem class or layout it
    reports), ``num_queues``, ``iterations``, the Table II flags auto mode
    adds (``TABLE2_FLAGS``, on top of ``SCHED_AUTO_DYNAMIC``) and whether
    auto mode calls clSetKernelWorkGroupInfo.  Each queue's state is one
    ``_per_queue`` entry holding at least its ``bufs`` and ``kernels``.
    """

    NAME: str = "?"
    TABLE2_FLAGS: SchedFlag = SchedFlag.SCHED_EXPLICIT_REGION
    #: Whether the driver calls clSetKernelWorkGroupInfo (BT and FT).
    USES_WORKGROUP_INFO: bool = False
    #: Iterations profiled inside the explicit scheduling region.
    warmup_iterations: int = 1
    num_queues: int
    iterations: int
    label: str

    def __init__(self, functional: bool) -> None:
        self.functional = functional
        # Populated by setup():
        self.context: Optional[Context] = None
        self.queues: List[CommandQueue] = []
        self._per_queue: List[Dict[str, Any]] = []
        self.checks: Dict[str, Any] = {}

    @abstractmethod
    def generate_source(self) -> str:
        """The app's annotated OpenCL-C program source."""

    @abstractmethod
    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        """Create buffers/kernels and enqueue initial data writes.

        Called before any scheduling region starts, so initial writes land
        on the queues' creation-time devices (the SnuCL behaviour)."""

    @abstractmethod
    def enqueue_iteration(self, it: int) -> None:
        """Enqueue one time step / outer iteration on all queues."""

    def finalize(self) -> None:
        """Read back results; populate ``self.checks`` in functional mode."""

    def apply_workgroup_info(self) -> None:
        """BT/FT hook: set per-device launch configurations."""

    def finish_all(self) -> None:
        for q in self.queues:
            q.finish()

    # ------------------------------------------------------------------
    # Per-queue steps shared by the apps
    # ------------------------------------------------------------------
    def _adopt(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        """Take the context and queues and build the app's program."""
        self.context = context
        self.queues = list(queues)
        self.program = context.create_program(self.generate_source()).build()
        self._per_queue = []

    def _kernel(self, name: str, *args: Any) -> Kernel:
        """Kernel ``name`` with ``args`` bound in argument order."""
        kernel = self.program.create_kernel(name)
        for i, arg in enumerate(args):
            kernel.set_arg(i, arg)
        return kernel

    def _exchange(self, key: str, nbytes: int, back: Optional[int] = None) -> None:
        """Exchange between queues staged through host memory: each queue
        reads ``nbytes`` of its buffer ``key`` out, then writes ``back``
        bytes (default ``nbytes``) in.  One queue exchanges nothing."""
        if self.num_queues == 1:
            return
        for q, state in zip(self.queues, self._per_queue):
            q.enqueue_read_buffer(state["bufs"][key], nbytes=nbytes)
            q.enqueue_write_buffer(
                state["bufs"][key], nbytes=nbytes if back is None else back
            )

    def _device_shapes(self, names: Sequence[str], items: int) -> None:
        """clSetKernelWorkGroupInfo for kernels ``names`` on every queue:
        the same NDRange, small work groups matching CPU cores and large
        ones filling GPU SMs."""
        assert self.context is not None
        devices = self.context.platform.node.device_list()
        for state in self._per_queue:
            for name in names:
                for dev in devices:
                    local = 16 if dev.spec.kind.value == "cpu" else 256
                    state["kernels"][name].set_work_group_info(
                        dev.name, (items,), (min(local, items),)
                    )


@dataclass
class WorkloadRun:
    """Result of one driver run on the simulated runtime."""

    #: benchmark name, e.g. "FT"
    name: str
    #: problem class label
    problem_class: str
    #: number of command queues
    num_queues: int
    #: "manual" (explicit device list), "auto" (MultiCL), or "round_robin"
    mode: str
    #: total simulated seconds of the measured region
    seconds: float
    #: accounting record for the measured region
    stats: RunStats
    #: final device binding per queue name
    bindings: Dict[str, str] = field(default_factory=dict)
    #: mapping decisions at each scheduler trigger
    mappings: List[Dict[str, str]] = field(default_factory=list)
    #: simulated seconds per iteration (iterative workloads)
    iteration_seconds: List[float] = field(default_factory=list)
    #: outcome of functional verification, if it ran
    checks: Dict[str, Any] = field(default_factory=dict)
    #: kernel-profiler counters at the end of the run (auto modes):
    #: measurements, cache hits, predictions, declines...
    profiler_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def devices_used(self) -> List[str]:
        return sorted(set(self.bindings.values()))

    def overhead_vs(self, ideal_seconds: float) -> float:
        """The paper's overhead metric:
        ``(T_scheduler_map − T_ideal_map) / T_ideal_map``."""
        if ideal_seconds <= 0:
            raise WorkloadError("ideal time must be positive")
        return (self.seconds - ideal_seconds) / ideal_seconds

"""Related-work baseline: SOCL-style kernel-granularity scheduling.

Paper Section III.B contrasts MultiCL with SOCL: "[SOCL] applies the
performance modeling at kernel granularity, and this option is not
flexible.  In contrast, we perform workload profiling at synchronization
epoch granularity.  Our approach enables a more coarse-grained and
flexible scheduling that allows making device choices for kernel groups
rather than individual kernels.  Also, our approach reduces the profile
lookup time for aggregate kernel invocations, decreasing runtime
overhead."

To make that comparison *runnable*, this module implements the contrasted
design as a third registered policy, ``"kernel-granularity"``: every
kernel command is scheduled the moment it is enqueued, to the device that
minimises the device's already-assigned backlog plus the kernel's
:func:`~repro.core.scheduler.cost_row` cell: profiled kernel time plus
data-movement estimate, ``inf`` where its buffers do not fit.
Consequences the paper predicts, which the ``baselines`` experiment
measures:

* per-kernel mapping decisions (one host-side lookup/decision per launch
  instead of one per epoch);
* no group decisions: a queue whose kernels individually prefer different
  devices ping-pongs, paying cross-device migrations an epoch-level
  scheduler would have avoided;
* queue–device binding effectively changes continuously, so the explicit
  region / epoch batching controls have nothing to batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, TYPE_CHECKING

from repro.core.device_mapper import MapperError
from repro.core.scheduler import MAPPING_HOST_SECONDS, MultiCLSchedulerBase, cost_row
from repro.ocl.scheduling import register_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.queue import Command, CommandQueue

__all__ = ["KernelGranularityScheduler", "KERNEL_GRANULARITY_POLICY"]

#: Token to pass as the CL_CONTEXT_SCHEDULER property value.
KERNEL_GRANULARITY_POLICY = "kernel-granularity"


class KernelGranularityScheduler(MultiCLSchedulerBase):
    """Schedule every kernel individually at enqueue time (SOCL-style)."""

    def __init__(self, context) -> None:
        super().__init__(context)
        #: running estimate of work assigned per device (list scheduling)
        self._load: Dict[str, float] = {d: 0.0 for d in context.device_names}
        #: per-kernel host decisions made (for the overhead comparison)
        self.decisions = 0

    # Every kernel is a trigger of its own.
    triggers_per_kernel = True

    def on_sync(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        # Each kernel is placed just before it issues; non-kernel commands
        # ride along on the current binding.
        self._issue(sorted(pool, key=lambda q: q.id), {}, self._place_kernel)

    def _place_kernel(self, q: "CommandQueue", cmd: "Command") -> None:
        if not cmd.is_kernel:
            return
        seconds = self.profiler.profile_epoch(q, [cmd])
        # Per-kernel host decision cost (a profile lookup + argmin).  Charged
        # before ranking, so a device that fails while the profile or this
        # interval advances virtual time is never chosen.
        self.context.platform.engine.elapse(
            MAPPING_HOST_SECONDS, category="schedule",
            name="per-kernel-map",
        )
        devices = self._active_devices()
        row = cost_row(self.context, [cmd], seconds, devices)
        best = min(devices, key=lambda d: self._load[d] + row[d])
        if row[best] == float("inf"):
            raise MapperError(f"queue {q.name!r} infeasible on every device")
        self._load[best] += seconds[best]
        self.decisions += 1
        q.rebind(best)


register_scheduler(KERNEL_GRANULARITY_POLICY, KernelGranularityScheduler)

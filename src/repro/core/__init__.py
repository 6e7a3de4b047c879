"""MultiCL — the paper's contribution.

An automatic command-queue scheduler for task-parallel OpenCL workloads,
implemented as a plug-in to the :mod:`repro.ocl` runtime layer (the way the
paper's MultiCL extends SnuCL).  Three modules, per Section V:

* :mod:`repro.core.device_profiler` — static device profiling at platform
  discovery: bandwidth and instruction-throughput microbenchmarks, cached
  on disk, interpolated for unknown sizes;
* :mod:`repro.core.kernel_profiler` — dynamic kernel profiling at
  synchronization epochs, with the three overhead-reduction strategies:
  kernel/epoch profile caching (Section V.C.1), minikernel profiling
  (Section V.C.2, :mod:`repro.core.minikernel`), and data caching
  (Section V.C.3, :mod:`repro.core.data_cache`);
* :mod:`repro.core.device_mapper` — exact queue→device mapping minimising
  the concurrent completion time of the ready-queue pool.

Importing this package registers the two global scheduling policies —
``ROUND_ROBIN`` and ``AUTO_FIT`` — with the OpenCL layer's scheduler
registry, so a context created with the ``CL_CONTEXT_SCHEDULER`` property
picks them up automatically.
"""

from repro.core.device_mapper import (
    MappingResult,
    brute_force_mapping,
    optimal_mapping,
)
from repro.core.device_profiler import DeviceProfile, get_or_measure, measure
from repro.core.kernel_profiler import KernelProfiler
from repro.core.minikernel import make_minikernel_source, MINIKERNEL_GUARD
from repro.core.runtime import MultiCL, RunStats

# Side effect: register ROUND_ROBIN and AUTO_FIT with the OpenCL layer,
# plus the SOCL-style kernel-granularity baseline.
from repro.core import scheduler as _scheduler  # noqa: F401
from repro.core import baselines as _baselines  # noqa: F401
from repro.core.baselines import KERNEL_GRANULARITY_POLICY, KernelGranularityScheduler
from repro.core.scheduler import AutoFitScheduler, RoundRobinScheduler

__all__ = [
    "MappingResult",
    "brute_force_mapping",
    "optimal_mapping",
    "DeviceProfile",
    "get_or_measure",
    "measure",
    "KernelProfiler",
    "make_minikernel_source",
    "MINIKERNEL_GUARD",
    "MultiCL",
    "RunStats",
    "AutoFitScheduler",
    "RoundRobinScheduler",
    "KernelGranularityScheduler",
    "KERNEL_GRANULARITY_POLICY",
]

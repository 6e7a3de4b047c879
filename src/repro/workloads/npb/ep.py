"""EP — Embarrassingly Parallel (random-number generation).

The paper's characterisation (Section VI.B.1): "the EP benchmark (random
number generator) is known to be very compute intensive and not iterative";
it is the one SNU-NPB benchmark that runs *faster on the GPU*, and "the CPU
(nonideal device) can be up to 20× slower than the GPU (ideal device) for
certain problem sizes" — which is what makes full-kernel profiling cost
~20× (Fig. 8) and minikernel profiling essential.

Table II: any queue count (1, 2, 4); classes S–D; scheduler options
``SCHED_KERNEL_EPOCH`` + ``SCHED_COMPUTE_BOUND``.

Modelling notes.  Each queue generates ``2^m / Q`` gaussian pairs with the
NPB 48-bit LCG; one work item handles a batch of pairs.  The CPU-side
efficiency degrades with problem class (annotation ``cpu_eff``): the
per-thread tally tables and RNG state fall out of cache as the batch count
grows, while the GPU hides the latency — calibrated so the CPU/GPU ratio
spans ≈2.5× (class S) to ≈20× (class D), matching Fig. 3 and Fig. 8.

Functional mode runs the *real* LCG/tally pipeline
(:func:`repro.workloads.npb.numerics.ep_tally`) at a reduced pair count per
queue, with jump-ahead seeding so queues draw disjoint streams.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.ocl.context import Context
from repro.ocl.enums import SchedFlag
from repro.ocl.queue import CommandQueue
from repro.workloads.base import ProblemClass, any_queue_rule
from repro.workloads.npb import numerics
from repro.workloads.npb.common import NPBApplication, kernel_source, register_benchmark

__all__ = ["EP"]

#: log2 of the gaussian-pair count per class (NPB 3.3).
_CLASS_M = {
    ProblemClass.S: 24,
    ProblemClass.W: 25,
    ProblemClass.A: 28,
    ProblemClass.B: 30,
    ProblemClass.C: 32,
    ProblemClass.D: 36,
}

#: CPU efficiency per class (see module docstring; calibrated to Fig. 3/8).
_CPU_EFF = {
    ProblemClass.S: 0.90,
    ProblemClass.W: 0.80,
    ProblemClass.A: 0.55,
    ProblemClass.B: 0.40,
    ProblemClass.C: 0.25,
    ProblemClass.D: 0.13,
}

_GPU_EFF = 0.50
#: FLOPs to generate + tally one gaussian pair (RNG, log, sqrt, compare).
_FLOPS_PER_PAIR = 90.0
#: Pairs handled by one work item (SNU-NPB batches work per item).
_PAIRS_PER_ITEM = 256
#: Pair count per queue in functional mode (the vectorised LCG makes
#: a real 64k-pair tally cheap).
_FUNCTIONAL_PAIRS = 1 << 16


@register_benchmark
class EP(NPBApplication):
    NAME = "EP"
    QUEUE_RULE = any_queue_rule((1, 2, 4))
    VALID_CLASSES = (
        ProblemClass.S,
        ProblemClass.W,
        ProblemClass.A,
        ProblemClass.B,
        ProblemClass.C,
        ProblemClass.D,
    )
    TABLE2_FLAGS = SchedFlag.SCHED_KERNEL_EPOCH | SchedFlag.SCHED_COMPUTE_BOUND

    @property
    def pairs_total(self) -> int:
        return 1 << _CLASS_M[self.problem_class]

    @property
    def pairs_per_queue(self) -> int:
        return self.pairs_total // self.num_queues

    @property
    def default_iterations(self) -> int:
        return 1  # EP is not iterative

    def generate_source(self) -> str:
        pc = self.problem_class
        items = max(1, self.pairs_per_queue // _PAIRS_PER_ITEM)
        flops = _FLOPS_PER_PAIR * self.pairs_per_queue / items
        src = kernel_source(
            "ep",
            "__global double* qq, __global double* sxy, int nk",
            {
                "flops_per_item": round(flops, 3),
                "bytes_per_item": 24,
                "divergence": 0.25,
                "irregularity": 0.05,
                "cpu_eff": _CPU_EFF[pc],
                "gpu_eff": _GPU_EFF,
                "writes": "0,1",
            },
            body="/* batch LCG + gaussian tally (modelled) */",
        )
        src += kernel_source(
            "ep_reduce",
            "__global double* qq, __global double* out, int ngroups",
            {
                "flops_per_item": 32,
                "bytes_per_item": 96,
                "divergence": 0.0,
                "irregularity": 0.1,
                "cpu_eff": 1.0,
                "gpu_eff": 0.6,
                "writes": "1",
            },
            body="/* per-workgroup tally reduction (modelled) */",
        )
        return src

    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        self._adopt(context, queues)
        for qi in range(len(self.queues)):
            items = max(1, self.pairs_per_queue // _PAIRS_PER_ITEM)
            groups = max(1, items // 64)
            tally_arr = np.zeros(12, dtype=np.float64) if self.functional else None
            result_arr = np.zeros(12, dtype=np.float64) if self.functional else None
            tally = context.create_buffer(
                max(96 * groups, 96),
                host_array=tally_arr,
                name=f"ep-tally-{qi}",
            )
            result = context.create_buffer(
                96, host_array=result_arr, name=f"ep-result-{qi}"
            )
            k = self._kernel("ep", tally, result, items)
            kr = self._kernel("ep_reduce", tally, result, groups)
            if self.functional:
                self._attach_functional(qi, k)
            self._per_queue.append({
                "bufs": {"tally": tally, "result": result},
                "kernels": {"ep": k, "ep_reduce": kr},
                "items": items,
                "out": np.zeros(12, dtype=np.float64),
            })

    def _attach_functional(self, qi: int, kernel) -> None:
        """Real LCG pipeline at reduced scale, disjoint streams per queue."""
        n = _FUNCTIONAL_PAIRS
        start_pair = qi * n
        jump = numerics.ipow46(numerics.LCG_A, 2 * start_pair)
        _, seed = numerics.randlc(271828183.0, jump)

        def host(args: Dict[str, object]) -> None:
            tallies = numerics.ep_tally(n, seed)
            qq = args["qq"]
            qq[:10] = tallies["counts"]
            qq[10] = tallies["sx"]
            qq[11] = tallies["sy"]
            sxy = args["sxy"]
            sxy[:10] = tallies["counts"]
            sxy[10] = tallies["sx"]
            sxy[11] = tallies["sy"]

        kernel.set_host_function(host)

    def enqueue_iteration(self, it: int) -> None:
        for q, state in zip(self.queues, self._per_queue):
            items = state["items"]
            q.enqueue_nd_range_kernel(state["kernels"]["ep"], (items,), (64,))
            q.enqueue_nd_range_kernel(state["kernels"]["ep_reduce"], (1024,), (64,))

    def finalize(self) -> None:
        for q, state in zip(self.queues, self._per_queue):
            q.enqueue_read_buffer(state["bufs"]["result"], state["out"])
        self.finish_all()
        if self.functional:
            counts = np.zeros(10)
            sx = sy = 0.0
            for state in self._per_queue:
                counts += state["out"][:10]
                sx += state["out"][10]
                sy += state["out"][11]
            total_pairs = _FUNCTIONAL_PAIRS * self.num_queues
            self.checks["acceptance"] = float(counts.sum()) / total_pairs
            self.checks["counts"] = counts.tolist()
            self.checks["sx"] = sx
            self.checks["sy"] = sy

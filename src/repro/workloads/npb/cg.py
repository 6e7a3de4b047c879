"""CG — Conjugate Gradient (irregular sparse solver).

NPB CG estimates the largest eigenvalue of a sparse SPD matrix with inverse
power iteration; the inner loop is a conjugate-gradient solve dominated by
an irregular sparse matrix-vector product.  The SNU-NPB OpenCL port is
CPU-friendly (Fig. 3: GPU ≈ 1.9× slower) because the gather-heavy SpMV is
uncoalesced on GPUs.

Table II: power-of-two queues (1, 2, 4); classes S–C;
``SCHED_EXPLICIT_REGION`` around the warm-up iteration.

Decomposition: block rows — each queue owns ``na/Q`` rows of the matrix and
the matching vector chunks.  Every iteration runs SpMV + two dot products +
three AXPY updates per queue, then an all-gather of the updated direction
vector (staged through the host, as SNU-NPB-MD does across devices) and a
host-side reduction of the dot partials.

Functional mode solves a real 2-D Poisson system with the hand-rolled CG of
:mod:`repro.workloads.npb.numerics` and records the residual history.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ocl.context import Context
from repro.ocl.enums import SchedFlag
from repro.ocl.queue import CommandQueue
from repro.workloads.base import ProblemClass, power_of_two_rule
from repro.workloads.npb import numerics
from repro.workloads.npb.common import NPBApplication, kernel_source, register_benchmark

__all__ = ["CG"]

#: (na, nonzer-per-row factor, CG iterations) per class — NPB 3.3 table.
_CLASS_PARAMS = {
    ProblemClass.S: (1400, 7, 15),
    ProblemClass.W: (7000, 8, 15),
    ProblemClass.A: (14000, 11, 15),
    ProblemClass.B: (75000, 13, 75),
    ProblemClass.C: (150000, 15, 75),
}

_GPU_EFF_SPMV = 0.30  # with irregularity/divergence this yields ≈1.9× (Fig. 3)


@register_benchmark
class CG(NPBApplication):
    NAME = "CG"
    QUEUE_RULE = power_of_two_rule((1, 2, 4))
    VALID_CLASSES = tuple(_CLASS_PARAMS)
    TABLE2_FLAGS = SchedFlag.SCHED_EXPLICIT_REGION

    @property
    def na(self) -> int:
        return _CLASS_PARAMS[self.problem_class][0]

    @property
    def nonzer(self) -> int:
        return _CLASS_PARAMS[self.problem_class][1]

    @property
    def default_iterations(self) -> int:
        return _CLASS_PARAMS[self.problem_class][2]

    @property
    def rows_per_queue(self) -> int:
        return max(1, self.na // self.num_queues)

    def generate_source(self) -> str:
        nnz_row = self.nonzer ** 2
        src = kernel_source(
            "cg_spmv",
            "__global double* a, __global int* colidx, __global int* rowstr, "
            "__global double* p, __global double* q, int rows",
            {
                "flops_per_item": 2 * nnz_row,
                "bytes_per_item": 12 * nnz_row + 16,
                "divergence": 0.30,
                "irregularity": 0.85,
                "cpu_eff": 1.0,
                "gpu_eff": _GPU_EFF_SPMV,
                "writes": "4",
            },
            body="/* q[i] = sum_j a[j] * p[colidx[j]] (modelled) */",
        )
        src += kernel_source(
            "cg_dot",
            "__global double* x, __global double* y, __global double* out, int rows",
            {
                "flops_per_item": 2,
                "bytes_per_item": 16,
                "divergence": 0.05,
                "irregularity": 0.05,
                "cpu_eff": 1.0,
                "gpu_eff": 0.7,
                "writes": "2",
            },
            body="/* partial dot-product reduction (modelled) */",
        )
        src += kernel_source(
            "cg_axpy",
            "__global double* x, __global double* y, double alpha, int rows",
            {
                "flops_per_item": 2,
                "bytes_per_item": 24,
                "divergence": 0.0,
                "irregularity": 0.05,
                "cpu_eff": 1.0,
                "gpu_eff": 0.7,
                "writes": "1",
            },
            body="/* y += alpha * x (modelled) */",
        )
        return src

    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        self._adopt(context, queues)
        rows = self.rows_per_queue
        nnz_row = self.nonzer ** 2
        for qi, q in enumerate(self.queues):
            bufs = {
                "a": context.create_buffer(rows * nnz_row * 8, name=f"cg-a-{qi}"),
                "colidx": context.create_buffer(
                    rows * nnz_row * 4, name=f"cg-col-{qi}"
                ),
                "rowstr": context.create_buffer((rows + 1) * 4, name=f"cg-row-{qi}"),
                # p is the full direction vector (SpMV gathers globally).
                "p": context.create_buffer(self.na * 8, name=f"cg-p-{qi}"),
                "q": context.create_buffer(rows * 8, name=f"cg-q-{qi}"),
                "r": context.create_buffer(rows * 8, name=f"cg-r-{qi}"),
                "x": context.create_buffer(rows * 8, name=f"cg-x-{qi}"),
                "dot": context.create_buffer(16, name=f"cg-dot-{qi}"),
            }
            # Initial data: matrix chunk + starting vectors land on the
            # queue's creation-time device (before any scheduling region).
            for key in ("a", "colidx", "rowstr", "p", "x"):
                q.enqueue_write_buffer(bufs[key])
            spmv_args = [bufs[key] for key in ("a", "colidx", "rowstr", "p", "q")]
            kernels = {
                "cg_spmv": self._kernel("cg_spmv", *spmv_args, rows),
                "cg_dot": self._kernel(
                    "cg_dot", bufs["r"], bufs["r"], bufs["dot"], rows
                ),
                "cg_axpy": self._kernel("cg_axpy", bufs["q"], bufs["x"], 1.0, rows),
            }
            self._per_queue.append({
                "bufs": bufs,
                "kernels": kernels,
                "dot_out": np.zeros(2, dtype=np.float64),
            })
        self.finish_all()

    def enqueue_iteration(self, it: int) -> None:
        rows = self.rows_per_queue
        for q, state in zip(self.queues, self._per_queue):
            ks = state["kernels"]
            for name in ("cg_spmv", "cg_dot", "cg_axpy", "cg_axpy", "cg_axpy",
                         "cg_dot"):
                q.enqueue_nd_range_kernel(ks[name], (rows,), (64,))
            # Dot partials to host (the host combines alpha/beta).
            q.enqueue_read_buffer(state["bufs"]["dot"], state["dot_out"])
        # All-gather of the direction vector, staged through the host:
        # each queue exports its chunk and imports the assembled vector.
        self._exchange("p", rows * 8, self.na * 8)

    def finalize(self) -> None:
        if self.functional:
            # Reference numerics: real CG on a 2-D Poisson system.
            grid = 16
            data, idx, ptr, size = numerics.make_poisson_csr(grid)
            b = np.ones(size)
            _, history = numerics.conjugate_gradient(
                data, idx, ptr, b, iterations=min(self.iterations * 5, 80)
            )
            self.checks["residual_history"] = history
            self.checks["converged"] = history[-1] < history[0] * 1e-3

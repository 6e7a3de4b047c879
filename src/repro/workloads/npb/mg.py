"""MG — Multigrid V-cycle (memory-bandwidth bound stencils).

NPB MG applies V-cycles of a 7-point Laplacian multigrid solver.  The
SNU-NPB OpenCL port runs markedly better on the CPU (Fig. 3: GPU ≈ 3×
slower): the stencil kernels are written Fortran-style (strided accesses,
no use of local memory), so GPU bandwidth efficiency collapses.

Table II: power-of-two queues (1, 2, 4); classes S, W, A, B;
``SCHED_EXPLICIT_REGION`` around the warm-up V-cycle.

Decomposition: slab split along z.  One iteration enqueues, per queue, the
down-sweep (residual + restriction per level), coarse smoothing, and the
up-sweep (interpolation + residual + smoother per level), with a halo
exchange between neighbouring queues at the finest level.

Functional mode runs real V-cycles (:func:`repro.workloads.npb.numerics.mg_vcycle`)
on a 33³ grid and records the residual-norm history.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ocl.context import Context
from repro.ocl.enums import SchedFlag
from repro.ocl.queue import CommandQueue
from repro.workloads.base import ProblemClass, power_of_two_rule
from repro.workloads.npb import numerics
from repro.workloads.npb.common import NPBApplication, kernel_source, register_benchmark

__all__ = ["MG"]

#: (grid n, iterations) per class — NPB 3.3.
_CLASS_PARAMS = {
    ProblemClass.S: (32, 4),
    ProblemClass.W: (128, 4),
    ProblemClass.A: (256, 4),
    ProblemClass.B: (256, 20),
}

#: Coarsest level size.
_MIN_LEVEL = 4

#: Annotation shared by the stencil kernels (calibrated to Fig. 3's ≈3×).
_STENCIL = {
    "divergence": 0.10,
    "irregularity": 0.50,
    "cpu_eff": 1.0,
    "gpu_eff": 0.11,
}


@register_benchmark
class MG(NPBApplication):
    NAME = "MG"
    QUEUE_RULE = power_of_two_rule((1, 2, 4))
    VALID_CLASSES = tuple(_CLASS_PARAMS)
    TABLE2_FLAGS = SchedFlag.SCHED_EXPLICIT_REGION

    @property
    def grid_n(self) -> int:
        return _CLASS_PARAMS[self.problem_class][0]

    @property
    def default_iterations(self) -> int:
        return _CLASS_PARAMS[self.problem_class][1]

    @property
    def levels(self) -> List[int]:
        """Grid sizes from finest to coarsest."""
        out = []
        n = self.grid_n
        while n >= _MIN_LEVEL:
            out.append(n)
            n //= 2
        return out

    def generate_source(self) -> str:
        src = ""
        for name, flops, bytes_, writes in (
            ("mg_resid", 21, 72, "2"),
            ("mg_psinv", 25, 72, "0"),
            ("mg_rprj3", 19, 40, "1"),
            ("mg_interp", 12, 40, "1"),
        ):
            src += kernel_source(
                name,
                "__global double* u, __global double* v, __global double* r, int n",
                {
                    "flops_per_item": flops,
                    "bytes_per_item": bytes_,
                    "writes": writes,
                    **_STENCIL,
                },
                body=f"/* {name} 7-point stencil sweep (modelled) */",
            )
        return src

    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        self._adopt(context, queues)
        n = self.grid_n
        pts_per_queue = n * n * n // self.num_queues
        for qi, q in enumerate(self.queues):
            bufs = {
                "u": context.create_buffer(pts_per_queue * 8, name=f"mg-u-{qi}"),
                "v": context.create_buffer(pts_per_queue * 8, name=f"mg-v-{qi}"),
                # r holds every level's residual (sum over levels < 8/7 n^3).
                "r": context.create_buffer(
                    int(pts_per_queue * 8 * 8 / 7) + 8, name=f"mg-r-{qi}"
                ),
            }
            q.enqueue_write_buffer(bufs["v"])
            args = (bufs["u"], bufs["v"], bufs["r"], n)
            kernels = {
                name: self._kernel(name, *args)
                for name in ("mg_resid", "mg_psinv", "mg_rprj3", "mg_interp")
            }
            self._per_queue.append({"bufs": bufs, "kernels": kernels})
        self.finish_all()

    def _level_items(self, level_n: int) -> int:
        return max(64, level_n ** 3 // self.num_queues)

    def enqueue_iteration(self, it: int) -> None:
        levels = self.levels
        for q, state in zip(self.queues, self._per_queue):
            ks = state["kernels"]
            # Down sweep: residual + restriction per level.
            for ln in levels[:-1]:
                items = self._level_items(ln)
                q.enqueue_nd_range_kernel(ks["mg_resid"], (items,), (64,))
                q.enqueue_nd_range_kernel(ks["mg_rprj3"], (items // 8 or 64,), (64,))
            # Coarsest-level smoothing.
            q.enqueue_nd_range_kernel(
                ks["mg_psinv"], (self._level_items(levels[-1]),), (64,)
            )
            # Up sweep: interpolation + residual + smoother per level.
            for ln in reversed(levels[:-1]):
                items = self._level_items(ln)
                q.enqueue_nd_range_kernel(ks["mg_interp"], (items,), (64,))
                q.enqueue_nd_range_kernel(ks["mg_resid"], (items,), (64,))
                q.enqueue_nd_range_kernel(ks["mg_psinv"], (items,), (64,))
        # Finest-level halo exchange between neighbouring slabs.
        self._exchange("u", self.grid_n * self.grid_n * 8)

    def finalize(self) -> None:
        if self.functional:
            n = 33
            rng = np.random.default_rng(7)
            v = np.zeros((n, n, n))
            v[1:-1, 1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2, n - 2))
            u = np.zeros_like(v)
            h = 1.0 / (n - 1)
            history = [float(np.linalg.norm(numerics.mg_residual(u, v, h)))]
            for _ in range(self.iterations):
                u = numerics.mg_vcycle(u, v, h)
                history.append(float(np.linalg.norm(numerics.mg_residual(u, v, h))))
            self.checks["residual_history"] = history
            self.checks["converging"] = history[-1] < history[0] * 0.2

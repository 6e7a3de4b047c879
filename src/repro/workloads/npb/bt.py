"""BT — Block Tridiagonal solver (compute-heavy implicit CFD).

NPB BT solves the 3-D compressible Navier–Stokes equations with an ADI
scheme whose x/y/z sweeps invert 5×5 block tridiagonal systems.  The block
solves carry long serial dependencies along each line, which the Fortran-
derived OpenCL port maps poorly onto GPUs — BT shows the worst GPU/CPU
ratio in Fig. 3 (≈3.5×).

Table II: square queue counts (1, 4 — a √Q×√Q column decomposition);
classes S, W, A, B; ``SCHED_EXPLICIT_REGION`` +
``clSetKernelWorkGroupInfo`` (CPU and GPU need different 2-D launch
shapes for the sweep kernels).

Functional mode runs the real dimension-split tridiagonal solve
(:func:`repro.workloads.npb.numerics.adi_step`) on a small grid and checks
diffusion invariants (boundedness, positivity).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import ProblemClass
from repro.workloads.npb import numerics
from repro.workloads.npb.common import ADIApplication, register_benchmark

__all__ = ["BT"]

#: Block-solve kernels: serial line dependencies, register pressure —
#: calibrated so single-device GPU/CPU ≈ 3.5 (Fig. 3).
_SOLVE = {
    "divergence": 0.45,
    "irregularity": 0.45,
    "cpu_eff": 1.0,
    "gpu_eff": 0.082,
}
_RHS = {
    "divergence": 0.15,
    "irregularity": 0.30,
    "cpu_eff": 1.0,
    "gpu_eff": 0.22,
}


@register_benchmark
class BT(ADIApplication):
    NAME = "BT"
    CLASS_PARAMS = {
        ProblemClass.S: (12, 60),
        ProblemClass.W: (24, 200),
        ProblemClass.A: (64, 200),
        ProblemClass.B: (102, 200),
    }
    VALID_CLASSES = tuple(CLASS_PARAMS)
    USES_WORKGROUP_INFO = True
    PREFIX = "bt"
    POINTWISE = (
        ("compute_rhs", 160, 240, _RHS, "13-point flux stencil over 5 variables"),
    )
    SOLVE = (620, 200, _SOLVE, "5x5 block tridiagonal sweep")
    LHS_WIDTH = 15

    def apply_workgroup_info(self) -> None:
        """The Table II note: BT sets CPU- and GPU-specific sweep shapes.

        The NDRange covers the same points either way; only the work-group
        geometry differs — exactly what the proposed API decouples from
        the launch call.
        """
        self._device_shapes(self.solves, self.points_per_queue)

    def finalize(self) -> None:
        if self.functional:
            n = 13
            u = np.zeros((n, n, n))
            u[n // 2, n // 2, n // 2] = 1.0
            total0 = u.sum()
            for _ in range(min(self.iterations, 20)):
                u = numerics.adi_step(u, dt=0.05, h=1.0 / (n - 1))
            self.checks["max_value"] = float(u.max())
            self.checks["bounded"] = bool(0.0 <= u.min() and u.max() <= 1.0)
            self.checks["mass_initial"] = float(total0)
            self.checks["mass_final"] = float(u.sum())

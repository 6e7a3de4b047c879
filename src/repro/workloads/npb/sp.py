"""SP — Scalar Pentadiagonal solver (implicit CFD, many short iterations).

Like BT, SP is an ADI scheme over a 3-D grid, but the factored systems are
*scalar* pentadiagonal, so each iteration is lighter while the iteration
count is high (400).  The Fortran-derived OpenCL kernels remain CPU-
leaning (Fig. 3: GPU ≈ 2.4× slower).

Table II: square queue counts (1, 4); classes S, W, A, B, C;
``SCHED_EXPLICIT_REGION`` around the warm-up iteration.

Functional mode reuses the dimension-split solve of
:func:`repro.workloads.npb.numerics.adi_step` and verifies it against a
heavier-smoothing reference (a second application reduces the field's
maximum — diffusion is monotone).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import ProblemClass
from repro.workloads.npb import numerics
from repro.workloads.npb.common import ADIApplication, register_benchmark

__all__ = ["SP"]

_SOLVE = {
    "divergence": 0.35,
    "irregularity": 0.40,
    "cpu_eff": 1.0,
    "gpu_eff": 0.10,
}
_POINTWISE = {
    "divergence": 0.05,
    "irregularity": 0.15,
    "cpu_eff": 1.0,
    "gpu_eff": 0.18,
}


@register_benchmark
class SP(ADIApplication):
    NAME = "SP"
    CLASS_PARAMS = {
        ProblemClass.S: (12, 100),
        ProblemClass.W: (36, 400),
        ProblemClass.A: (64, 400),
        ProblemClass.B: (102, 400),
        ProblemClass.C: (162, 400),
    }
    VALID_CLASSES = tuple(CLASS_PARAMS)
    PREFIX = "sp"
    POINTWISE = (
        ("compute_rhs", 120, 200, _POINTWISE, "flux + dissipation stencil"),
        ("txinvr", 40, 80, _POINTWISE, "block-diagonal premultiply"),
    )
    SOLVE = (220, 120, _SOLVE, "scalar pentadiagonal sweep")
    LHS_WIDTH = 9

    def finalize(self) -> None:
        if self.functional:
            n = 13
            u = np.zeros((n, n, n))
            u[n // 2, n // 2, n // 2] = 1.0
            once = numerics.adi_step(u, dt=0.05, h=1.0 / (n - 1))
            twice = numerics.adi_step(once, dt=0.05, h=1.0 / (n - 1))
            self.checks["monotone"] = bool(twice.max() < once.max() <= u.max())
            self.checks["bounded"] = bool(twice.min() >= 0.0)

"""3-D staggered-grid elastic velocity–stress solver.

The paper's FDM-Seismology "divides the domain into a three-dimensional
grid" (Section VI.B.2).  :mod:`repro.workloads.seismology.fdm` models the
two-queue driver with a 2-D solver for speed; this module is the
full-fidelity 3-D reference: nine wavefields (three velocities, six
stress components) on a standard (Madariaga–Virieux) staggered grid,

* velocities:  ∂t vᵢ = (1/ρ) ∑ⱼ ∂ⱼ σᵢⱼ
* stresses:    ∂t σᵢⱼ = λ δᵢⱼ ∇·v + μ (∂ᵢ vⱼ + ∂ⱼ vᵢ)

with a Cerjan sponge on all six faces, a Ricker source in the normal
stresses, and the same *two independent x-regions with halo exchange*
structure as the 2-D solver — :class:`RegionPair3D` reproduces the
monolithic solution bit-for-bit, which the test suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.workloads.seismology.fdm import (
    RegionPairSimulation,
    _interior,
    _sponge_profile,
    ricker_wavelet,
)

__all__ = ["FDM3DParameters", "FDM3DSimulation", "RegionPair3D"]

VELOCITY_FIELDS = ("vx", "vy", "vz")
STRESS_FIELDS = ("sxx", "syy", "szz", "sxy", "sxz", "syz")
ALL_FIELDS = VELOCITY_FIELDS + STRESS_FIELDS


@dataclass(frozen=True)
class FDM3DParameters:
    """Physical + discretisation parameters (defaults CFL-safe)."""

    nx: int = 48
    ny: int = 48
    nz: int = 48
    dx: float = 10.0
    dt: float = 1e-3
    vp: float = 3000.0
    vs: float = 1800.0
    rho: float = 2200.0
    source_frequency: float = 12.0
    sponge_width: int = 8
    sponge_strength: float = 0.02

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 12:
            raise ValueError("grid too small (need ≥ 12 points per side)")
        cfl = self.vp * self.dt * math.sqrt(3.0) / self.dx
        if cfl >= 1.0:
            raise ValueError(
                f"CFL violated: vp*dt*sqrt(3)/dx = {cfl:.3f} must be < 1"
            )
        if self.vs >= self.vp:
            raise ValueError("shear velocity must be below P velocity")

    @property
    def lam(self) -> float:
        return self.rho * (self.vp ** 2 - 2.0 * self.vs ** 2)

    @property
    def mu(self) -> float:
        return self.rho * self.vs ** 2


class FDM3DSimulation:
    """Monolithic 3-D solver: nine wavefields on one grid."""

    FIELDS = ALL_FIELDS

    def __init__(self, params: FDM3DParameters) -> None:
        self.p = params
        shape = (params.nx, params.ny, params.nz)
        for name in ALL_FIELDS:
            setattr(self, name, np.zeros(shape))
        self.step_index = 0
        sx = _sponge_profile(params.nx, params.sponge_width, params.sponge_strength)
        sy = _sponge_profile(params.ny, params.sponge_width, params.sponge_strength)
        sz = _sponge_profile(params.nz, params.sponge_width, params.sponge_strength)
        self._damp = sx[:, None, None] * sy[None, :, None] * sz[None, None, :]
        self._source_pos = (params.nx // 2, params.ny // 2, params.nz // 3)

    # ------------------------------------------------------------------
    # Update phases (interior points; Dirichlet walls)
    # ------------------------------------------------------------------
    def step_velocity(self, x_range: Optional[Tuple[int, int]] = None) -> None:
        p = self.p
        c = p.dt / (p.rho * p.dx)
        lo, hi = _interior(x_range, p.nx)
        sl = slice(lo, hi)
        i = (sl, slice(1, -1), slice(1, -1))
        # vx += c (D-x sxx + D-y sxy + D-z sxz): backward differences land
        # on the staggered positions; implemented via shifted slices.
        self.vx[i] += c * (
            (self.sxx[lo + 1 : hi + 1, 1:-1, 1:-1] - self.sxx[i])
            + (self.sxy[sl, 1:-1, 1:-1] - self.sxy[sl, :-2, 1:-1])
            + (self.sxz[sl, 1:-1, 1:-1] - self.sxz[sl, 1:-1, :-2])
        )
        self.vy[i] += c * (
            (self.sxy[i] - self.sxy[lo - 1 : hi - 1, 1:-1, 1:-1])
            + (self.syy[sl, 2:, 1:-1] - self.syy[i])
            + (self.syz[sl, 1:-1, 1:-1] - self.syz[sl, 1:-1, :-2])
        )
        self.vz[i] += c * (
            (self.sxz[i] - self.sxz[lo - 1 : hi - 1, 1:-1, 1:-1])
            + (self.syz[sl, 1:-1, 1:-1] - self.syz[sl, :-2, 1:-1])
            + (self.szz[sl, 1:-1, 2:] - self.szz[i])
        )
        for name in VELOCITY_FIELDS:
            f = getattr(self, name)
            f[sl, :, :] *= self._damp[sl, :, :]

    def step_stress(self, x_range: Optional[Tuple[int, int]] = None) -> None:
        p = self.p
        dtdx = p.dt / p.dx
        lam, mu = p.lam, p.mu
        l2m = lam + 2.0 * mu
        lo, hi = _interior(x_range, p.nx)
        sl = slice(lo, hi)
        i = (sl, slice(1, -1), slice(1, -1))
        dvxdx = self.vx[i] - self.vx[lo - 1 : hi - 1, 1:-1, 1:-1]
        dvydy = self.vy[i] - self.vy[sl, :-2, 1:-1]
        dvzdz = self.vz[i] - self.vz[sl, 1:-1, :-2]
        self.sxx[i] += dtdx * (l2m * dvxdx + lam * (dvydy + dvzdz))
        self.syy[i] += dtdx * (l2m * dvydy + lam * (dvxdx + dvzdz))
        self.szz[i] += dtdx * (l2m * dvzdz + lam * (dvxdx + dvydy))
        dvxdy = self.vx[sl, 2:, 1:-1] - self.vx[i]
        dvydx = self.vy[lo + 1 : hi + 1, 1:-1, 1:-1] - self.vy[i]
        self.sxy[i] += dtdx * mu * (dvxdy + dvydx)
        dvxdz = self.vx[sl, 1:-1, 2:] - self.vx[i]
        dvzdx = self.vz[lo + 1 : hi + 1, 1:-1, 1:-1] - self.vz[i]
        self.sxz[i] += dtdx * mu * (dvxdz + dvzdx)
        dvydz = self.vy[sl, 1:-1, 2:] - self.vy[i]
        dvzdy = self.vz[sl, 2:, 1:-1] - self.vz[i]
        self.syz[i] += dtdx * mu * (dvydz + dvzdy)
        for name in STRESS_FIELDS:
            f = getattr(self, name)
            f[sl, :, :] *= self._damp[sl, :, :]

    def inject_source(self) -> None:
        p = self.p
        t = (self.step_index + 0.5) * p.dt
        amp = float(ricker_wavelet(np.asarray([t]), p.source_frequency)[0])
        i, j, k = self._source_pos
        for name in ("sxx", "syy", "szz"):
            getattr(self, name)[i, j, k] += amp * p.dt

    def step(self) -> None:
        self.step_velocity()
        self.step_stress()
        self.inject_source()
        self.step_index += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def energy(self) -> float:
        kinetic = 0.5 * self.p.rho * sum(
            float((getattr(self, f) ** 2).sum()) for f in VELOCITY_FIELDS
        )
        strain = sum(
            float((getattr(self, f) ** 2).sum()) for f in STRESS_FIELDS
        )
        return kinetic + strain / (2.0 * self.p.mu)

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {f: getattr(self, f).copy() for f in ALL_FIELDS}


class RegionPair3D(RegionPairSimulation):
    """The 3-D scheme split into two x-subdomains with halo exchange: the
    2-D :class:`RegionPairSimulation` stepping :class:`FDM3DSimulation`,
    whose interface halo is one yz-plane of all nine wavefields."""

    solver = FDM3DSimulation

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
from typing import Dict, Tuple

import numpy as np

from repro.workloads.seismology.fdm import ricker_wavelet

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


def _sponge(n: int, width: int, strength: float) -> np.ndarray:
    prof = np.ones(n)
    for i in range(width):
        d = math.exp(-((strength * (width - i)) ** 2))
        prof[i] = d
        prof[n - 1 - i] = d
    return prof


class FDM3DSimulation:
    """Monolithic 3-D solver: nine wavefields on one grid."""

    def __init__(self, params: FDM3DParameters) -> None:
        self.p = params
        shape = (params.nx, params.ny, params.nz)
        for name in ALL_FIELDS:
            setattr(self, name, np.zeros(shape))
        self.step_index = 0
        sx = _sponge(params.nx, params.sponge_width, params.sponge_strength)
        sy = _sponge(params.ny, params.sponge_width, params.sponge_strength)
        sz = _sponge(params.nz, params.sponge_width, params.sponge_strength)
        self._damp = sx[:, None, None] * sy[None, :, None] * sz[None, None, :]
        self._source_pos = (params.nx // 2, params.ny // 2, params.nz // 3)

    # ------------------------------------------------------------------
    # Update phases (interior points; Dirichlet walls)
    # ------------------------------------------------------------------
    def step_velocity(self, x_range: Tuple[int, int] | None = None) -> None:
        p = self.p
        c = p.dt / (p.rho * p.dx)
        lo = max(x_range[0], 1) if x_range else 1
        hi = min(x_range[1], p.nx - 1) if x_range else p.nx - 1
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

    def step_stress(self, x_range: Tuple[int, int] | None = None) -> None:
        p = self.p
        dtdx = p.dt / p.dx
        lam, mu = p.lam, p.mu
        l2m = lam + 2.0 * mu
        lo = max(x_range[0], 1) if x_range else 1
        hi = min(x_range[1], p.nx - 1) if x_range else p.nx - 1
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


class RegionPair3D:
    """The 3-D scheme split into two x-subdomains with halo exchange.

    Identical structure to the 2-D :class:`RegionPairSimulation`: each
    phase is computed strictly region-by-region over disjoint x ranges, so
    two command queues can own the regions; the result is bit-for-bit
    equal to the monolithic solver.
    """

    def __init__(self, params: FDM3DParameters) -> None:
        if params.nx % 2:
            raise ValueError("nx must be even for a two-region split")
        self.p = params
        self.mono = FDM3DSimulation(params)
        self.half = params.nx // 2
        self.step_index = 0

    def _range(self, region: int) -> Tuple[int, int]:
        return (0, self.half) if region == 0 else (self.half, self.p.nx)

    def step_velocity_region(self, region: int) -> None:
        self.mono.step_velocity(self._range(region))

    def step_stress_region(self, region: int) -> None:
        self.mono.step_stress(self._range(region))

    def inject_source(self) -> None:
        self.mono.step_index = self.step_index
        self.mono.inject_source()

    def step(self) -> None:
        self.step_velocity_region(0)
        self.step_velocity_region(1)
        self.step_stress_region(0)
        self.step_stress_region(1)
        self.inject_source()
        self.step_index += 1
        self.mono.step_index = self.step_index

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def energy(self) -> float:
        return self.mono.energy()

    def interface_halo_bytes(self) -> int:
        """Bytes exchanged per phase: 9 fields, one yz-plane."""
        return len(ALL_FIELDS) * self.p.ny * self.p.nz * 8

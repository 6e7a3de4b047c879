"""2-D staggered-grid velocity–stress finite-difference seismic solver.

The paper's FDM-Seismology application "implements a parallel
velocity-stress, staggered-grid finite-difference approach for propagation
of waves in a layered medium", with absorbing boundary conditions around
the region of interest and the wavefields "divided into two independent
regions [that] can be computed in parallel".

This module is the real numerical substrate: an elastic P-SV solver on a
standard (Virieux) staggered grid,

* velocity updates:   ∂t vx = (1/ρ)(∂x σxx + ∂z σxz)
*                     ∂t vz = (1/ρ)(∂x σxz + ∂z σzz)
* stress updates:     ∂t σxx = (λ+2μ) ∂x vx + λ ∂z vz
*                     ∂t σzz = λ ∂x vx + (λ+2μ) ∂z vz
*                     ∂t σxz = μ (∂z vx + ∂x vz)

with a Cerjan sponge (exponential damping) absorbing layer and a Ricker
source wavelet injected into the normal stresses.

:class:`RegionPairSimulation` runs the same scheme split into two
subdomains with explicit interface halo exchange — the structure the
two-command-queue OpenCL driver mirrors — and reproduces the monolithic
solution *exactly* (bit-for-bit), which the test suite asserts.  It steps
the 3-D solver of :mod:`repro.workloads.seismology.fdm3d` the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "FDMParameters",
    "FDMSimulation",
    "RegionPairSimulation",
    "ricker_wavelet",
]


def ricker_wavelet(t: np.ndarray, peak_frequency: float) -> np.ndarray:
    """Ricker (Mexican-hat) source time function, peak at t = 1/f."""
    a = (math.pi * peak_frequency * (t - 1.0 / peak_frequency)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


@dataclass(frozen=True)
class FDMParameters:
    """Physical + discretisation parameters for the solver.

    Defaults describe a small homogeneous medium comfortably inside the
    CFL limit ``dt ≤ dx / (vp √2)``.
    """

    nx: int = 128
    nz: int = 128
    dx: float = 10.0  # m
    dt: float = 1e-3  # s
    vp: float = 3000.0  # m/s
    vs: float = 1800.0  # m/s
    rho: float = 2200.0  # kg/m^3
    source_frequency: float = 12.0  # Hz
    sponge_width: int = 12
    sponge_strength: float = 0.015

    def __post_init__(self) -> None:
        if self.nx < 16 or self.nz < 16:
            raise ValueError("grid too small (need ≥ 16 points per side)")
        cfl = self.vp * self.dt * math.sqrt(2.0) / self.dx
        if cfl >= 1.0:
            raise ValueError(
                f"CFL violated: vp*dt*sqrt(2)/dx = {cfl:.3f} must be < 1"
            )
        if self.vs >= self.vp:
            raise ValueError("shear velocity must be below P velocity")

    @property
    def lam(self) -> float:
        """First Lamé parameter λ = ρ(vp² − 2 vs²)."""
        return self.rho * (self.vp ** 2 - 2.0 * self.vs ** 2)

    @property
    def mu(self) -> float:
        """Shear modulus μ = ρ vs²."""
        return self.rho * self.vs ** 2


def _sponge_profile(n: int, width: int, strength: float) -> np.ndarray:
    """Cerjan damping factors along one axis (1 in the interior)."""
    prof = np.ones(n)
    for i in range(width):
        d = math.exp(-((strength * (width - i)) ** 2))
        prof[i] = d
        prof[n - 1 - i] = d
    return prof


def _interior(x_range: Optional[Tuple[int, int]], nx: int) -> Tuple[int, int]:
    """The interior x columns ``[lo, hi)`` of ``x_range`` (all if None)."""
    if x_range is None:
        return 1, nx - 1
    return max(x_range[0], 1), min(x_range[1], nx - 1)


class FDMSimulation:
    """Monolithic solver: five wavefields on one grid.

    Each phase updates the interior points of the x columns in
    ``x_range`` (all of them by default); the wall columns and rows stay
    zero (Dirichlet).
    """

    FIELDS = ("vx", "vz", "sxx", "szz", "sxz")

    def __init__(self, params: FDMParameters) -> None:
        self.p = params
        for name in self.FIELDS:
            setattr(self, name, np.zeros((params.nx, params.nz)))
        self.step_index = 0
        sx = _sponge_profile(params.nx, params.sponge_width, params.sponge_strength)
        sz = _sponge_profile(params.nz, params.sponge_width, params.sponge_strength)
        self._damp = sx[:, None] * sz[None, :]
        self._source_pos = (params.nx // 2, params.nz // 3)

    # -- update phases ------------------------------------------------------
    def step_velocity(self, x_range: Optional[Tuple[int, int]] = None) -> None:
        p = self.p
        c = p.dt / (p.rho * p.dx)
        lo, hi = _interior(x_range, p.nx)
        sl = slice(lo, hi)
        vx, vz = self.vx, self.vz
        sxx, szz, sxz = self.sxx, self.szz, self.sxz
        vx[sl, 1:-1] += c * (
            (sxx[lo + 1 : hi + 1, 1:-1] - sxx[sl, 1:-1])
            + (sxz[sl, 1:-1] - sxz[sl, :-2])
        )
        vz[sl, 1:-1] += c * (
            (sxz[sl, 1:-1] - sxz[lo - 1 : hi - 1, 1:-1])
            + (szz[sl, 2:] - szz[sl, 1:-1])
        )
        vx[sl] *= self._damp[sl]
        vz[sl] *= self._damp[sl]

    def step_stress(self, x_range: Optional[Tuple[int, int]] = None) -> None:
        p = self.p
        dtdx = p.dt / p.dx
        lam, mu, l2m = p.lam, p.mu, p.lam + 2.0 * p.mu
        lo, hi = _interior(x_range, p.nx)
        sl = slice(lo, hi)
        vx, vz = self.vx, self.vz
        dvxdx = vx[sl, 1:-1] - vx[lo - 1 : hi - 1, 1:-1]
        dvzdz = vz[sl, 1:-1] - vz[sl, :-2]
        self.sxx[sl, 1:-1] += dtdx * (l2m * dvxdx + lam * dvzdz)
        self.szz[sl, 1:-1] += dtdx * (lam * dvxdx + l2m * dvzdz)
        dvxdz = vx[sl, 2:] - vx[sl, 1:-1]
        dvzdx = vz[lo + 1 : hi + 1, 1:-1] - vz[sl, 1:-1]
        self.sxz[sl, 1:-1] += dtdx * mu * (dvxdz + dvzdx)
        for f in (self.sxx, self.szz, self.sxz):
            f[sl] *= self._damp[sl]

    def inject_source(self) -> None:
        p = self.p
        t = (self.step_index + 0.5) * p.dt
        amp = float(ricker_wavelet(np.asarray([t]), p.source_frequency)[0])
        i, j = self._source_pos
        self.sxx[i, j] += amp * p.dt
        self.szz[i, j] += amp * p.dt

    def step(self) -> None:
        """One full time step: velocity, then stress + source."""
        self.step_velocity()
        self.step_stress()
        self.inject_source()
        self.step_index += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- diagnostics --------------------------------------------------------
    def energy(self) -> float:
        """Kinetic + strain energy proxy (bounded if stable)."""
        kinetic = 0.5 * self.p.rho * float((self.vx ** 2 + self.vz ** 2).sum())
        strain = float((self.sxx ** 2 + self.szz ** 2 + self.sxz ** 2).sum())
        return kinetic + strain / (2.0 * self.p.mu)

    def wavefield_snapshot(self) -> Dict[str, np.ndarray]:
        return {f: getattr(self, f).copy() for f in self.FIELDS}


class RegionPairSimulation:
    """A solver's scheme split into two x-subdomains with halo exchange.

    Region 0 owns columns ``[0, nx/2)`` and region 1 owns ``[nx/2, nx)``,
    each reading a one-column halo of the neighbour.  Each phase is
    computed strictly region-by-region over the disjoint column ranges
    (the solver's ``x_range`` form), so two command queues can own the
    regions; stepping a phase region-by-region reproduces the monolithic
    stencil exactly.  The halo exchange is implicit in slicing the shared
    arrays; the driver charges explicit transfer time for it.
    """

    #: The monolithic solver whose arrays the regions share.
    solver = FDMSimulation

    def __init__(self, params) -> None:
        if params.nx % 2:
            raise ValueError("nx must be even for a two-region split")
        self.p = params
        self.mono = self.solver(params)
        self.half = params.nx // 2
        self.step_index = 0

    def _range(self, region: int) -> Tuple[int, int]:
        return (0, self.half) if region == 0 else (self.half, self.p.nx)

    def step_velocity_region(self, region: int) -> None:
        self.mono.step_velocity(self._range(region))

    def step_stress_region(self, region: int) -> None:
        self.mono.step_stress(self._range(region))

    def inject_source(self) -> None:
        # The source sits in region 1's column range in the driver; physics
        # identical to the monolithic path.
        self.mono.step_index = self.step_index
        self.mono.inject_source()

    def step(self) -> None:
        """One full step through the region-split phases."""
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

    @property
    def source_region(self) -> int:
        return 0 if self.mono._source_pos[0] < self.half else 1

    def interface_halo_bytes(self) -> int:
        """Bytes exchanged at the interface per phase: every wavefield's
        one x-slice (one column in 2-D, one yz-plane in 3-D)."""
        return len(self.mono.FIELDS) * self.mono.vx[0].nbytes

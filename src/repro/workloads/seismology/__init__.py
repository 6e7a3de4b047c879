"""FDM-Seismology (paper Section VI.B.2).

* :mod:`repro.workloads.seismology.fdm` — a real 2-D staggered-grid
  velocity–stress finite-difference solver (numpy) with sponge absorbing
  boundaries and a Ricker source, plus the two-region split-domain
  stepper whose halo exchange reproduces the monolithic solution exactly;
* :mod:`repro.workloads.seismology.fdm3d` — the full-fidelity 3-D solver
  and its region pair (the same stepper over the 3-D arrays);
* :mod:`repro.workloads.seismology.app` — the two-command-queue OpenCL
  driver with the paper's kernel structure (velocity: 3 + 4 kernels,
  stress: 11 + 14, per region) in column-major and row-major variants.
"""

from repro.workloads.seismology.fdm import (
    FDMParameters,
    FDMSimulation,
    RegionPairSimulation,
    ricker_wavelet,
)
from repro.workloads.seismology.fdm3d import (
    FDM3DParameters,
    FDM3DSimulation,
    RegionPair3D,
)
from repro.workloads.seismology.app import (
    FDMSeismologyApp,
    run_seismology,
    DEVICE_COMBOS,
)

__all__ = [
    "FDMParameters",
    "FDMSimulation",
    "RegionPairSimulation",
    "FDM3DParameters",
    "FDM3DSimulation",
    "RegionPair3D",
    "ricker_wavelet",
    "FDMSeismologyApp",
    "run_seismology",
    "DEVICE_COMBOS",
]

"""FDM-Seismology OpenCL driver (paper Section VI.B.2, Figs. 9 and 10).

Structure, matching the paper exactly:

* the wavefields are divided into two independent regions, each computed
  by its own command queue;
* the velocity wavefields use **7 kernels** — 3 on region 1, 4 on region 2
  (the extra one injects the source);
* the stress wavefields use **25 kernels** — 11 on region 1, 14 on
  region 2 (the update sweeps are strip-decomposed, as in the original
  code derived from Fortran DISFD);
* two data-layout variants exist: **column-major** (follows Fortran's
  arrays; best when both queues land on the CPU, worst on a single GPU —
  a 2.7× spread) and **row-major** (GPU-amenable; best split across the
  two GPUs, 2.3× better than the worst all-CPU mapping);
* each iteration is one synchronization epoch, so the driver uses
  ``SCHED_KERNEL_EPOCH`` in auto mode (the paper notes
  ``SCHED_EXPLICIT_REGION`` around the first iteration behaves the same).

In functional mode the kernels carry the *real* region-split solver of
:mod:`repro.workloads.seismology.fdm` as host payloads, with stress phases
waiting on both regions' velocity events — the interface coupling.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flags import SchedulerConfig
from repro.hardware.specs import NodeSpec
from repro.ocl.context import Context
from repro.ocl.enums import SchedFlag
from repro.ocl.queue import CommandQueue, Event
from repro.workloads.base import Application, WorkloadError, WorkloadRun
from repro.workloads.npb.common import kernel_source, run_npb
from repro.workloads.seismology.fdm import FDMParameters, RegionPairSimulation
from repro.workloads.seismology.fdm3d import FDM3DParameters, RegionPair3D

__all__ = ["FDMSeismologyApp", "run_seismology", "DEVICE_COMBOS", "LAYOUTS"]

LAYOUTS = ("column", "row")

#: The nine manual queue→device mappings of Fig. 9 (two queues, three
#: devices), in the paper's order.
DEVICE_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("gpu0", "gpu0"),
    ("gpu1", "gpu1"),
    ("cpu", "cpu"),
    ("gpu0", "gpu1"),
    ("gpu0", "cpu"),
    ("gpu1", "gpu0"),
    ("gpu1", "cpu"),
    ("cpu", "gpu0"),
    ("cpu", "gpu1"),
)

#: Modelled per-region grid (cost model only; functional runs use a small
#: real grid).  Calibrated so per-iteration times match Fig. 9's scale.
_MODEL_NX = 2880
_MODEL_NZ = 2880

#: Layout-dependent kernel characteristics (see module docstring).
_LAYOUT_ANNOTATIONS = {
    "column": {"irregularity": 0.70, "cpu_eff": 1.0, "gpu_eff": 0.17},
    "row": {"irregularity": 0.08, "cpu_eff": 0.65, "gpu_eff": 0.184},
}

#: Velocity kernels per region (paper: 3 on region 1, 4 on region 2).
_VELOCITY_KERNELS = (
    ("vel_vx", "vel_vz", "vel_sponge"),
    ("vel_vx", "vel_vz", "vel_sponge", "vel_source"),
)
#: Stress strip counts per region: 3+3+3+2 = 11 and 4+4+4+2 = 14.
_STRESS_STRIPS = (3, 4)

_FUNCTIONAL_PARAMS = FDMParameters(nx=96, nz=96)
_FUNCTIONAL_PARAMS_3D = FDM3DParameters(nx=32, ny=32, nz=32)


class FDMSeismologyApp(Application):
    """Builds the kernels/buffers and enqueues iterations."""

    NAME = "FDM-Seismology"
    #: Each iteration is one synchronization epoch (see module docstring).
    TABLE2_FLAGS = SchedFlag.SCHED_KERNEL_EPOCH
    num_queues = 2

    def __init__(
        self,
        layout: str = "column",
        steps: int = 50,
        functional: bool = False,
        solver_dim: int = 2,
    ) -> None:
        if layout not in LAYOUTS:
            raise WorkloadError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        if steps < 1:
            raise WorkloadError("steps must be >= 1")
        if solver_dim not in (2, 3):
            raise WorkloadError("solver_dim must be 2 or 3")
        super().__init__(functional)
        self.layout = layout
        self.steps = steps
        self.solver_dim = solver_dim
        # Functional payloads: the fast 2-D solver by default, or the
        # full-fidelity 3-D elastic solver (the paper's "three-dimensional
        # grid") — both expose the same region-split interface.
        self.sim = None
        if functional:
            self.sim = (
                RegionPairSimulation(_FUNCTIONAL_PARAMS)
                if solver_dim == 2
                else RegionPair3D(_FUNCTIONAL_PARAMS_3D)
            )

    @property
    def iterations(self) -> int:
        return self.steps

    @property
    def label(self) -> str:
        return self.layout

    # ------------------------------------------------------------------
    # Source generation
    # ------------------------------------------------------------------
    def _region_points(self) -> int:
        return _MODEL_NX * _MODEL_NZ

    def generate_source(self) -> str:
        ann = _LAYOUT_ANNOTATIONS[self.layout]
        src = ""

        def add(name: str, flops: float, bytes_: float, writes: str = "0") -> None:
            nonlocal src
            src += kernel_source(
                name,
                "__global double* f0, __global double* f1, __global double* f2, int n",
                {
                    "flops_per_item": flops,
                    "bytes_per_item": bytes_,
                    "divergence": 0.05,
                    "writes": writes,
                    **ann,
                },
                body=f"/* {name} staggered-grid sweep ({self.layout}-major) */",
            )

        for region in (0, 1):
            for kname in _VELOCITY_KERNELS[region]:
                if kname == "vel_source":
                    # Point source injection: trivial work.
                    src += kernel_source(
                        f"{kname}_r{region}",
                        "__global double* f0, __global double* f1, "
                        "__global double* f2, int n",
                        {
                            "flops_per_item": 8,
                            "bytes_per_item": 16,
                            "divergence": 0.0,
                            "irregularity": 0.0,
                            "cpu_eff": 1.0,
                            "gpu_eff": 0.5,
                            "writes": "0,1",
                        },
                        body="/* Ricker wavelet injection */",
                    )
                else:
                    add(f"{kname}_r{region}", 14, 44, writes="0")
            strips = _STRESS_STRIPS[region]
            for comp in ("sxx", "szz", "sxz"):
                for s in range(strips):
                    add(f"st_{comp}{s}_r{region}", 16, 52 / strips * 3, writes="0")
            for s in range(2):
                add(f"st_sponge{s}_r{region}", 4, 24, writes="0,1,2")
        return src

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        if len(queues) != 2:
            raise WorkloadError("FDM-Seismology uses exactly two command queues")
        self._adopt(context, queues)
        pts = self._region_points()
        for region, q in enumerate(self.queues):
            halo_bytes = max(5 * _MODEL_NZ * 8, 64)
            bufs = {
                "v": context.create_buffer(pts * 2 * 8, name=f"fdm-v-r{region}"),
                "s": context.create_buffer(pts * 3 * 8, name=f"fdm-s-r{region}"),
                # Outgoing boundary strip: written by this region's sponge
                # kernels, copied to the neighbour each step.
                "halo": context.create_buffer(halo_bytes, name=f"fdm-halo-r{region}"),
                # Incoming ghost cells: written only by the halo-exchange
                # copy, read by this region's stress kernels.
                "halo_in": context.create_buffer(
                    halo_bytes, name=f"fdm-halo-in-r{region}"
                ),
            }
            q.enqueue_write_buffer(bufs["v"])
            q.enqueue_write_buffer(bufs["s"])
            # Iteration 1 exchanges the *initial* boundary values, so the
            # outgoing strip must be populated before the first copy reads it.
            q.enqueue_write_buffer(bufs["halo"])
            names = [f"{k}_r{region}" for k in _VELOCITY_KERNELS[region]]
            strips = _STRESS_STRIPS[region]
            names += [
                f"st_{comp}{s}_r{region}"
                for comp in ("sxx", "szz", "sxz")
                for s in range(strips)
            ]
            names += [f"st_sponge{s}_r{region}" for s in range(2)]
            kernels = {}
            for name in names:
                # Stress sweeps consume the neighbour's ghost cells; every
                # other kernel works on the region's own boundary strip.
                stress = name.startswith("st_") and not name.startswith("st_sponge")
                halo = bufs["halo_in"] if stress else bufs["halo"]
                kernels[name] = self._kernel(name, bufs["v"], bufs["s"], halo, pts)
            self._per_queue.append({"bufs": bufs, "kernels": kernels})
        if self.functional:
            self._attach_functional()
        self.finish_all()

    def _attach_functional(self) -> None:
        sim = self.sim
        assert sim is not None
        for region in (0, 1):
            ks = self._per_queue[region]["kernels"]
            ks[f"vel_vx_r{region}"].set_host_function(
                lambda args, r=region: sim.step_velocity_region(r)
            )
            ks[f"st_sxx0_r{region}"].set_host_function(
                lambda args, r=region: sim.step_stress_region(r)
            )
        self._per_queue[1]["kernels"]["vel_source_r1"].set_host_function(
            lambda args: self._advance_source()
        )

    def _advance_source(self) -> None:
        assert self.sim is not None
        self.sim.inject_source()
        self.sim.step_index += 1
        self.sim.mono.step_index = self.sim.step_index

    # ------------------------------------------------------------------
    # Iterations
    # ------------------------------------------------------------------
    def enqueue_iteration(self, it: int) -> None:
        """One time step: velocity phase, halo, stress phase, source.

        Stress kernels wait on *both* regions' velocity events — the
        interface coupling that makes the halo exchange necessary.
        """
        pts = self._region_points()
        vel_events: List[Event] = []
        for region, q in enumerate(self.queues):
            ks = self._per_queue[region]["kernels"]
            ev: Optional[Event] = None
            for kname in _VELOCITY_KERNELS[region]:
                if kname == "vel_source":
                    continue  # source fires after stress in this scheme
                ev = q.enqueue_nd_range_kernel(
                    ks[f"{kname}_r{region}"], (pts,), (128,)
                )
            assert ev is not None
            vel_events.append(ev)
        # Interface halo exchange (velocity values cross the split): each
        # queue pulls the neighbour's outgoing strip into its own ghost
        # cells.  Send and receive sides are distinct buffers, so the two
        # copies never touch the same memory object concurrently.
        halo_events: List[Event] = []
        for region, q in enumerate(self.queues):
            bufs = self._per_queue[region]["bufs"]
            other = vel_events[1 - region]
            halo_events.append(
                q.enqueue_copy_buffer(
                    self._per_queue[1 - region]["bufs"]["halo"],
                    bufs["halo_in"],
                    wait_events=[vel_events[region], other],
                )
            )
        for region, q in enumerate(self.queues):
            ks = self._per_queue[region]["kernels"]
            strips = _STRESS_STRIPS[region]
            # Waiting on *both* copies (in-order queues propagate the edge
            # to the rest of the step) keeps this region's sponge writes to
            # its outgoing strip ordered after the neighbour's copy that
            # still reads it.
            wait: Sequence[Event] = [halo_events[region], halo_events[1 - region]]
            for comp in ("sxx", "szz", "sxz"):
                for s in range(strips):
                    q.enqueue_nd_range_kernel(
                        ks[f"st_{comp}{s}_r{region}"], (pts,), (128,),
                        wait_events=wait,
                    )
                    wait = ()
            for s in range(2):
                q.enqueue_nd_range_kernel(
                    ks[f"st_sponge{s}_r{region}"], (pts,), (128,)
                )
        # Source injection closes the step (region 1).
        self.queues[1].enqueue_nd_range_kernel(
            self._per_queue[1]["kernels"]["vel_source_r1"], (1024,), (64,)
        )

    def finalize(self) -> None:
        if self.functional and self.sim is not None:
            self.checks["energy"] = self.sim.energy()
            self.checks["steps"] = self.sim.step_index
            mono_max = float(np.abs(self.sim.mono.vx).max())
            self.checks["wave_amplitude"] = mono_max
            self.checks["stable"] = bool(np.isfinite(mono_max) and mono_max < 1e6)


def run_seismology(
    layout: str = "column",
    mode: str = "auto",
    devices: Optional[Sequence[str]] = None,
    steps: int = 50,
    functional: bool = False,
    node_spec: Optional[NodeSpec] = None,
    config: Optional[SchedulerConfig] = None,
    profile_dir: Optional[str] = None,
) -> WorkloadRun:
    """Run the two-queue FDM-Seismology driver through
    :func:`~repro.workloads.npb.common.run_npb`."""
    app = FDMSeismologyApp(layout=layout, steps=steps, functional=functional)
    run = run_npb(
        app, mode=mode, devices=devices, node_spec=node_spec, config=config,
        profile_dir=profile_dir,
    )
    app.context.platform.engine.trace.clear()  # no caller can reach it
    return run

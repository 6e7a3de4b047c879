"""FT — 3-D Fast Fourier Transform (I/O-intensive).

NPB FT evolves a PDE in frequency space: per iteration it scales the
spectrum and inverse-transforms it, checksumming scattered elements.  The
SNU-NPB-MD version distributes the grid among the command queues as slabs,
so (a) *the data per queue shrinks as queues grow* — the property behind
Fig. 6's falling profiling overhead — and (b) each iteration performs an
all-to-all transpose staged through host memory, making FT the benchmark
whose profiling overhead is dominated by data transfer (Figs. 6 and 7).

Table II: power-of-two queues (1, 2, 4 — plus 8 for the Fig. 6 sweep);
classes S, W, A only (larger grids exceed the C2050's 3 GB);
``SCHED_EXPLICIT_REGION`` + ``clSetKernelWorkGroupInfo`` (CPU and GPU want
different FFT work-group shapes).

Functional mode (single queue) runs the real frequency-space evolution of
:func:`repro.workloads.npb.numerics.ft_evolve` on a reduced 32³ grid and
records the checksum series.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import math
import numpy as np

from repro.ocl.context import Context
from repro.ocl.enums import SchedFlag
from repro.ocl.kernel import Kernel
from repro.ocl.queue import CommandQueue
from repro.workloads.base import ProblemClass, power_of_two_rule
from repro.workloads.npb import numerics
from repro.workloads.npb.common import NPBApplication, kernel_source, register_benchmark

__all__ = ["FT"]

#: (nx, ny, nz, iterations) per class — NPB 3.3.
_CLASS_PARAMS = {
    ProblemClass.S: (64, 64, 64, 6),
    ProblemClass.W: (128, 128, 32, 6),
    ProblemClass.A: (256, 256, 128, 6),
}

_FUNCTIONAL_SHAPE = (32, 32, 32)
_ALPHA = 1e-6


@register_benchmark
class FT(NPBApplication):
    NAME = "FT"
    QUEUE_RULE = power_of_two_rule((1, 2, 4, 8))
    VALID_CLASSES = tuple(_CLASS_PARAMS)
    TABLE2_FLAGS = SchedFlag.SCHED_EXPLICIT_REGION
    USES_WORKGROUP_INFO = True

    @property
    def shape(self) -> Tuple[int, int, int]:
        nx, ny, nz, _ = _CLASS_PARAMS[self.problem_class]
        return (nx, ny, nz)

    @property
    def default_iterations(self) -> int:
        return _CLASS_PARAMS[self.problem_class][3]

    @property
    def points_per_queue(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz // self.num_queues

    @property
    def slab_bytes(self) -> int:
        """One complex128 array slab per queue."""
        return self.points_per_queue * 16

    def generate_source(self) -> str:
        nx, ny, nz = self.shape
        src = kernel_source(
            "ft_evolve",
            "__global double2* u0, __global double2* u1, "
            "__global double* twiddle, int n",
            {
                "flops_per_item": 8,
                "bytes_per_item": 40,
                "divergence": 0.0,
                "irregularity": 0.10,
                "cpu_eff": 1.0,
                "gpu_eff": 0.30,
                "writes": "1",
            },
            body="/* u1 = u0 * twiddle decay (modelled) */",
        )
        src += kernel_source(
            "ft_fft_xy",
            "__global double2* u, int dir, int n",
            {
                "flops_per_item": round(5 * math.log2(nx * ny), 2),
                "bytes_per_item": 48,
                "divergence": 0.15,
                "irregularity": 0.55,
                "cpu_eff": 1.0,
                "gpu_eff": 0.25,
                "writes": "0",
            },
            body="/* batched 2-D FFT over the local slab (modelled) */",
        )
        src += kernel_source(
            "ft_fft_z",
            "__global double2* u, int dir, int n",
            {
                "flops_per_item": round(5 * math.log2(max(nz, 2)), 2),
                "bytes_per_item": 48,
                "divergence": 0.15,
                "irregularity": 0.55,
                "cpu_eff": 1.0,
                "gpu_eff": 0.25,
                "writes": "0",
            },
            body="/* 1-D FFTs along z after the transpose (modelled) */",
        )
        src += kernel_source(
            "ft_checksum",
            "__global double2* u, __global double2* out, int n",
            {
                "flops_per_item": 4,
                "bytes_per_item": 16,
                "divergence": 0.2,
                "irregularity": 0.6,
                "cpu_eff": 1.0,
                "gpu_eff": 0.30,
                "writes": "1",
            },
            body="/* scattered-element checksum (modelled) */",
        )
        return src

    def setup(self, context: Context, queues: Sequence[CommandQueue]) -> None:
        self._adopt(context, queues)
        n = self.points_per_queue
        functional = self.functional and self.num_queues == 1
        self._functional_active = functional
        for qi, q in enumerate(self.queues):
            if functional:
                rng = np.random.default_rng(42 + qi)
                u0_arr = (
                    rng.standard_normal(_FUNCTIONAL_SHAPE)
                    + 1j * rng.standard_normal(_FUNCTIONAL_SHAPE)
                ).astype(np.complex128)
                u0_hat = np.fft.fftn(u0_arr)
                u1_arr = np.zeros_like(u0_hat)
                cs_arr = np.zeros(2, dtype=np.float64)
            else:
                u0_hat = u1_arr = cs_arr = None
            bufs = {
                "u0": context.create_buffer(
                    self.slab_bytes, host_array=u0_hat, name=f"ft-u0-{qi}"
                ),
                "u1": context.create_buffer(
                    self.slab_bytes, host_array=u1_arr, name=f"ft-u1-{qi}"
                ),
                "twiddle": context.create_buffer(n * 8, name=f"ft-tw-{qi}"),
                "csum": context.create_buffer(
                    16, host_array=cs_arr, name=f"ft-cs-{qi}"
                ),
            }
            # Initial slab distribution: this is the bulk data whose staging
            # dominates FT's profiling overhead.
            q.enqueue_write_buffer(bufs["u0"])
            q.enqueue_write_buffer(bufs["twiddle"])
            u1 = bufs["u1"]
            kernels = {
                "ft_evolve": self._kernel(
                    "ft_evolve", bufs["u0"], u1, bufs["twiddle"], n
                ),
                "ft_fft_xy": self._kernel("ft_fft_xy", u1, -1, n),
                "ft_fft_z": self._kernel("ft_fft_z", u1, -1, n),
                "ft_checksum": self._kernel("ft_checksum", u1, bufs["csum"], n),
            }
            if functional:
                self._attach_functional(kernels)
            self._per_queue.append({
                "bufs": bufs,
                "kernels": kernels,
                "cs_out": np.zeros(2, dtype=np.float64),
            })
        self.finish_all()
        self.checks["checksums"] = []

    def _attach_functional(self, kernels: Dict[str, Kernel]) -> None:
        indexmap = numerics.ft_indexmap(_FUNCTIONAL_SHAPE)
        app = self

        def evolve_host(args: Dict[str, object]) -> None:
            step = app._current_step
            decay = np.exp(-4.0 * _ALPHA * (math.pi ** 2) * indexmap * step)
            args["u1"][...] = args["u0"] * decay

        def checksum_host(args: Dict[str, object]) -> None:
            x = np.fft.ifftn(args["u"])
            nx, ny, nz = x.shape
            csum = 0.0 + 0.0j
            for j in range(1, 1025):
                csum += x[j % nx, (3 * j) % ny, (5 * j) % nz]
            csum /= nx * ny * nz
            args["out"][0] = csum.real
            args["out"][1] = csum.imag

        kernels["ft_evolve"].set_host_function(evolve_host)
        kernels["ft_checksum"].set_host_function(checksum_host)

    _current_step = 1

    def enqueue_iteration(self, it: int) -> None:
        self._current_step = it + 1
        n = self.points_per_queue
        for q, state in zip(self.queues, self._per_queue):
            q.enqueue_nd_range_kernel(state["kernels"]["ft_evolve"], (n,), (128,))
            q.enqueue_nd_range_kernel(state["kernels"]["ft_fft_xy"], (n,), (128,))
        # All-to-all transpose: each queue exchanges (Q-1)/Q of its slab
        # with the others, staged through host memory.
        frac = (self.num_queues - 1) / self.num_queues
        self._exchange("u1", int(self.slab_bytes * frac))
        for q, state in zip(self.queues, self._per_queue):
            ks = state["kernels"]
            q.enqueue_nd_range_kernel(ks["ft_fft_z"], (n,), (128,))
            q.enqueue_nd_range_kernel(ks["ft_checksum"], (1024,), (64,))
            q.enqueue_read_buffer(state["bufs"]["csum"], state["cs_out"])

    def apply_workgroup_info(self) -> None:
        """Device-specific FFT launch shapes via clSetKernelWorkGroupInfo."""
        self._device_shapes(("ft_fft_xy", "ft_fft_z"), self.points_per_queue)

    def finalize(self) -> None:
        self.finish_all()
        if self._functional_active:
            st = self._per_queue[0]
            self.checks["checksum"] = complex(st["cs_out"][0], st["cs_out"][1])
            # Reference: same evolution computed directly.
            rng = np.random.default_rng(42)
            u0 = (
                rng.standard_normal(_FUNCTIONAL_SHAPE)
                + 1j * rng.standard_normal(_FUNCTIONAL_SHAPE)
            ).astype(np.complex128)
            indexmap = numerics.ft_indexmap(_FUNCTIONAL_SHAPE)
            _, ref = numerics.ft_evolve(
                np.fft.fftn(u0), indexmap, _ALPHA, self.iterations
            )
            self.checks["checksum_ref"] = ref

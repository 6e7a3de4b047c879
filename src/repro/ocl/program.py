"""cl_program objects.

Programs are created from (toy) OpenCL-C source per context and built before
kernels can be created.  Building parses kernel signatures and annotations
and charges a small amount of simulated host time.  When the owning context
has an automatic scheduler attached, the build also invokes the scheduler's
static kernel-transformation hook — this is where MultiCL creates minikernel
variants by intercepting ``clCreateProgramWithSource``/``clBuildProgram``
(paper Section V.C.2), doubling the build time as an initial setup cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.ocl.errors import BuildProgramFailure, InvalidKernel, InvalidProgram
from repro.ocl.kernel import Kernel
from repro.ocl.source import KernelSourceInfo, parse_program_source

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context

__all__ = ["Program"]

#: Simulated compiler throughput: seconds per source character, plus a fixed
#: front-end cost.  Only matters for experiments that time program setup.
_BUILD_BASE_S = 5e-3
_BUILD_PER_CHAR_S = 2e-7


class Program:
    """A program object holding source and (after build) kernel metadata."""

    def __init__(self, context: "Context", source: str) -> None:
        if not source or "__kernel" not in source:
            raise InvalidProgram("program source contains no __kernel functions")
        self.context = context
        self.source = source
        self.built = False
        self.kernel_infos: Dict[str, KernelSourceInfo] = {}
        #: Populated by the MultiCL build hook: transformed minikernel source
        #: (the paper builds the minikernels into a separate binary).
        self.minikernel_source: Optional[str] = None
        self.minikernel_infos: Dict[str, KernelSourceInfo] = {}

    def build(self) -> "Program":
        """clBuildProgram: parse the source, run scheduler build hooks."""
        if self.built:
            return self
        infos = parse_program_source(self.source)
        if not infos:
            raise BuildProgramFailure("no kernels found in program source")
        self.kernel_infos = {k.name: k for k in infos}
        build_time = _BUILD_BASE_S + _BUILD_PER_CHAR_S * len(self.source)
        scheduler = self.context.scheduler
        if scheduler is not None:
            # Static kernel transformations (e.g. minikernel creation) happen
            # here; the extra binary doubles the build time (Section V.C.2).
            scheduler.on_program_build(self)
            if self.minikernel_source is not None:
                build_time *= 2.0
        self.context.platform.engine.elapse(
            build_time, category="build", name=f"build-program"
        )
        self.built = True
        return self

    def create_kernel(self, name: str) -> Kernel:
        """clCreateKernel."""
        if not self.built:
            raise InvalidProgram("program must be built before creating kernels")
        info = self.kernel_infos.get(name)
        if info is None:
            raise InvalidKernel(
                f"no kernel {name!r} in program; available: "
                f"{sorted(self.kernel_infos)}"
            )
        return Kernel(self, info)

    def kernel_names(self) -> List[str]:
        if not self.built:
            raise InvalidProgram("program must be built first")
        return sorted(self.kernel_infos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "built" if self.built else "unbuilt"
        return f"Program({state}, kernels={sorted(self.kernel_infos) or '?'})"

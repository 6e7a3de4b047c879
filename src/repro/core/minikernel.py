"""Minikernel source-to-source transformation (paper Section V.C.2, Fig. 2).

To estimate a kernel's *relative* performance across devices it suffices to
run a single workgroup — provided the kernel's own work-distribution logic
cannot reinflate the cost.  MultiCL therefore rewrites the kernel source,
inserting a guard that lets only workgroup (0,0,0) execute the body and
forces every other workgroup to return immediately::

    __kernel void foo(...) {
        /* MultiCL inserts the below transformation code
           to run only the first workgroup (minikernel) */
        if(get_group_id(0)+get_group_id(1)+get_group_id(2)!=0)
            return;
        /* ... actual kernel code ... */
    }

The minikernel is profiled with the *same* launch configuration as the
original kernel, so the per-workgroup share of work is faithful.  The
transformation happens at ``clCreateProgramWithSource``/``clBuildProgram``
time for every kernel in the program; building the extra binary doubles the
build time (an initial setup cost), and requires access to the kernel
source — both noted in the paper.
"""

from __future__ import annotations

from repro.ocl.source import insert_after_body_open, parse_program_source

__all__ = ["MINIKERNEL_GUARD", "make_minikernel_source"]

#: The exact guard of the paper's Fig. 2.
MINIKERNEL_GUARD = (
    "\n  /* MultiCL inserts the below transformation code"
    "\n     to run only the first workgroup (minikernel) */"
    "\n  if(get_group_id(0)+get_group_id(1)+get_group_id(2)!=0)"
    "\n    return;\n"
)


def make_minikernel_source(source: str) -> str:
    """Return ``source`` with the minikernel guard in every kernel.

    Kernels are transformed back-to-front so earlier insertion offsets stay
    valid.  Idempotence: a source that already carries the guard directly
    after a kernel's opening brace is left untouched.
    """
    infos = parse_program_source(source)
    out = source
    for info in sorted(infos, key=lambda k: k.body_open, reverse=True):
        after = out[info.body_open : info.body_open + len(MINIKERNEL_GUARD)]
        if after == MINIKERNEL_GUARD:
            continue
        out = insert_after_body_open(out, info, MINIKERNEL_GUARD)
    return out


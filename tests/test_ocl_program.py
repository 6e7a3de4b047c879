"""Program build lifecycle and the minikernel build hook."""

import pytest

from repro.core.minikernel import MINIKERNEL_GUARD
from repro.ocl.errors import InvalidKernel, InvalidProgram
from repro.ocl.enums import ContextProperty, ContextScheduler
from repro.ocl.source import parse_program_source

SRC = """
// @multicl flops_per_item=10 bytes_per_item=8
__kernel void one(__global float* a, int n) { }
// @multicl flops_per_item=20 bytes_per_item=8
__kernel void two(__global float* a, int n) { }
"""


def test_build_parses_kernels(manual_context):
    p = manual_context.create_program(SRC).build()
    assert p.kernel_names() == ["one", "two"]


def test_build_idempotent(manual_context):
    p = manual_context.create_program(SRC)
    assert p.build() is p.build()


def test_create_kernel_before_build_rejected(manual_context):
    p = manual_context.create_program(SRC)
    with pytest.raises(InvalidProgram):
        p.create_kernel("one")
    with pytest.raises(InvalidProgram):
        p.kernel_names()


def test_unknown_kernel_rejected(manual_context):
    p = manual_context.create_program(SRC).build()
    with pytest.raises(InvalidKernel):
        p.create_kernel("three")


def test_source_without_kernels_rejected(manual_context):
    with pytest.raises(InvalidProgram):
        manual_context.create_program("int main() { return 0; }")
    with pytest.raises(InvalidProgram):
        manual_context.create_program("")


def test_build_charges_simulated_time(manual_context):
    engine = manual_context.platform.engine
    t0 = engine.now
    manual_context.create_program(SRC).build()
    assert engine.now > t0


def test_manual_context_builds_no_minikernels(manual_context):
    p = manual_context.create_program(SRC).build()
    assert p.minikernel_source is None


def test_scheduler_context_builds_minikernels(profile_dir):
    from repro.ocl.platform import Platform

    platform = Platform(profile=True, profile_dir=profile_dir)
    ctx = platform.create_context(
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    )
    p = ctx.create_program(SRC).build()
    assert p.minikernel_source is not None
    assert p.minikernel_source.count(MINIKERNEL_GUARD) == 2
    assert {k.name for k in parse_program_source(p.minikernel_source)} == {
        "one", "two",
    }


def test_minikernel_build_doubles_build_time(profile_dir):
    from repro.ocl.platform import Platform

    plain = Platform(profile=False)
    t0 = plain.engine.now
    plain.create_context().create_program(SRC).build()
    plain_build = plain.engine.now - t0

    sched = Platform(profile=True, profile_dir=profile_dir)
    ctx = sched.create_context(
        properties={ContextProperty.CL_CONTEXT_SCHEDULER: ContextScheduler.AUTO_FIT}
    )
    t0 = sched.engine.now
    ctx.create_program(SRC).build()
    sched_build = sched.engine.now - t0
    assert sched_build == pytest.approx(2 * plain_build, rel=0.01)

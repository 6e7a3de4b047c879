"""Minikernel source-to-source transformation (paper Fig. 2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.minikernel import MINIKERNEL_GUARD, make_minikernel_source
from repro.ocl.source import parse_program_source

SRC = """
// @multicl flops_per_item=10 bytes_per_item=4 writes=0
__kernel void foo(__global float* a, int n) {
  a[get_global_id(0)] = n;
}
// @multicl flops_per_item=20 bytes_per_item=8
__kernel void bar(__global float* b, __global float* c, int n) {
  c[0] = b[0];
}
"""


def test_guard_matches_paper_figure2():
    assert "get_group_id(0)+get_group_id(1)+get_group_id(2)!=0" in MINIKERNEL_GUARD
    assert "return;" in MINIKERNEL_GUARD
    assert "minikernel" in MINIKERNEL_GUARD


def test_every_kernel_gets_the_guard():
    out = make_minikernel_source(SRC)
    assert out.count(MINIKERNEL_GUARD) == 2


def test_guard_inserted_directly_after_body_open():
    out = make_minikernel_source(SRC)
    for info in parse_program_source(out):
        assert out[info.body_open : info.body_open + len(MINIKERNEL_GUARD)] == (
            MINIKERNEL_GUARD
        )


def test_transformation_idempotent():
    once = make_minikernel_source(SRC)
    twice = make_minikernel_source(once)
    assert once == twice


def test_transformed_source_still_parses_with_same_signatures():
    infos = {k.name: k for k in parse_program_source(make_minikernel_source(SRC))}
    originals = {k.name: k for k in parse_program_source(SRC)}
    assert set(infos) == set(originals)
    for name, info in infos.items():
        assert info.args == originals[name].args
        assert info.annotations == originals[name].annotations
        assert info.writes == originals[name].writes


def test_original_body_preserved():
    out = make_minikernel_source(SRC)
    assert "a[get_global_id(0)] = n;" in out
    assert "c[0] = b[0];" in out


def test_original_source_unchanged_prefix():
    out = make_minikernel_source(SRC)
    first = SRC.index("{") + 1
    assert out[:first] == SRC[:first]


@given(
    n_kernels=st.integers(min_value=1, max_value=8),
    depth=st.integers(min_value=0, max_value=3),
)
def test_transform_arbitrary_programs(n_kernels, depth):
    nested = "if (x) { y(); } " * depth
    src = "".join(
        f"__kernel void k{i}(__global float* a, int n) {{ {nested}work(); }}\n"
        for i in range(n_kernels)
    )
    out = make_minikernel_source(src)
    assert out.count(MINIKERNEL_GUARD) == n_kernels
    # Idempotent for every generated program.
    assert make_minikernel_source(out) == out
    # All kernels still parse.
    assert len(parse_program_source(out)) == n_kernels

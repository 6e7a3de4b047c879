"""Toy OpenCL-C source parsing and manipulation."""

import pytest
from hypothesis import given, strategies as st

from repro.ocl.errors import BuildProgramFailure
from repro.ocl.source import (
    KernelArg,
    insert_after_body_open,
    parse_program_source,
)

SRC = """
// a stray comment
// @multicl flops_per_item=12.5 bytes_per_item=48 divergence=0.3 writes=1
__kernel void alpha(__global float* in, __global float* out, int n) {
  out[get_global_id(0)] = in[get_global_id(0)];
}

/* block comment */
// @multicl flops_per_item=7 gpu_eff=0.2
__kernel void beta(__global double* a, __local float* scratch, float s) {
  a[0] = s;
}

__kernel void gamma(__global int* flags) { flags[0] = 1; }
"""


def test_finds_all_kernels():
    infos = parse_program_source(SRC)
    assert [k.name for k in infos] == ["alpha", "beta", "gamma"]


def test_arg_parsing_kinds():
    infos = {k.name: k for k in parse_program_source(SRC)}
    alpha = infos["alpha"]
    assert [a.name for a in alpha.args] == ["in", "out", "n"]
    assert [a.is_buffer for a in alpha.args] == [True, True, False]
    beta = infos["beta"]
    # __local pointers are not context buffers.
    assert [a.is_buffer for a in beta.args] == [True, False, False]


def test_annotations_parsed_as_floats():
    infos = {k.name: k for k in parse_program_source(SRC)}
    assert infos["alpha"].annotations["flops_per_item"] == pytest.approx(12.5)
    assert infos["beta"].annotations["gpu_eff"] == pytest.approx(0.2)
    assert infos["gamma"].annotations == {}


def test_writes_annotation():
    infos = {k.name: k for k in parse_program_source(SRC)}
    assert infos["alpha"].writes == (1,)
    assert infos["beta"].writes == ()


def test_buffer_arg_indices():
    infos = {k.name: k for k in parse_program_source(SRC)}
    args = infos["alpha"].args
    assert tuple(i for i, a in enumerate(args) if a.is_buffer) == (0, 1)


def test_body_open_points_past_brace():
    infos = parse_program_source(SRC)
    for info in infos:
        assert SRC[info.body_open - 1] == "{"


def test_insert_after_body_open():
    infos = parse_program_source(SRC)
    gamma = next(k for k in infos if k.name == "gamma")
    out = insert_after_body_open(SRC, gamma, "/*X*/")
    assert "__kernel void gamma(__global int* flags) {/*X*/" in out


def test_duplicate_kernel_names_rejected():
    dup = "__kernel void k(int a) {}\n__kernel void k(int b) {}"
    with pytest.raises(BuildProgramFailure):
        parse_program_source(dup)


def test_writes_out_of_range_rejected():
    bad = "// @multicl writes=5\n__kernel void k(__global float* a) { }"
    with pytest.raises(BuildProgramFailure):
        parse_program_source(bad)


def test_bad_annotation_value_rejected():
    bad = "// @multicl flops_per_item=lots\n__kernel void k(int a) { }"
    with pytest.raises(BuildProgramFailure):
        parse_program_source(bad)


def test_unbalanced_signature_rejected():
    with pytest.raises(BuildProgramFailure):
        parse_program_source("__kernel void k(int a { }")


def test_missing_body_rejected():
    with pytest.raises(BuildProgramFailure):
        parse_program_source("__kernel void k(int a);")


def test_multiline_annotations_accumulate():
    src = (
        "// @multicl flops_per_item=1\n"
        "// @multicl bytes_per_item=2\n"
        "__kernel void k(int a) { }"
    )
    info = parse_program_source(src)[0]
    assert info.annotations == {"flops_per_item": 1.0, "bytes_per_item": 2.0}


def test_kernel_arg_parse_rejects_empty():
    with pytest.raises(BuildProgramFailure):
        KernelArg.parse("   ")


def test_args_with_nested_parens():
    src = "__kernel void k(__global float* a, int b) { foo(a, (b, 1)); }"
    info = parse_program_source(src)[0]
    assert len(info.args) == 2


@given(
    names=st.lists(
        st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
def test_roundtrip_many_kernels(names):
    src = "".join(
        f"// @multicl flops_per_item={i + 1}\n"
        f"__kernel void {n}(__global float* buf, int n{i}) {{ body(); }}\n"
        for i, n in enumerate(names)
    )
    infos = parse_program_source(src)
    assert [k.name for k in infos] == names
    for i, info in enumerate(infos):
        assert info.annotations["flops_per_item"] == pytest.approx(i + 1)
        assert info.args[0].is_buffer and not info.args[1].is_buffer

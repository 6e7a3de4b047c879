"""Static kernel feature extraction — deterministic and purely text-based.

Features are extracted from the *parsed source* of a kernel
(:func:`repro.ocl.source.parse_program_source`) with no execution, no
profiling, and no randomness: the same source text always yields the same
:class:`KernelFeatures`, and formatting-only edits (whitespace, comment
text) never change them.

Two ingredient classes feed the vector:

* **Signature/body counts** — arithmetic operations by type, global/local
  memory accesses per work-item, branch density, loop-nest depth, barrier
  count, and argument byte traffic, all counted from the comment-stripped
  body text and the argument declarations.  These are the
  architecture-independent features of Johnston et al. (AIWC) restricted
  to what a lexical pass can see.
* **Cost annotations** — this reproduction's kernels describe their
  modelled intensity in ``// @multicl`` comments (the stand-in for the
  arithmetic a real kernel body would contain; most bodies here are
  modelled stubs).  When present they give exact per-item flop/byte
  counts; when absent, the body counts above are folded into conservative
  estimates.  Either way the result is a pure function of the source text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Pattern, Tuple

from repro.ocl.source import KernelSourceInfo, parse_program_source

__all__ = [
    "KernelFeatures",
    "extract",
    "extract_program",
    "strip_comments",
    "kernel_body",
]

_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")

#: OpenCL-C scalar element sizes in bytes (vector widths are handled by the
#: ``typeN`` suffix below); unknown types default to 4.
_ELEMENT_SIZES = {
    "double": 8,
    "long": 8,
    "ulong": 8,
    "float": 4,
    "int": 4,
    "uint": 4,
    "half": 2,
    "short": 2,
    "ushort": 2,
    "char": 1,
    "uchar": 1,
}
_FLOAT_TYPES = ("float", "double", "half")
_TYPE_RE = re.compile(
    r"\b(" + "|".join(_ELEMENT_SIZES) + r")(\d*)\b"
)

_TRANSCENDENTAL_RE = re.compile(
    r"\b(?:exp|exp2|log|log2|sqrt|rsqrt|sin|cos|tan|tanh|pow|fabs|fma|mad)"
    r"\s*\("
)
_BRANCH_RE = re.compile(r"\b(?:if|switch)\s*\(|\?")
_LOOP_RE = re.compile(r"\b(?:for|while|do)\b")
_BARRIER_RE = re.compile(r"\bbarrier\s*\(")
_FLOAT_LITERAL_RE = re.compile(r"\d\.\d|\.\d|\b\d+(?:\.\d*)?f\b")
# Arithmetic operators; excludes comparison/pointer digraphs via lookaround.
_ARITH_RE = re.compile(r"[+\-*/](?!=)|[+\-*/]=")

#: efficiency annotation key -> DeviceKind value
_EFF_KEYS = {"cpu_eff": "cpu", "gpu_eff": "gpu", "accel_eff": "accelerator"}

#: weight of a transcendental call when estimating flops from body text
_TRANSCENDENTAL_FLOPS = 4.0


@dataclass(frozen=True)
class KernelFeatures:
    """Deterministic static features of one kernel.

    Count fields are per single work-item execution of the body text (loop
    trip counts are not statically knowable, so ``loop_nest_depth`` is
    exposed as its own feature rather than multiplied in).
    """

    name: str
    # -- body instruction mix -------------------------------------------
    float_ops: int = 0
    int_ops: int = 0
    transcendental_ops: int = 0
    # -- memory behaviour -----------------------------------------------
    global_accesses: int = 0
    global_writes: int = 0
    indirect_accesses: int = 0
    local_accesses: int = 0
    # -- control flow ----------------------------------------------------
    statements: int = 0
    branch_count: int = 0
    loop_nest_depth: int = 0
    barrier_count: int = 0
    # -- signature -------------------------------------------------------
    buffer_args: int = 0
    scalar_args: int = 0
    #: per-work-item byte traffic implied by the argument list: one element
    #: of each buffer argument per counted access (or per buffer when the
    #: body is a stub), plus the scalar arguments themselves.
    arg_bytes: float = 0.0
    # -- resolved cost descriptor (annotation-first, body-count fallback) -
    flops_per_item: float = 0.0
    bytes_per_item: float = 0.0
    divergence: float = 0.0
    irregularity: float = 0.0
    #: DeviceKind value -> relative efficiency, sorted by kind
    efficiency: Tuple[Tuple[str, float], ...] = ()

    @property
    def branch_density(self) -> float:
        """Branches per statement — the divergence proxy."""
        return self.branch_count / max(self.statements, 1)

    def eff_for(self, kind_value: str) -> float:
        for kind, eff in self.efficiency:
            if kind == kind_value:
                return eff
        return 1.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            f: getattr(self, f) for f in self.__dataclass_fields__
        }
        out["efficiency"] = [list(pair) for pair in self.efficiency]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "KernelFeatures":
        kwargs = dict(data)
        kwargs["efficiency"] = tuple(
            (str(kind), float(eff)) for kind, eff in kwargs.get("efficiency", [])
        )
        return cls(**kwargs)  # type: ignore[arg-type]


def strip_comments(text: str) -> str:
    """Remove block and line comments (the toy language has no strings)."""
    return _LINE_COMMENT_RE.sub(" ", _BLOCK_COMMENT_RE.sub(" ", text))


def kernel_body(source: str, info: KernelSourceInfo) -> str:
    """The text between a kernel's opening ``{`` and its matching ``}``."""
    depth = 1
    i = info.body_open
    while i < len(source):
        ch = source[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return source[info.body_open : i]
        i += 1
    return source[info.body_open :]


def _max_brace_depth(body: str) -> int:
    depth = 0
    deepest = 0
    for ch in body:
        if ch == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "}":
            depth = max(depth - 1, 0)
    return deepest


def _element_size(declaration: str) -> int:
    """Bytes per element implied by a declaration like ``__global float4*``."""
    m = _TYPE_RE.search(declaration)
    if not m:
        return 4
    width = int(m.group(2)) if m.group(2) else 1
    return _ELEMENT_SIZES[m.group(1)] * max(width, 1)


def _is_float_declaration(declaration: str) -> bool:
    m = _TYPE_RE.search(declaration)
    return bool(m and m.group(1) in _FLOAT_TYPES)


@lru_cache(maxsize=1024)
def _arg_patterns(
    name: str, buffer_names: Tuple[str, ...]
) -> Tuple[Pattern, Pattern, Pattern, Pattern]:
    """The access, write, indirect and use patterns of buffer argument
    ``name`` in a kernel whose buffer arguments are ``buffer_names``
    (sorted, so neither the key nor the pattern depends on set order).

    Access: each ``name[`` is one per-work-item access.  Write: an access
    followed by an assignment.  Indirect: an index expression that itself
    subscripts a buffer (``a[colidx[j]]``), a gather.  Use: any mention.
    """
    arg = re.escape(name)
    return (
        re.compile(r"\b%s\s*\[" % arg),
        re.compile(r"\b%s\s*\[[^][]*\]\s*(?:[+\-*/]?=)(?!=)" % arg),
        re.compile(
            r"\b%s\s*\[[^][]*\b(?:%s)\s*\["
            % (arg, "|".join(map(re.escape, buffer_names)))
        ),
        re.compile(r"\b%s\b" % arg),
    )


def extract(info: KernelSourceInfo, source: str) -> KernelFeatures:
    """Extract :class:`KernelFeatures` for one parsed kernel."""
    body = strip_comments(kernel_body(source, info))
    statements = max(body.count(";"), 0)

    buffer_args = [a for a in info.args if a.is_buffer]
    scalar_args = [a for a in info.args if not a.is_buffer]

    # Global memory accesses, writes and gathers (see _arg_patterns).
    global_accesses = 0
    global_writes = 0
    indirect_accesses = 0
    access_bytes = 0.0
    buffer_names = tuple(sorted({a.name for a in buffer_args}))
    float_uses = []
    for arg in buffer_args:
        access_re, write_re, indirect_re, use_re = _arg_patterns(
            arg.name, buffer_names
        )
        count = len(access_re.findall(body))
        global_accesses += count
        global_writes += len(write_re.findall(body))
        indirect_accesses += len(indirect_re.findall(body))
        access_bytes += count * _element_size(arg.declaration)
        if _is_float_declaration(arg.declaration):
            float_uses.append(use_re)

    # Arithmetic mix: classify each statement's operators as float or int
    # by whether the statement touches a float buffer/literal.
    float_ops = 0
    int_ops = 0
    for stmt in body.split(";"):
        ops = len(_ARITH_RE.findall(stmt))
        if ops == 0:
            continue
        is_float = bool(_FLOAT_LITERAL_RE.search(stmt)) or any(
            use_re.search(stmt) for use_re in float_uses
        )
        if is_float:
            float_ops += ops
        else:
            int_ops += ops
    transcendental_ops = len(_TRANSCENDENTAL_RE.findall(body))

    branch_count = len(_BRANCH_RE.findall(body))
    loop_nest_depth = min(len(_LOOP_RE.findall(body)), _max_brace_depth(body))
    barrier_count = len(_BARRIER_RE.findall(body))
    local_accesses = body.count("__local")

    # Argument byte traffic: counted accesses when the body has any, else
    # one element per buffer (the body is a modelled stub); scalars ride
    # along by value either way.
    scalar_bytes = float(sum(_element_size(a.declaration) for a in scalar_args))
    if access_bytes == 0.0:
        access_bytes = float(
            sum(_element_size(a.declaration) for a in buffer_args)
        )
    arg_bytes = access_bytes + scalar_bytes

    annots = info.annotations
    flops_per_item = annots.get("flops_per_item")
    if flops_per_item is None:
        flops_per_item = (
            float_ops + int_ops + _TRANSCENDENTAL_FLOPS * transcendental_ops
        )
    bytes_per_item = annots.get("bytes_per_item")
    if bytes_per_item is None:
        bytes_per_item = access_bytes
    divergence = annots.get("divergence")
    if divergence is None:
        divergence = min(1.0, 0.5 * branch_count / max(statements, 1))
    irregularity = annots.get("irregularity")
    if irregularity is None:
        irregularity = (
            indirect_accesses / global_accesses if global_accesses else 0.0
        )
    efficiency = tuple(
        sorted(
            (kind, float(annots[key]))
            for key, kind in _EFF_KEYS.items()
            if key in annots
        )
    )

    return KernelFeatures(
        name=info.name,
        float_ops=float_ops,
        int_ops=int_ops,
        transcendental_ops=transcendental_ops,
        global_accesses=global_accesses,
        global_writes=global_writes,
        indirect_accesses=indirect_accesses,
        local_accesses=local_accesses,
        statements=statements,
        branch_count=branch_count,
        loop_nest_depth=loop_nest_depth,
        barrier_count=barrier_count,
        buffer_args=len(buffer_args),
        scalar_args=len(scalar_args),
        arg_bytes=arg_bytes,
        flops_per_item=float(flops_per_item),
        bytes_per_item=float(bytes_per_item),
        divergence=float(divergence),
        irregularity=float(irregularity),
        efficiency=efficiency,
    )


def extract_program(source: str) -> Dict[str, KernelFeatures]:
    """Extract features for every kernel in a program source string."""
    return {
        info.name: extract(info, source)
        for info in parse_program_source(source)
    }

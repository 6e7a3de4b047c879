"""Toy OpenCL-C source handling.

Workload kernels in this reproduction are written as real OpenCL-C-looking
source strings.  We do not compile them (there is no device compiler here);
instead this module parses the pieces the runtime needs:

* kernel signatures — names and argument kinds (buffer vs scalar), used for
  argument validation and residency bookkeeping;
* ``// @multicl`` annotation comments — a per-kernel cost descriptor
  (flops/bytes per work item, divergence, irregularity, per-device-kind
  efficiency) from which default :class:`~repro.hardware.cost.KernelCost`
  models are built;
* body spans — so the minikernel transformation
  (:mod:`repro.core.minikernel`) can do the paper's Fig. 2 source-to-source
  rewrite on the *actual text*.

Annotation syntax, one line directly above the kernel::

    // @multicl flops_per_item=120 bytes_per_item=48 divergence=0.2 \
    //          irregularity=0.1 cpu_eff=0.9 gpu_eff=0.08 writes=1

``writes`` lists the indices of arguments the kernel writes (for residency
invalidation); all other keys are floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.lru import BoundedLRU
from repro.ocl.errors import BuildProgramFailure

__all__ = [
    "KernelArg",
    "KernelSourceInfo",
    "parse_program_source",
    "find_body_open",
    "insert_after_body_open",
]

_KERNEL_RE = re.compile(r"__kernel\s+void\s+(?P<name>\w+)\s*\(", re.MULTILINE)
_ANNOT_RE = re.compile(r"//\s*@multicl\b(?P<body>[^\n]*)")
_KV_RE = re.compile(r"(\w+)\s*=\s*([^\s]+)")


@dataclass(frozen=True)
class KernelArg:
    """One kernel parameter."""

    name: str
    declaration: str
    is_buffer: bool

    @staticmethod
    def parse(decl: str) -> "KernelArg":
        decl = decl.strip()
        if not decl:
            raise BuildProgramFailure("empty kernel argument declaration")
        # Argument name = last identifier in the declaration.
        m = re.search(r"(\w+)\s*$", decl)
        if not m:
            raise BuildProgramFailure(f"cannot parse kernel argument {decl!r}")
        is_buffer = "*" in decl and ("__global" in decl or "__constant" in decl)
        return KernelArg(name=m.group(1), declaration=decl, is_buffer=is_buffer)


@dataclass(frozen=True)
class KernelSourceInfo:
    """Parsed facts about one ``__kernel`` function."""

    name: str
    args: Tuple[KernelArg, ...]
    annotations: Dict[str, float] = field(default_factory=dict)
    #: indices of arguments the kernel writes (from the ``writes=`` key);
    #: empty tuple means "treat every buffer argument as read-write".
    writes: Tuple[int, ...] = ()
    #: character offset in the program source where the kernel keyword starts
    start: int = 0
    #: character offset just past the kernel's opening ``{``
    body_open: int = 0


def _split_args(argtext: str) -> List[str]:
    """Split an argument list on top-level commas."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in argtext:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in (part.strip() for part in parts) if p]


def _matching_paren(src: str, open_idx: int) -> int:
    """Index of the ``)`` matching the ``(`` at ``open_idx``."""
    depth = 0
    for i in range(open_idx, len(src)):
        if src[i] == "(":
            depth += 1
        elif src[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise BuildProgramFailure("unbalanced parentheses in kernel signature")


def find_body_open(src: str, sig_end: int) -> int:
    """Offset just past the ``{`` that opens the kernel body."""
    i = src.find("{", sig_end)
    if i < 0:
        raise BuildProgramFailure("kernel signature without body")
    return i + 1


def _annotations_before(src: str, kernel_start: int) -> Dict[str, str]:
    """Collect ``@multicl`` key=value pairs from comment lines directly
    preceding the kernel definition (blank lines allowed between)."""
    out: Dict[str, str] = {}
    lines = src[:kernel_start].splitlines()
    idx = len(lines) - 1
    # Skip trailing blank/partial line fragments.
    while idx >= 0 and not lines[idx].strip():
        idx -= 1
    while idx >= 0:
        line = lines[idx].strip()
        m = _ANNOT_RE.search(line)
        if m:
            for k, v in _KV_RE.findall(m.group("body")):
                out.setdefault(k, v)
            idx -= 1
            continue
        if line.startswith("//"):
            idx -= 1
            continue
        break
    return out


#: source string -> parsed kernel infos; program sources are interned by
#: construction (benchmark loops and multi-runtime apps rebuild the same
#: literal), so a small memo removes the regex walk from the hot path.
#: Bounded LRU: a hit refreshes recency, an insert past the bound evicts
#: only the least recently used source (the seed cleared the whole memo,
#: evicting hot program sources mid-run).
_parse_memo: BoundedLRU = BoundedLRU(64)


def parse_program_source(src: str) -> List[KernelSourceInfo]:
    """Parse every ``__kernel`` function in a program source string."""
    cached = _parse_memo.get(src)
    if cached is not None:
        return list(cached)
    infos = _parse_program_source_uncached(src)
    _parse_memo.put(src, tuple(infos))
    return infos


def _parse_program_source_uncached(src: str) -> List[KernelSourceInfo]:
    infos: List[KernelSourceInfo] = []
    for m in _KERNEL_RE.finditer(src):
        open_paren = src.index("(", m.end() - 1)
        close_paren = _matching_paren(src, open_paren)
        argtext = src[open_paren + 1 : close_paren]
        args = tuple(KernelArg.parse(a) for a in _split_args(argtext))
        raw = _annotations_before(src, m.start())
        writes: Tuple[int, ...] = ()
        annots: Dict[str, float] = {}
        for k, v in raw.items():
            if k == "writes":
                try:
                    writes = tuple(int(x) for x in v.split(",") if x != "")
                except ValueError:
                    raise BuildProgramFailure(
                        f"kernel {m.group('name')!r}: bad writes= annotation {v!r}"
                    )
            else:
                try:
                    annots[k] = float(v)
                except ValueError:
                    raise BuildProgramFailure(
                        f"kernel {m.group('name')!r}: annotation {k}={v!r} is not numeric"
                    )
        for w in writes:
            if w < 0 or w >= len(args):
                raise BuildProgramFailure(
                    f"kernel {m.group('name')!r}: writes index {w} out of range"
                )
        infos.append(
            KernelSourceInfo(
                name=m.group("name"),
                args=args,
                annotations=annots,
                writes=writes,
                start=m.start(),
                body_open=find_body_open(src, close_paren),
            )
        )
    names = [k.name for k in infos]
    if len(set(names)) != len(names):
        raise BuildProgramFailure(f"duplicate kernel names in program: {names}")
    return infos


def insert_after_body_open(src: str, info: KernelSourceInfo, text: str) -> str:
    """Return ``src`` with ``text`` inserted right after the kernel's ``{``.

    Used by the minikernel transformation to inject the workgroup-0 guard of
    the paper's Fig. 2.
    """
    return src[: info.body_open] + text + src[info.body_open :]

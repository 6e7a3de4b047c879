"""Multi-device NDRange partitioning (``SCHED_SPLIT``).

The paper's mapper assigns whole queues to whole devices; EngineCL and
PySchedCL (PAPERS.md) show the next step — splitting one kernel's NDRange
across several devices proportionally to their measured rates.  This module
computes that partition.  Dimension 0 of the global size is divided into
contiguous per-device sub-ranges:

* shares are proportional to ``1 / seconds`` from the epoch profile (a
  device that runs the epoch twice as fast receives twice the work items);
* each share is rounded down to a multiple of the device's *effective*
  workgroup size along dimension 0 (per-device ``clSetKernelWorkGroupInfo``
  overrides included), so no workgroup straddles a device boundary;
* rounding remainders go to the fastest device;
* devices whose share rounds to zero drop out; if fewer than two devices
  survive, the kernel is not worth splitting and ``None`` is returned
  (the caller falls back to the ordinary single-device mapping).

This module owns the split format: :func:`plan_split` returns one
:class:`SplitShare` per device, built once with every constant its
launches reuse.  The issue-time mechanics (slice transfers, sub-kernels,
gathers, the merging join) live in
:meth:`repro.ocl.queue.CommandQueue._issue_split_kernel`.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.kernel import Kernel, WorkGroupConfig

__all__ = ["SplitShare", "plan_split"]


class SplitShare(NamedTuple):
    """One device's non-empty sub-range ``[lo, hi)`` of dimension 0, with
    the constants every launch of it reuses."""

    device: str
    lo: int
    hi: int
    #: the sub-range launch configuration (:meth:`Kernel.sub_range_config`)
    config: "WorkGroupConfig"
    #: ``"lo:hi"``, the share's ``split`` meta value and name suffix
    tag: str
    #: the sub-kernel task name, ``kernel[lo:hi]``
    name: str
    #: the launch's dimension-0 size
    total: int

    def slice_bytes(self, nbytes: int) -> int:
        """Bytes of a buffer's slice for this share:
        ``ceil(nbytes * (hi - lo) / total)``, capped at the whole buffer."""
        return min(nbytes, -(-nbytes * (self.hi - self.lo) // self.total))


def plan_split(
    kernel: "Kernel",
    launch: "WorkGroupConfig",
    devices: Sequence[str],
    seconds: Dict[str, float],
) -> Optional[Tuple[SplitShare, ...]]:
    """Partition ``launch`` across ``devices`` proportionally to rate:
    contiguous shares covering ``[0, global_size[0])``, in device order.

    ``seconds`` maps device name -> profiled (or predicted) epoch seconds;
    non-finite / non-positive entries and devices missing from the mapping
    are excluded.  Returns ``None`` when splitting is not applicable: fewer
    than two usable devices, or a global size too small for more than one
    workgroup-aligned share.
    """
    total = launch.global_size[0]
    if total <= 0:
        return None
    rates = {
        d: 1.0 / seconds[d]
        for d in devices
        if d in seconds and math.isfinite(seconds[d]) and seconds[d] > 0
    }
    usable = [d for d in devices if d in rates]
    if len(usable) < 2:
        return None
    weight = sum(rates[d] for d in usable)
    shares: Dict[str, int] = {}
    for d in usable:
        chunk = max(1, kernel.effective_config(d, launch).local_size[0])
        raw = total * rates[d] / weight
        shares[d] = int(raw // chunk) * chunk
    # All rounding remainders go to the fastest device (first on ties).
    fastest = max(usable, key=lambda d: (rates[d], -usable.index(d)))
    shares[fastest] += total - sum(shares.values())
    out = []
    cursor = 0
    for d in usable:
        n = shares[d]
        if n <= 0:
            continue
        out.append((d, cursor, cursor + n))
        cursor += n
    if cursor != total or len(out) < 2:
        return None
    return tuple(
        SplitShare(
            d, lo, hi, kernel.sub_range_config(d, launch, lo, hi),
            f"{lo}:{hi}", f"{kernel.name}[{lo}:{hi}]", total,
        )
        for d, lo, hi in out
    )

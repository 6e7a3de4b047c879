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

The plan carries only ``(device, lo, hi)`` triples; the issue-time
mechanics (slice transfers, sub-kernels, gathers, the merging join) live in
:meth:`repro.ocl.queue.CommandQueue._issue_split_kernel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.kernel import Kernel, WorkGroupConfig

__all__ = ["SplitPlan", "plan_split"]


@dataclass(frozen=True)
class SplitPlan:
    """Contiguous per-device sub-ranges covering ``[0, global_size[0])``."""

    #: (device name, lo, hi) with lo inclusive, hi exclusive
    shares: Tuple[Tuple[str, int, int], ...]

    @property
    def devices(self) -> Tuple[str, ...]:
        return tuple(d for d, _lo, _hi in self.shares)

    def share_of(self, device: str) -> int:
        return sum(hi - lo for d, lo, hi in self.shares if d == device)


def plan_split(
    kernel: "Kernel",
    launch: "WorkGroupConfig",
    devices: Sequence[str],
    seconds: Dict[str, float],
) -> Optional[SplitPlan]:
    """Partition ``launch`` across ``devices`` proportionally to rate.

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
    return SplitPlan(tuple(out))

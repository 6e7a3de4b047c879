"""Data staging for kernel profiling (paper Section V.C.3).

Before a kernel can be profiled on a candidate device, its input data sets
must be resident there.  With *n* devices:

* **Brute force** — a D2D transfer from the source device to each of the
  other *n−1* devices; since vendor drivers do not support cross-vendor
  direct D2D, each one is a D2H + H2D double operation via host memory:
  *(n−1)* D2H plus *(n−1)* H2D.  The profiled copies are scratch and are
  discarded, so if the mapper later migrates the queue, execution pays the
  migration again.
* **Data caching** — host memory is shared by every device, so one D2H from
  the source suffices, followed by *(n−1)* H2D transfers.  Additionally the
  incoming data sets are *cached* on each destination device, trading
  memory footprint for transfer time: if the device mapper migrates the
  kernel there, the data is already present.  A copy that would overcommit
  its device's memory (:meth:`~repro.ocl.context.Context.overcommit`) is
  kept as scratch instead, as in brute force.

Both strategies charge simulated time on the per-device host links; the
caching variant also updates buffer residency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hardware.topology import SimNode
from repro.ocl.memory import HOST, Buffer
from repro.sim.engine import SimTask

__all__ = ["StagingPlan", "stage_inputs"]

#: Trace category for profiling data movement (Figs. 6 and 7 measure this).
PROFILE_TRANSFER = "profile-transfer"


@dataclass
class StagingPlan:
    """Result of staging: per-device barrier tasks plus accounting."""

    #: device name -> tasks that must complete before profiling may run there
    barriers: Dict[str, List[SimTask]] = field(default_factory=dict)
    #: total bytes moved over host links
    bytes_moved: int = 0
    #: number of individual link operations (D2H + H2D count)
    operations: int = 0

    def deps_for(self, device: str) -> List[SimTask]:
        return self.barriers.get(device, [])


def stage_inputs(
    node: SimNode,
    buffers: Sequence[Buffer],
    devices: Sequence[str],
    caching: bool,
    deps: Optional[Sequence[SimTask]] = None,
) -> StagingPlan:
    """Stage every initialized buffer onto every profiling device.

    Parameters
    ----------
    node:
        The simulated node (provides transfer task factories).
    buffers:
        Input buffers of the epoch being profiled (deduplicated here).
    devices:
        Candidate devices that will run profiling launches.
    caching:
        Selects the strategy described in the module docstring.
    deps:
        Tasks all staging must wait for (e.g. the end of prior epochs).
    """
    plan = StagingPlan(barriers={d: [] for d in devices})
    base_deps = list(deps or [])
    seen = set()
    for buf in buffers:
        if id(buf) in seen:
            continue
        seen.add(id(buf))
        if not buf.initialized:
            continue  # nothing to move; first touch allocates
        targets = [d for d in devices if not buf.is_valid_on(d)]
        if not targets:
            continue
        src_dev = buf.any_valid_device()
        if caching:
            _stage_cached(node, buf, src_dev, targets, base_deps, plan)
        else:
            _stage_brute(node, buf, src_dev, targets, base_deps, plan)
    return plan


def _stage_cached(
    node: SimNode,
    buf: Buffer,
    src_dev: Optional[str],
    targets: Sequence[str],
    deps: List[SimTask],
    plan: StagingPlan,
) -> None:
    """One D2H (if needed) + one H2D per target; copies that fit stay
    resident."""
    h2d_deps = deps
    if not buf.is_valid_on(HOST):
        assert src_dev is not None
        d2h = node.submit_d2h(
            src_dev, buf.nbytes, deps=deps, category=PROFILE_TRANSFER,
            name=f"prof-stage:{buf.name}",
        )
        plan.bytes_moved += buf.nbytes
        plan.operations += 1
        buf.mark_valid(HOST)
        h2d_deps = deps + [d2h]
    for dst in targets:
        h2d = node.submit_h2d(
            dst, buf.nbytes, deps=h2d_deps, category=PROFILE_TRANSFER,
            name=f"prof-stage:{buf.name}",
        )
        plan.bytes_moved += buf.nbytes
        plan.operations += 1
        # The cached copy is kept where it fits, so post-mapping execution
        # finds it resident; elsewhere it is scratch, as in brute force.
        if not buf.context.overcommit(dst, ((buf, buf.nbytes),)):
            buf.mark_valid(dst)
        plan.barriers[dst].append(h2d)


def _stage_brute(
    node: SimNode,
    buf: Buffer,
    src_dev: Optional[str],
    targets: Sequence[str],
    deps: List[SimTask],
    plan: StagingPlan,
) -> None:
    """Per-target D2D (D2H+H2D) staging; scratch copies are discarded."""
    for dst in targets:
        if src_dev is not None and src_dev != dst:
            d2h = node.submit_d2h(
                src_dev, buf.nbytes, deps=deps, category=PROFILE_TRANSFER,
                name=f"prof-stage:{buf.name}",
            )
            h2d = node.submit_h2d(
                dst, buf.nbytes, deps=[d2h], category=PROFILE_TRANSFER,
                name=f"prof-stage:{buf.name}",
            )
            plan.bytes_moved += 2 * buf.nbytes
            plan.operations += 2
        else:
            # Valid on host only (or already on dst's twin): single H2D.
            h2d = node.submit_h2d(
                dst, buf.nbytes, deps=deps, category=PROFILE_TRANSFER,
                name=f"prof-stage:{buf.name}",
            )
            plan.bytes_moved += buf.nbytes
            plan.operations += 1
        # Residency deliberately NOT updated: the copy is scratch.
        plan.barriers[dst].append(h2d)

"""Incremental repair of a queue→device mapping after device loss.

The branch-and-bound mapper (:mod:`repro.core.device_mapper`) re-solves the
whole queue pool on every trigger.  A pool re-triggered after a device
failure pays a full solve for what is usually a local perturbation: one
device vanished, its queues need homes, everyone else should stay put.

:func:`repair_mapping` is a pinned solve: the surviving bindings go to
:func:`~repro.core.device_mapper.optimal_mapping` as ``fixed``, the same
search places only the affected queues under :data:`REPAIR_NODE_BUDGET`,
and a quality gate either accepts that placement or falls back to the full
solve, so the caller never does worse than re-solving.  Equal inputs give
bit-identical results, as for the mapper itself.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Mapping, Sequence

from repro.core.device_mapper import (
    MappingResult,
    _lpt_assign,
    _lpt_order,
    optimal_mapping,
)

__all__ = [
    "repair_mapping",
    "DEFAULT_REPAIR_THRESHOLD",
    "REPAIR_NODE_BUDGET",
]

#: Accept a repair only when its makespan is within this factor of the
#: capacity-scaled previous makespan (see :func:`repair_mapping`).
DEFAULT_REPAIR_THRESHOLD = 1.25

#: Node budget for the pinned solve over the affected queues.  The affected
#: set after a single device failure is ~Q/D queues, so a couple of
#: thousand nodes explores it essentially exhaustively while bounding the
#: worst case far below one full greedy re-solve.
REPAIR_NODE_BUDGET = 4096

#: Relative tolerance for makespan comparisons: float loads summed in
#: different orders can disagree by ULPs on genuinely equal assignments
#: (same reasoning as the exact mapper's bound tolerance).
_REL_TOL = 1e-12


def repair_mapping(
    prev: MappingResult,
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> MappingResult:
    """Repair ``prev`` against the current pool instead of re-solving.

    ``queues``/``devices``/``cost`` describe the *current* (post-fault)
    pool.  Queues still bound to a surviving device on which they remain
    feasible keep their binding; only the affected set — queues whose
    device is gone, and queues with no previous binding — is re-placed, by
    `optimal_mapping` with the kept bindings pinned.

    Decision rule (documented in DESIGN.md §11): the repair is **accepted**
    iff the pinned search completed within :data:`REPAIR_NODE_BUDGET` and
    its makespan is (a) no worse than a fresh solve estimate — the LPT
    list-scheduling assignment that seeds the full solver, computed in
    O(Q·D) — and (b) within :data:`DEFAULT_REPAIR_THRESHOLD` × the
    previous makespan scaled by the capacity lost (the number of devices
    ``prev`` used over ``len(devices)``, never below 1).  Otherwise it
    **falls back** to `optimal_mapping` over the whole pool with the
    surviving bindings preferred, so a rejected repair costs one solve and
    returns exactly the fresh solution.

    The result's ``repaired`` flag records which path ran and
    ``migrated_queues`` lists every queue whose device changed (or that was
    newly placed), so callers can tell repair from re-solve in telemetry.
    """
    device_set = set(devices)
    kept: Dict[str, str] = {}
    for q in queues:
        d = prev.mapping.get(q)
        if d in device_set and math.isfinite(cost.get(q, {}).get(d, math.inf)):
            kept[q] = d

    pinned = optimal_mapping(
        queues,
        devices,
        cost,
        prev.mapping,
        fixed=kept,
        node_budget=REPAIR_NODE_BUDGET,
    )

    # Accept only when (a) the pinned search ran to completion within its
    # node budget — the placement is then optimal over the kept bindings,
    # not a truncated guess (an exhausted budget means the subproblem is as
    # hard as re-solving); (b) the repaired makespan is no worse than the
    # LPT estimate of a fresh solve; and (c) it stays within the threshold
    # × the previous makespan scaled for the lost capacity.
    accept = pinned.exact
    if accept:
        _, loads, _ = _lpt_assign(
            _lpt_order(queues, devices, cost),
            devices,
            cost,
            prev.mapping,
            dict.fromkeys(devices, 0.0),
        )
        bound = math.inf
        if math.isfinite(prev.makespan) and prev.makespan > 0.0:
            prev_devices = len(set(prev.mapping.values())) or 1
            scale = prev_devices / max(len(devices), 1)
            bound = DEFAULT_REPAIR_THRESHOLD * prev.makespan * max(scale, 1.0)
        accept = (
            pinned.makespan <= max(loads.values()) * (1.0 + _REL_TOL)
            and pinned.makespan <= bound
        )
    if accept:
        result = replace(
            pinned,
            mapping={q: pinned.mapping[q] for q in queues},
            exact=False,
            repaired=True,
        )
    else:
        result = optimal_mapping(queues, devices, cost, prev.mapping)
    return replace(
        result,
        migrated_queues=tuple(
            sorted(q for q in queues if prev.mapping.get(q) != result.mapping[q])
        ),
    )

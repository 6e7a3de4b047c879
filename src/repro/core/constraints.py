"""Incremental repair of a queue→device mapping after device loss.

The branch-and-bound mapper (:mod:`repro.core.device_mapper`) re-solves the
whole queue pool on every trigger.  That is the right cost model for the
paper's eight-queue nodes, but a pool re-triggered after a device failure
pays a full solve for what is usually a local perturbation: one device
vanished, its queues need homes, everyone else should stay put.

:func:`repair_mapping` takes the previous
:class:`~repro.core.device_mapper.MappingResult` and the post-fault pool
and migrates only the *affected* queues — those bound to a device that is
gone, and queues with no previous binding: survivors keep their binding,
and the affected queues are re-placed by a bounded branch-and-bound over
that subset alone (seeded with an LPT insert into the surviving loads).
The repaired assignment is accepted only when the affected-subset search
completed within its node budget (the placement is then optimal over the
pinned survivors), its makespan is no worse than a fresh solve estimate —
the LPT list-scheduling bound that seeds the full solver, computed in
O(Q·D) — and it stays within :data:`DEFAULT_REPAIR_THRESHOLD` × the
capacity-scaled previous makespan; otherwise the repair *falls back to the
full solve* (`optimal_mapping` with the surviving bindings as
``preferred``), so a rejected repair is exactly a fresh solve and the
caller never does worse than re-solving.

Determinism: every scan below iterates queues and devices in caller order
with explicit tie-breaks, and device loads are summed in a fixed queue
order (never incrementally subtracted), so repeated calls with equal inputs
return bit-identical results — the same contract the underlying mapper
keeps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.device_mapper import (
    MapperError,
    MappingResult,
    _lpt_order,
    _validate,
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

#: Node budget for the affected-subset branch-and-bound.  The affected set
#: after a single device failure is ~Q/D queues, so a couple of thousand
#: nodes explores it essentially exhaustively while bounding the worst case
#: far below one full greedy re-solve.
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
    a bounded branch-and-bound over those queues alone.

    Decision rule (documented in DESIGN.md §11): the repair is **accepted**
    iff its makespan is (a) no worse than a fresh solve estimate — the LPT
    list-scheduling assignment that seeds the full solver, computed in
    O(Q·D) — and (b) within :data:`DEFAULT_REPAIR_THRESHOLD` × the previous
    makespan scaled by the capacity lost (``len(prev devices) /
    len(devices)``).  Otherwise it **falls back** to `optimal_mapping` over
    the whole pool with the surviving bindings preferred, so a rejected
    repair costs one solve and returns exactly the fresh solution.

    The result's ``repaired`` flag records which path ran and
    ``migrated_queues`` lists every queue whose device changed (or that was
    newly placed), so callers can tell repair from re-solve in telemetry.
    """
    _validate(queues, devices, cost)
    device_set = set(devices)

    kept: Dict[str, str] = {}
    affected: List[str] = []
    for q in queues:
        d = prev.mapping.get(q)
        if (
            d is None
            or d not in device_set
            or not math.isfinite(cost[q].get(d, math.inf))
        ):
            affected.append(q)
        else:
            kept[q] = d

    dev_index = {d: i for i, d in enumerate(devices)}

    # Surviving load per device, summed in (current) queue order so the
    # float is deterministic for equal inputs.
    base: Dict[str, float] = {d: 0.0 for d in devices}
    for q in queues:
        d = kept.get(q)
        if d is not None:
            base[d] += cost[q][d]

    placed, repair_makespan, explored, complete = _place_affected(
        affected, devices, cost, base, dev_index
    )

    migrated = tuple(
        sorted(q for q in affected if prev.mapping.get(q) != placed[q])
    )

    # --- decision rule: accept repair or fall back to a full solve -------
    # Accept only when (a) the affected-subset search ran to completion
    # within its node budget — the placement is then exhaustively optimal
    # over the surviving assignment, not a truncated guess ("repair cost
    # exceeds a solve estimate" otherwise: an exhausted budget means the
    # subproblem is as hard as re-solving); (b) the repaired makespan is no
    # worse than the fresh solve estimate (the LPT list-scheduling
    # assignment that seeds the full solver, O(Q·D)); and (c) it stays
    # within the threshold × the previous makespan scaled for the lost
    # capacity.  Rejection falls back to the full solve below.
    accept = complete
    if accept:
        solve_estimate = _solve_estimate(queues, devices, cost, prev.mapping)

        bound = math.inf
        if math.isfinite(prev.makespan) and prev.makespan > 0.0:
            prev_devices = len(set(prev.mapping.values())) or 1
            scale = prev_devices / max(len(devices), 1)
            bound = DEFAULT_REPAIR_THRESHOLD * prev.makespan * max(scale, 1.0)

        accept = (
            repair_makespan <= solve_estimate * (1.0 + _REL_TOL)
            and repair_makespan <= bound
        )
    if accept:
        mapping = dict(kept)
        mapping.update(placed)
        return MappingResult(
            mapping={q: mapping[q] for q in queues},
            makespan=repair_makespan,
            explored=explored,
            exact=False,
            repaired=True,
            migrated_queues=migrated,
        )

    full = optimal_mapping(
        queues,
        devices,
        cost,
        {q: prev.mapping[q] for q in queues if q in prev.mapping},
    )
    return replace(
        full,
        repaired=False,
        migrated_queues=tuple(
            sorted(
                q for q in queues if prev.mapping.get(q) != full.mapping[q]
            )
        ),
    )


def _solve_estimate(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Mapping[str, str],
) -> float:
    """Makespan of the LPT list-scheduling assignment over the full pool.

    Bit-identical to ``max(loads)`` after `_lpt_order` + `_lpt_assign` in
    :mod:`repro.core.device_mapper` — the upper bound that seeds the full
    solver — but written as a tight scalar loop (no per-candidate tuple
    keys), since this runs on the repair hot path as the solve estimate.
    The float evolution is identical: devices are scanned in sequence
    order, the winner is decided by the same (finish time, prefer current
    device, lower index) rule, and the winning load is the same
    ``load + cost`` sum.
    """
    order = _lpt_order(queues, devices, cost)
    loads = {d: 0.0 for d in devices}
    for q in order:
        row = cost[q]
        pref = preferred.get(q)
        best_t = math.inf
        best_dev: Optional[str] = None
        best_pref = False
        for d in devices:
            c = row.get(d, math.inf)
            if not math.isfinite(c):
                continue
            t = loads[d] + c
            if t < best_t or best_dev is None:
                best_t, best_dev, best_pref = t, d, d == pref
            elif t == best_t and not best_pref and d == pref:
                best_dev, best_pref = d, True
        if best_dev is None:
            raise MapperError(f"queue {q!r} infeasible on every device")
        loads[best_dev] = best_t
    return max(loads.values())


def _place_affected(
    affected: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    base: Mapping[str, float],
    dev_index: Mapping[str, int],
) -> Tuple[Dict[str, str], float, int, bool]:
    """Place ``affected`` onto ``base`` loads minimising the makespan.

    Three stages, cheapest first — the local search over the surviving
    assignment the tentpole calls for, then exact search over the affected
    subset only:

    1. LPT insert: each affected queue (largest first) onto the device
       where it finishes earliest.
    2. First-improvement local search moving affected queues off the
       bottleneck device (survivors never move, so the migration set stays
       exactly the affected set).
    3. Depth-first branch-and-bound over the affected queues, seeded with
       the incumbent from (2), pruned by the same suffix-max and
       load-balance lower bounds as the exact mapper, and capped at
       :data:`REPAIR_NODE_BUDGET` explored nodes.

    Returns ``(placement, makespan, explored, complete)`` where
    ``complete`` is True iff the search exhausted the subtree within its
    budget — the placement is then optimal given the pinned survivors.
    Loads are recomputed from ``base`` by summation in a fixed order
    (save/restore, never ``-=``), so results are bit-identical across runs.
    """
    if not affected:
        makespan = max(base.values()) if base else 0.0
        return {}, makespan, 0, True

    order = _lpt_order(affected, devices, cost)
    n = len(order)

    # Stage 1 — seed: earliest-finish insert, largest queue first.
    loads = dict(base)
    assign: List[str] = []
    for q in order:
        row = cost[q]
        best_dev = None
        best_key = None
        for d in devices:
            c = row.get(d, math.inf)
            if not math.isfinite(c):
                continue
            key = (loads[d] + c, dev_index[d])
            if best_key is None or key < best_key:
                best_key, best_dev = key, d
        if best_dev is None:
            raise MapperError(f"queue {q!r} infeasible on every device")
        assign.append(best_dev)
        loads[best_dev] += row[best_dev]

    # Stage 2 — local search: move affected queues off the bottleneck while
    # the makespan strictly improves (first improvement, deterministic scan
    # order; loads recomputed from base in order-sequence, drift-free).
    def recompute(device: str) -> float:
        total = base[device]
        for q, d in zip(order, assign):
            if d == device:
                total += cost[q][device]
        return total

    for _ in range(2 * n):
        makespan = max(loads.values())
        moved = False
        for i, q in enumerate(order):
            src = assign[i]
            if loads[src] != makespan:
                continue
            row = cost[q]
            for d in devices:
                if d == src:
                    continue
                c = row.get(d, math.inf)
                if not math.isfinite(c):
                    continue
                assign[i] = d
                new_src = recompute(src)
                new_dst = recompute(d)
                if new_src < makespan and new_dst < makespan:
                    loads[src] = new_src
                    loads[d] = new_dst
                    moved = True
                    break
                assign[i] = src
            if moved:
                break
        if not moved:
            break

    best_makespan = max(loads.values())
    best_assign = list(assign)

    # Stage 3 — bounded exact search.  suffix_max: some unplaced queue
    # costs at least this wherever it lands; the load-balance bound spreads
    # the best-case remaining work over all devices (both admissible, same
    # as the exact mapper's bounds).
    min_cost = [
        min(
            c
            for c in (cost[q].get(d, math.inf) for d in devices)
            if math.isfinite(c)
        )
        for q in order
    ]
    suffix_max = [0.0] * (n + 1)
    suffix_sum = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(min_cost[i], suffix_max[i + 1])
        suffix_sum[i] = suffix_sum[i + 1] + min_cost[i]
    n_devices = len(devices)
    base_total = sum(base[d] for d in devices)

    explored = 0
    loads = dict(base)
    node: List[str] = [""] * n
    tol = 1.0 + _REL_TOL

    def rec(i: int, current_max: float, placed_total: float) -> None:
        nonlocal best_makespan, best_assign, explored
        if explored >= REPAIR_NODE_BUDGET:
            return
        if i == n:
            if current_max < best_makespan:
                best_makespan = current_max
                best_assign = list(node)
            return
        lb = suffix_max[i]
        avg = (base_total + placed_total + suffix_sum[i]) / n_devices
        if avg > lb:
            lb = avg
        if current_max > lb:
            lb = current_max
        if lb > best_makespan * tol:
            return
        q = order[i]
        row = cost[q]
        for d in devices:
            c = row.get(d, math.inf)
            if not math.isfinite(c):
                continue
            explored += 1
            old = loads[d]
            new = old + c
            if new > best_makespan * tol:
                continue
            node[i] = d
            loads[d] = new
            rec(i + 1, current_max if current_max > new else new,
                placed_total + c)
            loads[d] = old
            node[i] = ""

    rec(0, max(base.values()) if base else 0.0, 0.0)
    complete = explored < REPAIR_NODE_BUDGET

    # Recompute the winning makespan drift-free from base in order-sequence.
    final = dict(base)
    for q, d in zip(order, best_assign):
        final[d] += cost[q][d]
    return dict(zip(order, best_assign)), max(final.values()), explored, complete

"""Queue→device mapping that minimises concurrent completion time.

Paper Section V.A: "We use the per-queue aggregate kernel profiles and
apply a simple dynamic programming approach to determine the ideal
queue-device mapping that minimizes the concurrent execution time. The
dynamic programming approach guarantees ideal queue-device mapping and,
at the same time, incurs negligible overhead because the number of devices
in present-day nodes is not high."

The objective: given a cost matrix ``cost[q][d]`` (estimated seconds for
queue *q*'s epoch on device *d*, including data-movement estimates), find
the assignment of queues to devices minimising the *makespan* — the maximum
over devices of the summed costs of the queues assigned to it (queues on
the same device serialise; different devices run concurrently).

Three solvers are provided:

* :func:`optimal_mapping` — memoised depth-first search with
  branch-and-bound pruning (the production path).  The search is seeded
  with an LPT-greedy upper bound and prunes on two lower bounds (the
  largest best-case cost of any unplaced queue, and the load-balance bound
  ``total work / #devices``), so it explores a tiny fraction of the space
  for realistic pool sizes.  Above :data:`EXACT_LIMIT` (16 queues) it
  switches to the greedy heuristic below — exact search is exponential in
  the worst case, and a 32-queue × 8-device pool must map in milliseconds,
  not minutes.
* :func:`greedy_mapping` — deterministic LPT (longest-processing-time)
  list scheduling followed by single-queue makespan refinement.  Used as
  the large-pool fallback; near-optimal in practice (typically within a few
  percent of the exact makespan on realistic instances; the test suite
  enforces a generous ≤2× factor on its random-instance distribution, and
  determinism).  Results carry ``exact=False``.
* :func:`brute_force_mapping` — exhaustive enumeration, used as the
  reference oracle in property-based tests ("always maps command queues to
  the optimal device combination" is an assertable claim).

Infeasible pairs (e.g. the data does not fit in device memory) carry
``math.inf`` cost.  Ties are broken toward each queue's current device (to
avoid gratuitous migrations), then toward lower device index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MappingResult",
    "optimal_mapping",
    "greedy_mapping",
    "brute_force_mapping",
    "MapperError",
    "EXACT_LIMIT",
]


class MapperError(RuntimeError):
    """No feasible assignment exists."""


#: Queue-count threshold above which :func:`optimal_mapping` falls back to
#: :func:`greedy_mapping`: exact search with the greedy seed and
#: lower-bound pruning is comfortably sub-millisecond at paper scale (≤8
#: queues); beyond ~16 queues the worst case turns pathological.
EXACT_LIMIT = 16


@dataclass(frozen=True)
class MappingResult:
    """An assignment plus its predicted makespan.

    ``exact`` is False when the result came from the greedy large-pool
    fallback rather than the exact branch-and-bound search.

    ``repaired`` is True when the result came from
    :func:`repro.core.constraints.repair_mapping`'s incremental path (the
    surviving assignment patched in place) rather than a full solve;
    ``migrated_queues`` then lists every queue whose device changed.  Full
    solves reached through a rejected repair also fill ``migrated_queues``
    (with ``repaired=False``), so telemetry can always see churn.
    """

    mapping: Dict[str, str]
    makespan: float
    explored: int = 0
    exact: bool = True
    repaired: bool = False
    migrated_queues: Tuple[str, ...] = field(default=())

    def device_loads(self, cost: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
        loads: Dict[str, float] = {}
        for q, d in self.mapping.items():
            loads[d] = loads.get(d, 0.0) + cost[q][d]
        return loads


def _validate(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> None:
    if not queues:
        raise MapperError("empty queue pool")
    if not devices:
        raise MapperError("no devices")
    for q in queues:
        row = cost.get(q)
        if row is None:
            raise MapperError(f"no cost row for queue {q!r}")
        if all(not math.isfinite(row.get(d, math.inf)) for d in devices):
            raise MapperError(f"queue {q!r} infeasible on every device")


def brute_force_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> MappingResult:
    """Exhaustive reference solver: enumerate all |D|^|Q| assignments."""
    _validate(queues, devices, cost)
    best: Optional[Tuple[float, Tuple[str, ...]]] = None
    explored = 0
    for combo in itertools.product(devices, repeat=len(queues)):
        explored += 1
        loads: Dict[str, float] = {}
        feasible = True
        for q, d in zip(queues, combo):
            c = cost[q].get(d, math.inf)
            if not math.isfinite(c):
                feasible = False
                break
            loads[d] = loads.get(d, 0.0) + c
        if not feasible:
            continue
        makespan = max(loads.values())
        if best is None or makespan < best[0]:
            best = (makespan, combo)
    if best is None:
        raise MapperError("no feasible assignment")
    return MappingResult(
        mapping=dict(zip(queues, best[1])), makespan=best[0], explored=explored
    )


def _lpt_order(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
) -> List[str]:
    """Queues by decreasing best-case cost (LPT; also the DFS order)."""
    return sorted(
        queues,
        key=lambda q: -min(cost[q].get(d, math.inf) for d in devices),
    )


def _lpt_assign(
    order: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Mapping[str, str],
    dev_index: Mapping[str, int],
) -> Tuple[List[str], Dict[str, float], int]:
    """Greedy list scheduling: place each queue (largest first) on the
    device where it finishes earliest.  Deterministic; ties prefer the
    queue's current device, then lower device index."""
    loads: Dict[str, float] = {d: 0.0 for d in devices}
    assign: List[str] = []
    explored = 0
    for q in order:
        row = cost[q]
        pref = preferred.get(q)
        best_key: Optional[Tuple[float, bool, int]] = None
        best_dev: Optional[str] = None
        best_cost = 0.0
        for d in devices:
            c = row.get(d, math.inf)
            if not math.isfinite(c):
                continue
            explored += 1
            key = (loads[d] + c, d != pref, dev_index[d])
            if best_key is None or key < best_key:
                best_key, best_dev, best_cost = key, d, c
        if best_dev is None:
            raise MapperError(f"queue {q!r} infeasible on every device")
        assign.append(best_dev)
        loads[best_dev] += best_cost
    return assign, loads, explored


def _seq_load(
    order: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    assign: Sequence[str],
    device: str,
) -> float:
    """Load of ``device`` summed in DFS queue order.

    Exactly the float the branch-and-bound search computes for the same
    assignment — incremental ``+=``/``-=`` updates drift by ULPs under
    backtracking/moves, and a drifted incumbent below any true path sum
    would prune the optimum itself.
    """
    total = 0.0
    for q, d in zip(order, assign):
        if d == device:
            total += cost[q][device]
    return total


def _refine(
    order: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    assign: List[str],
    loads: Dict[str, float],
    dev_index: Mapping[str, int],
) -> int:
    """Single-queue moves off the bottleneck device while the makespan
    strictly improves.  First-improvement, deterministic scan order,
    bounded passes — a cheap polish that closes most of LPT's gap."""
    explored = 0
    for _ in range(2 * len(order)):
        makespan = max(loads.values())
        moved = False
        for i, q in enumerate(order):
            src = assign[i]
            if loads[src] != makespan:
                continue
            row = cost[q]
            for d in sorted(devices, key=dev_index.__getitem__):
                if d == src:
                    continue
                c_dst = row.get(d, math.inf)
                if not math.isfinite(c_dst):
                    continue
                explored += 1
                # Tentatively move and recompute both affected loads
                # drift-free; the other devices are unchanged.
                assign[i] = d
                new_src = _seq_load(order, cost, assign, src)
                new_dst = _seq_load(order, cost, assign, d)
                if new_dst < makespan and new_src < makespan:
                    loads[src] = new_src
                    loads[d] = new_dst
                    moved = True
                    break
                assign[i] = src
            if moved:
                break
        if not moved:
            break
    return explored


def greedy_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Optional[Mapping[str, str]] = None,
) -> MappingResult:
    """Deterministic near-optimal heuristic: LPT + makespan refinement.

    Used by :func:`optimal_mapping` for pools above the exact-search
    threshold; may return a makespan above the true optimum (``exact`` is
    False), but runs in O(Q·D) per refinement pass.
    """
    _validate(queues, devices, cost)
    preferred = dict(preferred or {})
    dev_index = {d: i for i, d in enumerate(devices)}
    order = _lpt_order(queues, devices, cost)
    assign, loads, explored = _lpt_assign(order, devices, cost, preferred, dev_index)
    explored += _refine(order, devices, cost, assign, loads, dev_index)
    return MappingResult(
        mapping=dict(zip(order, assign)),
        makespan=max(loads.values()),
        explored=explored,
        exact=False,
    )


def optimal_mapping(
    queues: Sequence[str],
    devices: Sequence[str],
    cost: Mapping[str, Mapping[str, float]],
    preferred: Optional[Mapping[str, str]] = None,
) -> MappingResult:
    """Exact makespan-minimising assignment with pruning.

    ``preferred`` maps queue → its current device; among equal-makespan
    solutions the one keeping more queues on their preferred device (and
    then using lexicographically earlier devices) wins, avoiding pointless
    migrations.

    Pools with more than :data:`EXACT_LIMIT` queues are solved by
    :func:`greedy_mapping` instead — the returned result then carries
    ``exact=False`` and may be slightly above the true optimum.
    """
    _validate(queues, devices, cost)
    preferred = dict(preferred or {})
    if len(queues) > EXACT_LIMIT:
        return greedy_mapping(queues, devices, cost, preferred)
    # Order queues by decreasing best-case cost: placing the expensive,
    # constrained queues first makes pruning effective.
    order = _lpt_order(queues, devices, cost)
    n = len(order)
    dev_index = {d: i for i, d in enumerate(devices)}
    n_devices = len(devices)

    # Seed the incumbent makespan with the LPT-greedy upper bound (but not
    # its assignment: the exact search below re-derives the best assignment
    # under the full tie-break rules, so results are identical to an
    # unseeded search — just reached with far less branching).
    greedy_assign, greedy_loads, _ = _lpt_assign(
        order, devices, cost, preferred, dev_index
    )
    _refine(order, devices, cost, greedy_assign, greedy_loads, dev_index)
    best_makespan = max(greedy_loads.values())
    del greedy_assign, greedy_loads

    # Per-queue best-case cost and suffix lower bounds over the DFS order:
    # suffix_max[i] = the largest best-case cost among unplaced queues
    # (some device must take at least that); suffix_sum[i] = total
    # best-case work still to place (the load-balance bound divides the
    # grand total across all devices).
    min_cost = {
        q: min(c for c in (cost[q].get(d, math.inf) for d in devices)
               if math.isfinite(c))
        for q in order
    }
    suffix_max = [0.0] * (n + 1)
    suffix_sum = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mc = min_cost[order[i]]
        suffix_max[i] = mc if mc > suffix_max[i + 1] else suffix_max[i + 1]
        suffix_sum[i] = suffix_sum[i + 1] + mc

    best_assign: Optional[List[str]] = None
    best_score: Tuple[int, float, Tuple[int, ...]] = (0, 0.0, ())
    explored = 0
    loads: Dict[str, float] = {d: 0.0 for d in devices}
    assigned_total = 0.0
    assign: List[str] = [""] * n
    seen: Dict[Tuple[int, Tuple[float, ...]], float] = {}

    def tie_score(assignment: Sequence[str]) -> Tuple[int, float, Tuple[int, ...]]:
        """Among equal-makespan assignments prefer, in order: fewer
        migrations away from current bindings; better load balance (lower
        sum of squared device loads — so idle twins get used); and finally
        a deterministic device order."""
        migrations = sum(
            1 for q, d in zip(order, assignment) if preferred.get(q) not in (None, d)
        )
        balance = sum(v * v for v in loads.values())
        return (migrations, balance, tuple(dev_index[d] for d in assignment))

    def rec(i: int, current_max: float) -> None:
        nonlocal best_makespan, best_assign, best_score, explored, assigned_total
        if current_max > best_makespan:
            return
        if i == n:
            score = tie_score(assign)
            if current_max < best_makespan or (
                current_max == best_makespan
                and (best_assign is None or score < best_score)
            ):
                best_makespan = current_max
                best_assign = list(assign)
                best_score = score
            return
        # Lower-bound prune (strict: equal-makespan completions must stay
        # reachable for the tie-break): some unplaced queue costs at least
        # suffix_max[i] wherever it lands, and the total work placed so far
        # plus the best-case remainder averaged over all devices bounds the
        # final max load from below.  The average is summed in a different
        # order than the incumbent's device loads, so it can land a few ULPs
        # above an exactly-tight optimum — the relative tolerance keeps such
        # paths alive (pruning less never costs exactness).
        lb = suffix_max[i]
        avg = (assigned_total + suffix_sum[i]) / n_devices
        if avg > lb:
            lb = avg
        if lb > best_makespan * (1.0 + 1e-12):
            return
        # Memoisation on (queue index, per-device load vector): identical
        # residual subproblems cannot improve — this is the "dynamic
        # programming" over partial load states.  The vector keeps device
        # identity (costs are device-dependent, so sorting loads would
        # conflate genuinely different states).
        state = (i, tuple(loads[d] for d in devices))
        prev = seen.get(state)
        # Strict inequality: a revisit at *equal* makespan must still be
        # explored, or the migration-avoiding tie-break could be pruned
        # away (leaving, e.g., two queues piled on one GPU while its twin
        # idles, despite equal makespan).
        if prev is not None and prev < current_max:
            return
        seen[state] = current_max
        q = order[i]
        # Try the preferred device first so ties resolve without migration.
        cand = sorted(
            devices,
            key=lambda d: (d != preferred.get(q), dev_index[d]),
        )
        for d in cand:
            c = cost[q].get(d, math.inf)
            if not math.isfinite(c):
                continue
            explored += 1
            assign[i] = d
            # Save/restore instead of += / -=: float addition is not exactly
            # reversible, and a few ULPs of backtracking drift would push
            # completions past the greedy-seeded incumbent and prune the
            # (tied-)optimal assignment itself.
            old_load, old_total = loads[d], assigned_total
            loads[d] = old_load + c
            assigned_total = old_total + c
            rec(i + 1, max(current_max, loads[d]))
            loads[d] = old_load
            assigned_total = old_total
            assign[i] = ""
        return

    rec(0, 0.0)
    if best_assign is None:
        raise MapperError("no feasible assignment")
    return MappingResult(
        mapping=dict(zip(order, best_assign)),
        makespan=best_makespan,
        explored=explored,
    )

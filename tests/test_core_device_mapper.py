"""Device mapper: exact makespan minimisation.

The paper claims MultiCL "always maps command queues to the optimal device
combination" — here that is a testable property: the production solver must
match the brute-force oracle on every instance.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_mapper import (
    EXACT_LIMIT,
    MapperError,
    MappingResult,
    brute_force_mapping,
    greedy_mapping,
    optimal_mapping,
)


def _cost(rows):
    """rows: {queue: {device: cost}}"""
    return rows


def test_single_queue_picks_cheapest():
    cost = _cost({"q0": {"cpu": 3.0, "gpu": 1.0}})
    res = optimal_mapping(["q0"], ["cpu", "gpu"], cost)
    assert res.mapping == {"q0": "gpu"}
    assert res.makespan == 1.0


def test_balances_load_across_devices():
    cost = {
        "q0": {"a": 1.0, "b": 1.0},
        "q1": {"a": 1.0, "b": 1.0},
        "q2": {"a": 1.0, "b": 1.0},
        "q3": {"a": 1.0, "b": 1.0},
    }
    res = optimal_mapping(list(cost), ["a", "b"], cost)
    assert res.makespan == pytest.approx(2.0)
    loads = res.device_loads(cost)
    assert loads == {"a": 2.0, "b": 2.0}


def test_heterogeneous_example_from_paper_shape():
    # 4 queues; CPU 1s per queue, GPU 2.5s per queue; two GPUs.
    cost = {
        f"q{i}": {"cpu": 1.0, "gpu0": 2.5, "gpu1": 2.5} for i in range(4)
    }
    res = optimal_mapping(list(cost), ["cpu", "gpu0", "gpu1"], cost)
    # Optimal: 2 on cpu (2.0), 1 on each gpu (2.5) -> makespan 2.5;
    # vs all-cpu 4.0.
    assert res.makespan == pytest.approx(2.5)


def test_infeasible_device_avoided():
    cost = {
        "q0": {"cpu": 5.0, "gpu": math.inf},
        "q1": {"cpu": 1.0, "gpu": 1.0},
    }
    res = optimal_mapping(["q0", "q1"], ["cpu", "gpu"], cost)
    assert res.mapping["q0"] == "cpu"


def test_all_infeasible_rejected():
    cost = {"q0": {"cpu": math.inf, "gpu": math.inf}}
    with pytest.raises(MapperError):
        optimal_mapping(["q0"], ["cpu", "gpu"], cost)
    with pytest.raises(MapperError):
        brute_force_mapping(["q0"], ["cpu", "gpu"], cost)


def test_empty_inputs_rejected():
    with pytest.raises(MapperError):
        optimal_mapping([], ["cpu"], {})
    with pytest.raises(MapperError):
        optimal_mapping(["q0"], [], {"q0": {}})
    with pytest.raises(MapperError):
        optimal_mapping(["q0"], ["cpu"], {})


def test_tie_break_prefers_current_binding():
    cost = {"q0": {"a": 1.0, "b": 1.0}}
    res = optimal_mapping(["q0"], ["a", "b"], cost, preferred={"q0": "b"})
    assert res.mapping["q0"] == "b"
    res2 = optimal_mapping(["q0"], ["a", "b"], cost, preferred={"q0": "a"})
    assert res2.mapping["q0"] == "a"


def test_tie_break_never_sacrifices_makespan():
    cost = {"q0": {"a": 1.0, "b": 5.0}}
    res = optimal_mapping(["q0"], ["a", "b"], cost, preferred={"q0": "b"})
    assert res.mapping["q0"] == "a"


def test_device_loads_helper():
    cost = {"q0": {"a": 1.0}, "q1": {"a": 2.0}}
    res = MappingResult(mapping={"q0": "a", "q1": "a"}, makespan=3.0)
    assert res.device_loads(cost) == {"a": 3.0}


def test_pruning_explores_less_than_brute_force():
    cost = {
        f"q{i}": {d: 1.0 + 0.1 * i for d in ("a", "b", "c")} for i in range(7)
    }
    opt = optimal_mapping(list(cost), ["a", "b", "c"], cost)
    brute = brute_force_mapping(list(cost), ["a", "b", "c"], cost)
    assert opt.makespan == pytest.approx(brute.makespan)
    assert opt.explored < brute.explored


@settings(max_examples=150, deadline=None)
@given(
    n_queues=st.integers(min_value=1, max_value=5),
    n_devices=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_optimal_matches_brute_force(n_queues, n_devices, data):
    queues = [f"q{i}" for i in range(n_queues)]
    devices = [f"d{i}" for i in range(n_devices)]
    cost = {
        q: {
            d: data.draw(
                st.one_of(
                    st.floats(min_value=0.001, max_value=100.0),
                    st.just(math.inf),
                ),
                label=f"{q}/{d}",
            )
            for d in devices
        }
        for q in queues
    }
    feasible = all(
        any(math.isfinite(cost[q][d]) for d in devices) for q in queues
    )
    if not feasible:
        with pytest.raises(MapperError):
            optimal_mapping(queues, devices, cost)
        return
    opt = optimal_mapping(queues, devices, cost)
    brute = brute_force_mapping(queues, devices, cost)
    assert opt.makespan == pytest.approx(brute.makespan)
    # The returned mapping actually achieves the claimed makespan.
    loads = opt.device_loads(cost)
    assert max(loads.values()) == pytest.approx(opt.makespan)


@settings(max_examples=100, deadline=None)
@given(
    n_queues=st.integers(min_value=1, max_value=4),
    n_devices=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_preferred_ties_resolved_minimally(n_queues, n_devices, data):
    """With ``preferred`` bindings, the result is makespan-optimal AND keeps
    as many queues on their current device as *any* optimal assignment can
    (migrations are only paid when the makespan demands it)."""
    queues = [f"q{i}" for i in range(n_queues)]
    devices = [f"d{i}" for i in range(n_devices)]
    # Small integer-valued costs (exact in float) make ties frequent, which
    # is exactly the regime the tie-break rules exist for.
    cost = {
        q: {
            d: data.draw(
                st.one_of(
                    st.integers(min_value=1, max_value=4).map(float),
                    st.just(math.inf),
                ),
                label=f"{q}/{d}",
            )
            for d in devices
        }
        for q in queues
    }
    feasible = all(
        any(math.isfinite(cost[q][d]) for d in devices) for q in queues
    )
    if not feasible:
        with pytest.raises(MapperError):
            optimal_mapping(queues, devices, cost)
        return
    preferred = {
        q: data.draw(st.sampled_from(devices), label=f"pref/{q}") for q in queues
    }
    res = optimal_mapping(queues, devices, cost, preferred)
    # Enumerate every optimal assignment to find the fewest migrations any
    # of them needs.
    best_makespan = math.inf
    min_migrations = None
    for combo in itertools.product(devices, repeat=n_queues):
        loads = {}
        if any(not math.isfinite(cost[q][d]) for q, d in zip(queues, combo)):
            continue
        for q, d in zip(queues, combo):
            loads[d] = loads.get(d, 0.0) + cost[q][d]
        makespan = max(loads.values())
        migrations = sum(1 for q, d in zip(queues, combo) if preferred[q] != d)
        if makespan < best_makespan:
            best_makespan, min_migrations = makespan, migrations
        elif makespan == best_makespan and migrations < min_migrations:
            min_migrations = migrations
    assert res.makespan == pytest.approx(best_makespan)
    got_migrations = sum(
        1 for q, d in res.mapping.items() if preferred[q] != d
    )
    assert got_migrations == min_migrations


@settings(max_examples=100, deadline=None)
@given(
    n_queues=st.integers(min_value=1, max_value=5),
    n_devices=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_greedy_fallback_quality_and_determinism(n_queues, n_devices, data):
    """The large-pool greedy fallback stays within the documented 2x factor
    of the true optimum and is fully deterministic."""
    queues = [f"q{i}" for i in range(n_queues)]
    devices = [f"d{i}" for i in range(n_devices)]
    cost = {
        q: {
            d: data.draw(
                st.one_of(
                    st.floats(min_value=0.001, max_value=100.0),
                    st.just(math.inf),
                ),
                label=f"{q}/{d}",
            )
            for d in devices
        }
        for q in queues
    }
    feasible = all(
        any(math.isfinite(cost[q][d]) for d in devices) for q in queues
    )
    if not feasible:
        with pytest.raises(MapperError):
            greedy_mapping(queues, devices, cost)
        return
    greedy = greedy_mapping(queues, devices, cost)
    assert not greedy.exact
    # Deterministic: identical result on a second run.
    again = greedy_mapping(queues, devices, cost)
    assert again.mapping == greedy.mapping
    assert again.makespan == greedy.makespan
    # Claimed makespan is what the mapping actually achieves.
    loads = greedy.device_loads(cost)
    assert max(loads.values()) == pytest.approx(greedy.makespan)
    # Within the documented factor of optimal (LPT alone guarantees 4/3 on
    # identical machines; on unrelated machines with refinement, 2x is a
    # generous enforced envelope).
    exact = brute_force_mapping(queues, devices, cost)
    assert greedy.makespan <= 2.0 * exact.makespan + 1e-9


def test_exact_limit_forces_greedy_fallback():
    devices = ["a", "b"]
    queues = [f"q{i}" for i in range(EXACT_LIMIT + 1)]
    cost = {q: {d: 1.0 for d in devices} for q in queues}
    res = optimal_mapping(queues, devices, cost)
    assert not res.exact
    assert res.makespan == pytest.approx(9.0)
    # One queue fewer stays on exact search.
    assert optimal_mapping(queues[:-1], devices, cost).exact


def test_greedy_seed_preserves_exact_results_on_bench_instance():
    """The greedy-seeded, bound-pruned search returns the same mapping as an
    unseeded exhaustive tie-break search (seeding only cuts exploration)."""
    queues = [f"q{i}" for i in range(8)]
    devices = ["cpu", "gpu0", "gpu1", "gpu2"]
    cost = {
        q: {d: 1.0 + ((i * 7 + j * 3) % 5) * 0.37 for j, d in enumerate(devices)}
        for i, q in enumerate(queues)
    }
    res = optimal_mapping(queues, devices, cost)
    brute = brute_force_mapping(queues, devices, cost)
    assert res.makespan == pytest.approx(brute.makespan)
    assert res.explored < brute.explored


@settings(max_examples=50, deadline=None)
@given(
    costs=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6
    )
)
def test_makespan_bounds(costs):
    """Makespan lies between max single cost and the total (1 device)."""
    queues = [f"q{i}" for i in range(len(costs))]
    devices = ["a", "b"]
    cost = {q: {d: c for d in devices} for q, c in zip(queues, costs)}
    res = optimal_mapping(queues, devices, cost)
    assert res.makespan >= max(costs) - 1e-12
    assert res.makespan <= sum(costs) + 1e-12

"""Ridge model machinery: exact solves, serialization, single-flight store.

The fit-once/load-many contract is bit-exact: floats survive the JSON
round trip via ``repr``, so a model fitted in one process and loaded in
another predicts *identical* values — the property the shared
``MULTICL_PREDICT_DIR`` cache (and every checksum downstream) relies on.
"""

import json
import multiprocessing
import os
import random
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profile_store import node_fingerprint
from repro.hardware.presets import aji_cluster15_node
from repro.predict import (
    PredictorModel,
    RidgeHead,
    load_or_fit,
    model_path,
)
from repro.predict.features import KernelFeatures, extract_program
from repro.predict.model import _FOLD_CHUNK, _solve, _solve_many

SPEC = aji_cluster15_node()

WORKLOAD_SRC = (
    "// @multicl flops_per_item=220 bytes_per_item=8 divergence=0.1 "
    "irregularity=0.2 cpu_eff=0.9 gpu_eff=0.6 writes=1\n"
    "__kernel void scale(__global float* a, int n) {\n"
    "  int i = get_global_id(0);\n"
    "  a[i] = a[i] * 2.0f;\n"
    "}\n"
)
FEAT = extract_program(WORKLOAD_SRC)["scale"]


@pytest.fixture(scope="session")
def fitted_dir(tmp_path_factory):
    """One fitted-model directory for the whole session (fit is ~1s)."""
    path = tmp_path_factory.mktemp("predict-models")
    load_or_fit(SPEC, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# RidgeHead numerics
# ---------------------------------------------------------------------------
def test_ridge_recovers_exact_linear_relation():
    head = RidgeHead(dim=2, lam=0.0)
    for x in (0.0, 1.0, 2.0, 5.0, -3.0):
        head.add([1.0, x], 2.0 + 3.0 * x)
    w = head.solve()
    assert w[0] == pytest.approx(2.0, abs=1e-9)
    assert w[1] == pytest.approx(3.0, abs=1e-9)
    assert head.predict([1.0, 10.0], w) == pytest.approx(32.0, abs=1e-8)


def _reference_add(xtx, xty, x, y):
    """The row-at-a-time accumulation ``RidgeHead.add`` ran before the
    batch fold: in place, skipping every term of a zero ``x[i]``."""
    for i in range(len(x)):
        xi = x[i]
        if xi == 0.0:
            continue
        row = xtx[i]
        for j in range(len(x)):
            row[j] += xi * x[j]
        xty[i] += xi * y


def _bits(head):
    """The head's statistics as exact bit patterns (``-0.0 != 0.0``)."""
    return [[v.hex() for v in row] for row in head.xtx], [v.hex() for v in head.xty]


# Exact zeros of both signs and negatives, at magnitudes whose products and
# sums round differently in any other order.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _fold_case(draw):
    dim = draw(st.integers(1, 5))
    row = st.lists(_VALUES, min_size=dim, max_size=dim)
    start = draw(st.lists(row, max_size=dim))
    rows = draw(st.lists(row, max_size=2 * _FOLD_CHUNK + 3))
    ys = draw(st.lists(_VALUES, min_size=len(rows), max_size=len(rows)))
    splits = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return dim, start, rows, ys, sorted(splits)


@settings(max_examples=60, deadline=None)
@given(_fold_case())
def test_fold_matches_row_by_row_accumulation_bitwise(case):
    dim, start, rows, ys, splits = case
    # A head that already holds statistics, some of them -0.0 (which a
    # skipped term must leave as it is).
    head = RidgeHead(dim)
    head.xtx = [[-0.0 if (i + j) % 3 == 0 else 0.0 for j in range(dim)] for i in range(dim)]
    head.xty = [-0.0] * dim
    for x in start:
        _reference_add(head.xtx, head.xty, x, 0.5)
    head.count = len(start)
    want = RidgeHead(dim)
    want.xtx = [row[:] for row in head.xtx]
    want.xty = head.xty[:]
    for x, y in zip(rows, ys):
        _reference_add(want.xtx, want.xty, x, y)
    # Any batching of the rows, including batches that cross a chunk.
    for lo, hi in zip([0] + splits, splits + [len(rows)]):
        head.fold(rows[lo:hi], ys[lo:hi])
    assert _bits(head) == _bits(want)
    assert head.count == len(start) + len(rows)


def test_add_is_a_one_row_fold():
    rows = [[1.0, 0.0, -2.5], [0.0, 3.0, 1e-300], [-0.0, 1e300, 7.0]]
    ys = [0.25, -1.0, 3.0]
    one, batch = RidgeHead(3), RidgeHead(3)
    for x, y in zip(rows, ys):
        one.add(x, y)
    batch.fold(rows, ys)
    assert _bits(one) == _bits(batch) and one.count == batch.count == 3


def test_fold_rejects_mismatched_dimensions():
    head = RidgeHead(dim=3)
    with pytest.raises(ValueError, match="expected 3 features, got 2"):
        head.add([1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match="expected 3 features, got 4"):
        head.fold([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="2 rows but 1 targets"):
        head.fold([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], [1.0])
    # A rejected fold leaves the head untouched.
    assert head.count == 0 and head.xty == [0.0] * 3
    head.fold([], [])
    assert head.count == 0


def test_ridge_solve_is_deterministic_and_extra_layering_matches():
    base = RidgeHead(dim=2, lam=1e-6)
    combined = RidgeHead(dim=2, lam=1e-6)
    extra = RidgeHead(dim=2, lam=0.0)
    points = [([1.0, x], 1.0 - 0.5 * x) for x in (0.0, 1.0, 4.0)]
    late = [([1.0, x], 1.0 - 0.5 * x) for x in (7.0, 9.0)]
    for x, y in points:
        base.add(x, y)
        combined.add(x, y)
    for x, y in late:
        extra.add(x, y)
        combined.add(x, y)
    assert base.solve() == base.solve()  # bit-identical re-solve
    assert base.solve(extra) == combined.solve()
    assert base.inverse(extra) == combined.inverse()


def _reference_solve(a, b):
    """The one-right-hand-side elimination ``_solve`` ran before it
    wrapped ``_solve_many``."""
    k = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(k):
        pivot = col
        best = abs(m[col][col])
        for r in range(col + 1, k):
            mag = abs(m[r][col])
            if mag > best:
                best = mag
                pivot = r
        if best == 0.0:
            raise ZeroDivisionError("singular normal matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv_p = 1.0 / m[col][col]
        for r in range(col + 1, k):
            factor = m[r][col] * inv_p
            if factor == 0.0:
                continue
            row_r = m[r]
            row_c = m[col]
            for c in range(col, k + 1):
                row_r[c] -= factor * row_c[c]
    x = [0.0] * k
    for col in range(k - 1, -1, -1):
        total = m[col][k]
        row = m[col]
        for c in range(col + 1, k):
            total -= row[c] * x[c]
        x[col] = total / row[col]
    return x


@pytest.mark.parametrize("seed", range(40))
def test_solve_many_matches_one_column_solves_bitwise(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 9)
    # Sparse rows give zero factors; unordered magnitudes force pivot swaps.
    a = [
        [
            0.0 if rng.random() < 0.3 else rng.uniform(-1.0, 1.0) * 10 ** rng.randint(-3, 3)
            for _ in range(k)
        ]
        for _ in range(k)
    ]
    for i in range(k):
        if all(v == 0.0 for v in a[i]):
            a[i][i] = 1.0
    bs = [[rng.uniform(-5.0, 5.0) for _ in range(k)] for _ in range(rng.randint(1, k + 2))]
    bs.append([1.0 if i == 0 else 0.0 for i in range(k)])
    try:
        want = [_reference_solve(a, b) for b in bs]
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _solve_many(a, bs)
        return
    got = _solve_many(a, bs)
    assert [[v.hex() for v in x] for x in got] == [[v.hex() for v in x] for x in want]
    assert _solve(a, bs[0]) == want[0]


def test_solve_many_covers_pivot_swaps_and_zero_factors():
    # Column 0 pivots on row 2; row 1 has a zero in column 0 (factor 0).
    a = [[1.0, 2.0, 0.5], [0.0, 3.0, 1.0], [4.0, -1.0, 2.0]]
    bs = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [3.0, -2.0, 7.5]]
    assert _solve_many(a, bs) == [_reference_solve(a, b) for b in bs]
    with pytest.raises(ZeroDivisionError):
        _solve_many([[0.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]])


def test_ridge_inverse_columns_are_lone_solves():
    head = RidgeHead(dim=4, lam=1e-3)
    for x in ([1.0, 2.0, 0.0, 1.5], [1.0, -1.0, 3.0, 0.0], [1.0, 0.5, 0.5, -2.0]):
        head.add(x, 1.0)
    a, _ = head._combined(None)
    cols = [
        _reference_solve(a, [1.0 if i == j else 0.0 for i in range(4)])
        for j in range(4)
    ]
    assert head.inverse() == [[cols[j][i] for j in range(4)] for i in range(4)]


def test_ridge_round_trips_through_dict():
    head = RidgeHead(dim=3, lam=1e-6)
    head.add([1.0, 2.0, 3.0], 0.5)
    head.add([1.0, -1.0, 0.25], -2.0)
    clone = RidgeHead.from_dict(head.to_dict())
    assert clone.solve() == head.solve()
    assert clone.count == head.count and clone.lam == head.lam


# ---------------------------------------------------------------------------
# Fitted model: accuracy and serialization
# ---------------------------------------------------------------------------
def test_fitted_model_round_trips_bit_identical(fitted_dir):
    model, computed = load_or_fit(SPEC, fitted_dir)
    assert not computed  # session fixture already fitted it
    clone = PredictorModel.from_dict(model.to_dict())
    n = 1 << 14
    assert clone.predict(FEAT, n) == model.predict(FEAT, n)


def test_save_then_load_predicts_bit_identical(fitted_dir, tmp_path):
    model, _ = load_or_fit(SPEC, fitted_dir)
    shutil.copy(model_path(SPEC, fitted_dir), model_path(SPEC, str(tmp_path)))
    loaded, fitted = load_or_fit(SPEC, str(tmp_path))
    assert not fitted and loaded is not model
    assert loaded.fingerprint == model.fingerprint
    for n in (1 << 8, 1 << 14, 1 << 20):
        assert loaded.predict(FEAT, n) == model.predict(FEAT, n)


def test_predictor_and_model_share_one_prediction_formula(fitted_dir):
    """The runtime predictor (cached weights) and the base model (fresh
    solves) give the same float for every device at every width."""
    from repro.predict import Predictor

    model, _ = load_or_fit(SPEC, fitted_dir)
    predictor = Predictor(
        model,
        kinds={d: m.kind for d, m in model.devices.items()},
        overheads={d: m.overhead for d, m in model.devices.items()},
    )
    for n in (1, 100, 1 << 10, 1 << 16, 3 << 20):
        expected = model.predict(FEAT, n)
        for d in model.devices:
            assert predictor.predict_seconds(FEAT, d, n) == expected[d]


def _refit_from(content, fitted_dir, tmp_path):
    """Plant ``content`` as the model file in ``tmp_path``; assert the store
    re-fits it into a file byte-identical to a fresh fit's."""
    path = model_path(SPEC, str(tmp_path))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    model, fitted = load_or_fit(SPEC, str(tmp_path))
    assert fitted
    assert model.fingerprint == node_fingerprint(SPEC)
    assert path.read_bytes() == model_path(SPEC, fitted_dir).read_bytes()


def test_load_rejects_corrupt_and_mismatched_files(fitted_dir, tmp_path):
    _refit_from("{ not json", fitted_dir, tmp_path)
    _refit_from('{"schema": 999}', fitted_dir, tmp_path)


def test_stale_model_file_is_refitted(fitted_dir, tmp_path):
    """The locked re-read applies the same checks as the first read: a
    file of another node or an older schema is re-fitted, never returned."""
    swapped = json.loads(model_path(SPEC, fitted_dir).read_text())
    swapped["fingerprint"] = "deadbeef"
    _refit_from(json.dumps(swapped), fitted_dir, tmp_path)
    _refit_from('{"schema": 1}', fitted_dir, tmp_path)


def test_fitted_model_is_accurate_on_workload_kernel(fitted_dir):
    """The model must track the roofline closely for in-hull kernels."""
    from repro.hardware.topology import SimNode
    from repro.ocl.source import parse_program_source
    from repro.sim.engine import SimEngine
    from repro.hardware.cost import KernelCost, kernel_time

    model, _ = load_or_fit(SPEC, fitted_dir)
    engine = SimEngine()
    node = SimNode(engine, SPEC)
    n = 1 << 16
    info = parse_program_source(WORKLOAD_SRC)[0]
    cost = KernelCost(
        flops=FEAT.flops_per_item * n,
        bytes=FEAT.bytes_per_item * n,
        work_items=n,
        divergence=FEAT.divergence,
        irregularity=FEAT.irregularity,
        efficiency={},
    )
    del info
    predicted = model.predict(FEAT, n)
    for device in node.device_list():
        eff = FEAT.eff_for(device.spec.kind.value)
        true_cost = KernelCost(
            flops=cost.flops,
            bytes=cost.bytes,
            work_items=n,
            divergence=cost.divergence,
            irregularity=cost.irregularity,
            efficiency={device.spec.kind: eff},
        )
        task = device.submit_kernel("probe", kernel_time(device.spec, true_cost))
        engine.run_until(task)
        truth = task.duration
        rel = abs(predicted[device.name] - truth) / truth
        assert rel < 0.05, f"{device.name}: rel error {rel:.4f}"


# ---------------------------------------------------------------------------
# Single-flight across processes
# ---------------------------------------------------------------------------
def _fit_race_worker(predict_dir, barrier, queue):
    from repro.predict import load_or_fit as lof

    barrier.wait()
    model, computed = lof(SPEC, predict_dir)
    value = model.predict(FEAT, 1 << 14)
    queue.put((os.getpid(), computed, sorted(value.items())))


def test_racing_processes_fit_exactly_once_and_agree(tmp_path):
    n = 3
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n)
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_fit_race_worker, args=(str(tmp_path), barrier, queue)
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=120) for _ in range(n)]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    computed_flags = [computed for _, computed, _ in results]
    assert computed_flags.count(True) == 1, "fit must run in one process"
    predictions = {tuple(value) for _, _, value in results}
    assert len(predictions) == 1, "losers must load bit-identical weights"

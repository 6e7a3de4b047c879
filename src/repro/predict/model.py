"""Ridge regression from static features to kernel cost.

No sklearn: the normal equations are accumulated as sufficient statistics
(``X^T X``, ``X^T y``) by one in-order numpy fold (:meth:`RidgeHead.fold`),
kept as plain lists, and solved by Gaussian elimination with partial
pivoting.  Every operation is deterministic IEEE float arithmetic over a
deterministic corpus order, so a fit is bit-identical across processes,
which is what lets a ``--jobs N`` fleet share one fitted model through the
single-flight store.

Each device gets a :class:`DeviceTimeModel`.  The simulator's roofline is
``overhead + max(compute term, memory term)`` with each term multiplicative
in its inputs, so the model has *two* log-space linear heads
(compute-bound, memory-bound) combined with ``max(exp(.), exp(.))`` at
prediction time.  Occupancy's ``min(1, n/saturation)`` kink and the
``-log(1 - penalty·z)`` penalty curves are linearised with hinge and
polynomial basis features.

:class:`PredictorModel` bundles the device models with the node
fingerprint, with JSON (de)serialisation that round-trips floats exactly
(``repr`` round-trip guarantee), so fit-once/load-many is bit-identical.
"""

from __future__ import annotations

from math import exp, log
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.predict.features import KernelFeatures

__all__ = [
    "RidgeHead",
    "DeviceTimeModel",
    "PredictorModel",
    "compute_feature_vector",
    "memory_feature_vector",
    "DEFAULT_LAMBDA",
]

_TINY = 1e-12

#: Ridge regularisation.  Small: the probe corpus is dense and exactly
#: realisable in the basis, so the penalty only needs to keep the normal
#: matrix invertible.
DEFAULT_LAMBDA = 1e-6

#: Degree of the polynomial basis approximating ``-log(1 - penalty·z)`` for
#: the divergence/irregularity penalty curves (<= ~2% at the workload max).
_PENALTY_DEGREE = 8

#: Knots (in log2 work-items) of the hinge basis representing occupancy's
#: ``-log min(1, n/saturation)``: exact when a device's saturation point is
#: a power of two, a tight piecewise-linear fit otherwise.
_HINGE_KNOTS = tuple(range(4, 17))

#: Observations :meth:`RidgeHead.fold` multiplies out per numpy step; its
#: scratch array is ``(_FOLD_CHUNK + 1) * dim * (dim + 1)`` floats at most.
_FOLD_CHUNK = 64


def compute_feature_vector(
    feat: KernelFeatures, kind_value: str, work_items: int
) -> List[float]:
    """Basis for the compute-bound head: log per-item body seconds.

    True compute term: ``log f - log(peak·bce·eff) - log(1 - dp·div)
    - log occupancy`` — linear in ``log f`` and ``log eff``, polynomial in
    divergence, hinged in ``log2 n``.  Body-count features ride along so
    online corrections can attach to what the annotations miss.
    """
    e = feat.eff_for(kind_value)
    u = _log2(max(work_items, 1))
    d = feat.divergence
    x = [1.0, log(feat.flops_per_item + _TINY)]
    power = 1.0
    for _ in range(_PENALTY_DEGREE):
        power *= d
        x.append(power)
    x.append(log(max(e, _TINY)))
    x.extend(
        (
            feat.branch_density,
            float(feat.loop_nest_depth),
            float(feat.barrier_count),
            log(feat.arg_bytes + 1.0),
        )
    )
    x.extend(max(0.0, k - u) for k in _HINGE_KNOTS)
    return x


def memory_feature_vector(
    feat: KernelFeatures, kind_value: str, work_items: int
) -> List[float]:
    """Basis for the memory-bound head: log per-item body seconds.

    True memory term: ``log b - log(bw·bme·eff) - log(1 - ip·irr)`` — no
    occupancy factor (the simulator applies occupancy to compute only), so
    no hinge features.
    """
    del work_items  # memory bandwidth is occupancy-independent here
    e = feat.eff_for(kind_value)
    irr = feat.irregularity
    x = [1.0, log(feat.bytes_per_item + _TINY)]
    power = 1.0
    for _ in range(_PENALTY_DEGREE):
        power *= irr
        x.append(power)
    x.append(log(max(e, _TINY)))
    x.extend(
        (
            feat.branch_density,
            float(feat.loop_nest_depth),
            float(feat.barrier_count),
            log(feat.arg_bytes + 1.0),
        )
    )
    return x


def _log2(n: int) -> float:
    return log(n) / log(2.0)


def _solve(a: List[List[float]], b: List[float]) -> List[float]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting.

    Operates on copies; deterministic for identical inputs (no
    randomisation, stable pivot tie-breaking by first maximal row).
    """
    return _solve_many(a, [b])[0]


def _solve_many(
    a: List[List[float]], bs: Sequence[Sequence[float]]
) -> List[List[float]]:
    """Solve ``a x = b`` for every ``b`` in ``bs`` with one elimination.

    Pivot choices and row factors depend on ``a`` alone, so each right-hand
    side goes through exactly the operations a lone :func:`_solve` of it
    would apply: the solutions are bit-identical to solving one at a time.
    """
    k = len(a)
    width = k + len(bs)
    m = [row[:] + [b[i] for b in bs] for i, row in enumerate(a)]
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
            for c in range(col, width):
                row_r[c] -= factor * row_c[c]
    xs = []
    for j in range(k, width):
        x = [0.0] * k
        for col in range(k - 1, -1, -1):
            row = m[col]
            total = row[j]
            for c in range(col + 1, k):
                total -= row[c] * x[c]
            x[col] = total / row[col]
        xs.append(x)
    return xs


class RidgeHead:
    """One ridge-regression output accumulated as sufficient statistics.

    ``fold`` adds (x, y) observations into ``X^T X`` / ``X^T y`` and ``add``
    is the fold of one; ``solve`` returns the weights of
    ``(X^T X + λI) w = X^T y``.  A second :class:`RidgeHead` can be layered
    on at solve time (``extra``) — that is how runtime observations correct
    a shared immutable base model without mutating it.
    """

    __slots__ = ("dim", "lam", "count", "xtx", "xty")

    def __init__(self, dim: int, lam: float = DEFAULT_LAMBDA) -> None:
        self.dim = dim
        self.lam = lam
        self.count = 0
        self.xtx: List[List[float]] = [[0.0] * dim for _ in range(dim)]
        self.xty: List[float] = [0.0] * dim

    def add(self, x: Sequence[float], y: float) -> None:
        self.fold([x], [y])

    def fold(self, xs: Sequence[Sequence[float]], ys: Sequence[float]) -> None:
        """Add the observations ``(xs[k], ys[k])`` in order.

        Row after row, each statistic gets ``+= x_i * x_j`` or
        ``+= x_i * y``, skipping the terms of a zero ``x_i``: the IEEE
        operations of adding one row at a time, in the same order, so the
        floats do not depend on the batching.  A skipped term is written as
        ``-0.0`` (adding it changes no float), and ``np.add.accumulate``
        sums strictly in row order.
        """
        dim = self.dim
        for x in xs:
            if len(x) != dim:
                raise ValueError(f"expected {dim} features, got {len(x)}")
        if len(ys) != len(xs):
            raise ValueError(f"{len(xs)} rows but {len(ys)} targets")
        if not xs:
            return
        x = np.array(xs, dtype=float)
        # Column ``dim`` carries y, so one product gives both statistics.
        xy = np.column_stack((x, np.array(ys, dtype=float)))
        chunk = min(len(x), _FOLD_CHUNK)
        # Row 0 holds the running sums, rows 1.. one chunk's terms.
        acc = np.empty((chunk + 1, dim, dim + 1))
        acc[0, :, :dim] = self.xtx
        acc[0, :, dim] = self.xty
        # Like Python floats, overflow to inf without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(x), chunk):
                xk = x[start : start + chunk]
                k = len(xk)
                terms = acc[1 : k + 1]
                np.multiply(xk[:, :, None], xy[start : start + k, None, :], out=terms)
                terms[xk == 0.0] = -0.0
                np.add.accumulate(acc[: k + 1], axis=0, out=acc[: k + 1])
                acc[0] = acc[k]
        self.xtx = acc[0, :, :dim].tolist()
        self.xty = acc[0, :, dim].tolist()
        self.count += len(x)

    def _combined(
        self, extra: Optional["RidgeHead"]
    ) -> Tuple[List[List[float]], List[float]]:
        a = [row[:] for row in self.xtx]
        b = self.xty[:]
        if extra is not None:
            if extra.dim != self.dim:
                raise ValueError("mismatched head dimensions")
            for i in range(self.dim):
                row = a[i]
                erow = extra.xtx[i]
                for j in range(self.dim):
                    row[j] += erow[j]
                b[i] += extra.xty[i]
        for i in range(self.dim):
            a[i][i] += self.lam
        return a, b

    def solve(self, extra: Optional["RidgeHead"] = None) -> List[float]:
        a, b = self._combined(extra)
        return _solve(a, b)

    def inverse(self, extra: Optional["RidgeHead"] = None) -> List[List[float]]:
        """Inverse of the regularised normal matrix (for leverage)."""
        a, _ = self._combined(extra)
        k = self.dim
        eye = [[1.0 if i == j else 0.0 for i in range(k)] for j in range(k)]
        cols = _solve_many(a, eye)
        # cols[j] is the j-th column; transpose to rows (symmetric anyway,
        # up to float noise).
        return [[cols[j][i] for j in range(k)] for i in range(k)]

    def predict(self, x: Sequence[float], weights: Sequence[float]) -> float:
        total = 0.0
        for i in range(self.dim):
            total += weights[i] * x[i]
        return total

    def to_dict(self) -> Dict[str, object]:
        return {
            "dim": self.dim,
            "lam": self.lam,
            "count": self.count,
            "xtx": [list(row) for row in self.xtx],
            "xty": list(self.xty),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RidgeHead":
        head = cls(int(data["dim"]), lam=float(data["lam"]))
        head.count = int(data["count"])
        head.xtx = [[float(v) for v in row] for row in data["xtx"]]
        head.xty = [float(v) for v in data["xty"]]
        return head


class DeviceTimeModel:
    """Per-device execution-time model: two log-space heads plus overhead."""

    __slots__ = ("device", "kind", "overhead", "compute", "memory")

    def __init__(
        self,
        device: str,
        kind: str,
        overhead: float,
        compute: Optional[RidgeHead] = None,
        memory: Optional[RidgeHead] = None,
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        self.device = device
        self.kind = kind
        #: per-launch overhead measured at fit time (an empty probe kernel)
        self.overhead = overhead
        self.compute = compute or RidgeHead(
            _compute_dim(), lam=lam
        )
        self.memory = memory or RidgeHead(_memory_dim(), lam=lam)

    def predict_seconds(
        self,
        feat: KernelFeatures,
        work_items: int,
        compute_weights: Optional[Sequence[float]] = None,
        memory_weights: Optional[Sequence[float]] = None,
        overhead: Optional[float] = None,
    ) -> float:
        """Predicted seconds of one launch of ``work_items`` items.

        Callers on a hot path should pass pre-solved weights; without them
        each call re-solves the normal equations.  ``overhead`` replaces the
        launch overhead measured at fit time (a runtime's own profile).
        """
        wc = compute_weights if compute_weights is not None else self.compute.solve()
        wm = memory_weights if memory_weights is not None else self.memory.solve()
        xc = compute_feature_vector(feat, self.kind, work_items)
        xm = memory_feature_vector(feat, self.kind, work_items)
        body = max(exp(self.compute.predict(xc, wc)), exp(self.memory.predict(xm, wm)))
        if overhead is None:
            overhead = self.overhead
        return overhead + work_items * body

    def to_dict(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "kind": self.kind,
            "overhead": self.overhead,
            "compute": self.compute.to_dict(),
            "memory": self.memory.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DeviceTimeModel":
        return cls(
            device=str(data["device"]),
            kind=str(data["kind"]),
            overhead=float(data["overhead"]),
            compute=RidgeHead.from_dict(data["compute"]),
            memory=RidgeHead.from_dict(data["memory"]),
        )


class PredictorModel:
    """A fitted predictor for one node: one time model per device.

    Immutable by convention once fitted: runtime corrections are layered on
    by :class:`repro.predict.Predictor` without touching these statistics,
    so one instance can be shared by every runtime in a process.
    """

    SCHEMA_VERSION = 2

    __slots__ = ("fingerprint", "lam", "devices")

    def __init__(
        self,
        fingerprint: str,
        devices: Dict[str, DeviceTimeModel],
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        self.fingerprint = fingerprint
        self.lam = lam
        self.devices = devices

    @classmethod
    def fit(cls, spec, lam: float = DEFAULT_LAMBDA) -> "PredictorModel":
        """Fit a model for ``spec`` from the probe corpus (see
        :func:`repro.predict.corpus.fit_model`)."""
        from repro.predict.corpus import fit_model

        return fit_model(spec, lam=lam)

    def predict(
        self, feat: KernelFeatures, work_items: int
    ) -> Dict[str, float]:
        """Per-device predicted seconds for one launch (uncached solves)."""
        return {
            name: m.predict_seconds(feat, work_items)
            for name, m in self.devices.items()
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "lam": self.lam,
            "devices": {
                name: m.to_dict() for name, m in sorted(self.devices.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PredictorModel":
        if int(data.get("schema", -1)) != cls.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported predictor model schema: {data.get('schema')!r}"
            )
        return cls(
            fingerprint=str(data["fingerprint"]),
            lam=float(data["lam"]),
            devices={
                name: DeviceTimeModel.from_dict(d)
                for name, d in data["devices"].items()
            },
        )


def _compute_dim() -> int:
    return len(
        compute_feature_vector(KernelFeatures(name="_probe"), "cpu", 1)
    )


def _memory_dim() -> int:
    return len(
        memory_feature_vector(KernelFeatures(name="_probe"), "cpu", 1)
    )

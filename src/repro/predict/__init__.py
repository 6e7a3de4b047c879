"""repro.predict — profiling-free scheduling from static kernel features.

The paper's dynamic profiler must run every kernel once per device before
the mapper can place anything well, which makes cold-start epochs the
dominant cost for unseen kernels (minikernels shrink each run, not the
count).  Following Johnston et al. ("OpenCL Performance Prediction using
Architecture-Independent Features") and PySchedCL, this package predicts
per-device kernel cost from *static* source features with zero profiling
epochs, leaving the dynamic profiler as a corrector:

* :mod:`repro.predict.features` — deterministic, purely text-based feature
  extraction over parsed kernel sources;
* :mod:`repro.predict.model` — plain-Python ridge regression (normal
  equations) from feature vectors to cost-descriptor fields and per-device
  execution time;
* :mod:`repro.predict.corpus` — the offline probe corpus the models are
  fitted on (measured through a throwaway simulated platform, so fitting
  charges nothing to any application clock);
* :mod:`repro.predict.store` — single-flight on-disk persistence of fitted
  models (``MULTICL_PREDICT_DIR``), so a ``--jobs N`` fleet fits once;
* :class:`Predictor` — the runtime object the kernel profiler consults:
  confidence-gated prediction, observed-vs-predicted residual tracking,
  online re-fit when relative error exceeds :attr:`Predictor.tolerance`,
  and per-device invalidation on fault-driven device loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.lru import BoundedLRU
from repro.predict.features import KernelFeatures, extract, extract_program
from repro.predict.model import (
    CostFieldModel,
    DeviceTimeModel,
    PredictorModel,
    RidgeHead,
    compute_feature_vector,
    memory_feature_vector,
)
from repro.predict.store import (
    PREDICT_DIR_ENV,
    default_predict_dir,
    load_or_fit,
    model_path,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel_profiler import KernelProfiler
    from repro.ocl.queue import Command

__all__ = [
    "KernelFeatures",
    "extract",
    "extract_program",
    "RidgeHead",
    "DeviceTimeModel",
    "CostFieldModel",
    "PredictorModel",
    "Predictor",
    "PredictorStats",
    "attach_predictor",
    "PREDICT_DIR_ENV",
    "default_predict_dir",
    "model_path",
    "load_or_fit",
]

_TINY = 1e-21

#: Residual records retained per device (oldest dropped beyond this).
_MAX_RESIDUALS = 256


@dataclass
class PredictorStats:
    """Counters for tests and the evaluation harness."""

    predictions: int = 0
    declines: int = 0
    observations: int = 0
    refits: int = 0
    #: residual/extra records dropped by fault-driven device invalidation
    invalidations: int = 0


class Predictor:
    """Runtime prediction state consulted by the kernel profiler.

    Wraps an (immutable, possibly process-shared) fitted
    :class:`~repro.predict.model.PredictorModel` with per-runtime state:
    online-observation sufficient statistics, solved-weight caches, and
    residual records.  The base model is never mutated, so one fitted model
    loaded from the store can safely back many runtimes in one process.
    """

    #: Corrector-loop tolerance: when a kernel *is* measured (decline or
    #: iterative refresh) and the prediction's relative error exceeds this,
    #: the observation is folded back into the model.
    tolerance = 0.25
    #: Minimum leverage-gated confidence required to skip measurement.
    min_confidence = 0.5

    def __init__(
        self,
        model: PredictorModel,
        kinds: Dict[str, str],
        overheads: Dict[str, float],
    ) -> None:
        self.model = model
        #: device name -> DeviceKind value ("cpu"/"gpu"/"accelerator")
        self.kinds = dict(kinds)
        #: device name -> measured per-launch overhead (static profile)
        self.overheads = dict(overheads)
        self.stats = PredictorStats()
        #: device -> list of (kernel name, relative error), bounded
        self.residuals: Dict[str, List[Tuple[str, float]]] = {}
        #: (device, head) -> runtime observation stats layered on the base
        self._extras: Dict[Tuple[str, str], RidgeHead] = {}
        #: device -> (compute weights, memory weights), invalidated on refit
        self._weights: Dict[str, Tuple[List[float], List[float]]] = {}
        #: (device, head) -> inverse normal matrix for leverage
        self._inverses: Dict[Tuple[str, str], List[List[float]]] = {}
        #: (program id, kernel name) -> extracted features
        self._features: BoundedLRU = BoundedLRU(256)
        #: devices invalidated by a fault whose next observation must force
        #: a re-fit (re-arm), regardless of how small its residual is
        self._invalidated: set = set()

    # ------------------------------------------------------------------
    # Feature access
    # ------------------------------------------------------------------
    def features_for(self, kernel) -> KernelFeatures:
        key = (id(kernel.program), kernel.name)
        feat = self._features.get(key)
        if feat is None:
            feat = extract(kernel.info, kernel.program.source)
            self._features.put(key, feat)
        return feat

    # ------------------------------------------------------------------
    # Solved-weight / leverage caches
    # ------------------------------------------------------------------
    def _device_weights(self, device: str) -> Tuple[List[float], List[float]]:
        cached = self._weights.get(device)
        if cached is None:
            m = self.model.devices[device]
            cached = (
                m.compute.solve(self._extras.get((device, "compute"))),
                m.memory.solve(self._extras.get((device, "memory"))),
            )
            self._weights[device] = cached
        return cached

    def _inverse(self, device: str, head: str) -> List[List[float]]:
        key = (device, head)
        inv = self._inverses.get(key)
        if inv is None:
            m = self.model.devices[device]
            base = m.compute if head == "compute" else m.memory
            inv = base.inverse(self._extras.get(key))
            self._inverses[key] = inv
        return inv

    def _drop_caches(self, device: str) -> None:
        self._weights.pop(device, None)
        self._inverses.pop((device, "compute"), None)
        self._inverses.pop((device, "memory"), None)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def confidence(self, feat: KernelFeatures, device: str, n: int) -> float:
        """Confidence in [0, 1] that (kernel, device, n) is in-model.

        ``1 / (1 + leverage)`` with leverage measured against the fitted
        corpus: far outside the probe hull the normal-equations leverage
        blows up and the predictor declines in favour of a measurement.
        """
        kind = self.kinds[device]
        conf = 1.0
        for head, x in (
            ("compute", compute_feature_vector(feat, kind, n)),
            ("memory", memory_feature_vector(feat, kind, n)),
        ):
            inv = self._inverse(device, head)
            conf = min(conf, 1.0 / (1.0 + _quadratic_form(inv, x)))
        return conf

    def predict_seconds(self, feat: KernelFeatures, device: str, n: int) -> float:
        """Predicted full execution seconds of one launch on ``device``."""
        wc, wm = self._device_weights(device)
        kind = self.kinds[device]
        yc = _dot(wc, compute_feature_vector(feat, kind, n))
        ym = _dot(wm, memory_feature_vector(feat, kind, n))
        body = max(exp(yc), exp(ym))
        m = self.model.devices[device]
        overhead = self.overheads.get(device, m.overhead)
        return overhead + n * body

    def predict_command(
        self, cmd: "Command", devices: List[str]
    ) -> Optional[Dict[str, float]]:
        """Per-device predicted seconds for a kernel command, or ``None``.

        Declines (returns ``None``) when the kernel carries a custom cost
        model (its cost is not a function of the static source), when a
        device is unknown to the fitted model, or when any device's
        confidence falls below the threshold.  A decline means "measure".
        """
        kernel = cmd.kernel
        if kernel is None or cmd.launch is None:
            return None
        if kernel._cost_model is not None:
            self.stats.declines += 1
            return None
        feat = self.features_for(kernel)
        out: Dict[str, float] = {}
        for d in devices:
            if d not in self.model.devices or d not in self.kinds:
                self.stats.declines += 1
                return None
            n = kernel.effective_config(d, cmd.launch).work_items
            if self.confidence(feat, d, n) < self.min_confidence:
                self.stats.declines += 1
                return None
            out[d] = self.predict_seconds(feat, d, n)
        self.stats.predictions += 1
        return out

    # ------------------------------------------------------------------
    # Corrector loop
    # ------------------------------------------------------------------
    def observe(self, cmd: "Command", device: str, seconds: float) -> float:
        """Record an observed measurement; re-fit if the residual is large.

        Returns the relative error of the current prediction.  When it
        exceeds the tolerance the observation is folded into the runtime
        sufficient statistics of the binding head (compute- or memory-bound,
        whichever the model currently believes) and that device's weights
        are re-solved — the dynamic profiler acting as corrector.
        """
        kernel = cmd.kernel
        assert kernel is not None and cmd.launch is not None
        if device not in self.model.devices:
            return 0.0
        feat = self.features_for(kernel)
        n = kernel.effective_config(device, cmd.launch).work_items
        predicted = self.predict_seconds(feat, device, n)
        rel = abs(predicted - seconds) / max(abs(seconds), _TINY)
        records = self.residuals.setdefault(device, [])
        records.append((kernel.name, rel))
        if len(records) > _MAX_RESIDUALS:
            del records[: len(records) - _MAX_RESIDUALS]
        self.stats.observations += 1
        # A device invalidated by a fault (slowdown cleared, device
        # recovered) re-anchors on its first healthy measurement even when
        # the residual is within tolerance — the stale weights may be
        # coincidentally close at this one operating point.
        rearmed = device in self._invalidated
        self._invalidated.discard(device)
        if (rel > self.tolerance or rearmed) and kernel._cost_model is None:
            kind = self.kinds.get(device)
            if kind is not None:
                wc, wm = self._device_weights(device)
                xc = compute_feature_vector(feat, kind, n)
                xm = memory_feature_vector(feat, kind, n)
                head, x = (
                    ("compute", xc)
                    if _dot(wc, xc) >= _dot(wm, xm)
                    else ("memory", xm)
                )
                m = self.model.devices[device]
                overhead = self.overheads.get(device, m.overhead)
                y = log(max((seconds - overhead) / n, _TINY))
                base = m.compute if head == "compute" else m.memory
                extra = self._extras.get((device, head))
                if extra is None:
                    extra = RidgeHead(base.dim, lam=0.0)
                    self._extras[(device, head)] = extra
                extra.add(x, y)
                self._drop_caches(device)
                self.stats.refits += 1
        return rel

    def invalidate_device(self, device: str) -> int:
        """Drop ``device``'s residual state after a fault and re-arm it.

        Called on fail-stop (a dead device's residuals must not poison
        re-fits on the degraded pool) and on slowdown edges (observations
        taken under a transient slowdown — or predictions fitted before
        one cleared — are wrong for the device's current speed).  The
        device gets a fresh residual ring, its slowdown-era online
        observations are discarded, and it is marked re-armed so the next
        :meth:`observe` forces a re-fit even if the residual happens to be
        within tolerance.  Returns the number of records dropped.
        """
        removed = 0
        records = self.residuals.pop(device, None)
        if records:
            removed += len(records)
        for head in ("compute", "memory"):
            extra = self._extras.pop((device, head), None)
            if extra is not None:
                removed += extra.count
        self._drop_caches(device)
        self._invalidated.add(device)
        self.stats.invalidations += removed
        return removed


def _dot(a: List[float], b: List[float]) -> float:
    total = 0.0
    for i in range(len(a)):
        total += a[i] * b[i]
    return total


def _quadratic_form(inv: List[List[float]], x: List[float]) -> float:
    """x^T inv x (leverage against the fitted normal matrix)."""
    total = 0.0
    for i, row in enumerate(inv):
        total += x[i] * _dot(row, x)
    return max(total, 0.0)


def attach_predictor(profiler: "KernelProfiler") -> Predictor:
    """Build (or load) the predictor for ``profiler``'s platform and attach.

    Resolution order for the model directory: ``MULTICL_PREDICT_DIR``, else
    ``<platform profile_dir>/predict``, else
    ``<default profile cache>/predict``.  Loading is single-flight across
    processes; fitting charges a throwaway simulated platform, never the
    application's clock.
    """
    context = profiler.context
    platform = context.platform
    predict_dir = default_predict_dir(profile_dir=platform._profile_dir)
    model, _computed = load_or_fit(platform.spec, predict_dir)
    profile = platform.device_profile
    kinds = {
        d.name: d.spec.kind.value for d in platform.node.device_list()
    }
    predictor = Predictor(
        model,
        kinds=kinds,
        overheads=dict(profile.launch_overhead_s),
    )
    profiler.predictor = predictor
    return predictor

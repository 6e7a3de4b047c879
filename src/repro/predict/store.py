"""On-disk persistence of fitted predictor models.

Fitting a :class:`~repro.predict.model.PredictorModel` measures ~500
probes per device on a throwaway engine — cheap, but not free, and a
``--jobs N`` benchmark fleet would otherwise fit N identical models.
This module stores fitted models as JSON through the same single-flight
flock machinery as the device-profile cache
(:func:`repro.core.profile_store.load_or_compute_json`): when N processes
race on a cold model file, exactly one fits and saves, the rest block and
load.  JSON float serialisation round-trips exactly, so a loaded model is
bit-identical to the fitted one.

Layout: one file per (node fingerprint, schema version) under the predict
directory, which resolves from ``MULTICL_PREDICT_DIR``, else
``<profile dir>/predict``, else ``<default profile cache>/predict``.
Embedding the schema version in the *name* means a runtime upgrade never
trips over stale incompatible files — it just fits fresh alongside them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

from repro import knobs
from repro.core import profile_store
from repro.hardware.specs import NodeSpec
from repro.lru import BoundedLRU
from repro.predict.model import DEFAULT_LAMBDA, PredictorModel

__all__ = [
    "PREDICT_DIR_ENV",
    "default_predict_dir",
    "model_path",
    "load_model",
    "save_model",
    "load_or_fit",
    "clear_models",
]

#: Environment variable overriding the predictor model directory.
PREDICT_DIR_ENV = "MULTICL_PREDICT_DIR"

#: (resolved path, mtime_ns, size) -> deserialised model.  Distinct
#: runtimes in one process (a bench loop) share the loaded model object;
#: the base model is immutable so sharing is safe.
_model_memo: BoundedLRU = BoundedLRU(8)


def default_predict_dir(profile_dir: Optional[str] = None) -> Path:
    """Resolve the model directory.

    Priority: ``MULTICL_PREDICT_DIR``, then a ``predict/`` subdirectory of
    the profile cache directory in use (explicit ``profile_dir`` or the
    device-profile default) — so profile and predictor caches travel
    together unless told otherwise.
    """
    chosen = knobs.get(PREDICT_DIR_ENV)
    if chosen:
        return Path(chosen)
    if profile_dir:
        return Path(profile_dir) / "predict"
    return profile_store.default_cache_dir() / "predict"


def model_path(spec: NodeSpec, predict_dir: Optional[Path] = None) -> Path:
    base = Path(predict_dir) if predict_dir else default_predict_dir()
    fingerprint = profile_store.node_fingerprint(spec)
    return base / (
        f"predict-model-v{PredictorModel.SCHEMA_VERSION}"
        f"-{spec.name}-{fingerprint}.json"
    )


def save_model(
    model: PredictorModel, spec: NodeSpec, predict_dir: Optional[Path] = None
) -> Path:
    """Atomically persist a fitted model; returns the file path."""
    return profile_store.save_json(
        model_path(spec, predict_dir), model.to_dict()
    )


def load_model(
    spec: NodeSpec, predict_dir: Optional[Path] = None
) -> Optional[PredictorModel]:
    """Load the stored model for ``spec``, or None on a miss.

    Missing, corrupt, schema-mismatched, or wrong-fingerprint files are
    all misses (the caller re-fits); a hit is memoised in-process keyed by
    file identity so repeated runtime constructions skip the JSON parse.
    """
    path = model_path(spec, predict_dir)
    try:
        stat = path.stat()
    except OSError:
        return None
    memo_key = (str(path), stat.st_mtime_ns, stat.st_size)
    model = _model_memo.get(memo_key)
    if model is not None:
        return model
    payload = profile_store.load_json(path)
    if payload is None:
        return None
    try:
        model = PredictorModel.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    if model.fingerprint != profile_store.node_fingerprint(spec):
        return None
    _model_memo.put(memo_key, model)
    return model


def load_or_fit(
    spec: NodeSpec,
    predict_dir: Optional[Path] = None,
    lam: float = DEFAULT_LAMBDA,
) -> Tuple[PredictorModel, bool]:
    """Single-flight model retrieval: ``(model, fitted)``.

    ``fitted`` is True iff this call ran the fit.  N racing processes fit
    exactly once; the rest block on the lock and load the saved file.
    """
    model = load_model(spec, predict_dir)
    if model is not None:
        return model, False
    path = model_path(spec, predict_dir)

    def _compute():
        from repro.predict.corpus import fit_model

        return fit_model(spec, lam=lam).to_dict()

    payload, computed = profile_store.load_or_compute_json(path, _compute)
    model = PredictorModel.from_dict(payload)
    return model, computed


def clear_models(
    spec: NodeSpec, predict_dir: Optional[Path] = None
) -> bool:
    """Delete the stored model for ``spec``; True if one existed."""
    path = model_path(spec, predict_dir)
    if path.exists():
        path.unlink()
        return True
    return False

"""On-disk persistence of fitted predictor models.

Fitting a :class:`~repro.predict.model.PredictorModel` measures 1,152
probes per device on a throwaway engine — cheap, but not free, and a
``--jobs N`` benchmark fleet would otherwise fit N identical models.
Models go through the node's one artifact store
(:func:`repro.core.profile_store.cached`), the same single-flight store as
the device profiles: when N processes race on a cold model file, exactly
one fits and saves, the rest block and load; a missing, corrupt,
wrong-fingerprint or wrong-schema file is re-fitted.  JSON float
serialisation round-trips exactly, so a loaded model is bit-identical to
the fitted one, and one unchanged file decodes to one model object shared
by every runtime in the process.

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
from repro.predict.model import PredictorModel

__all__ = [
    "PREDICT_DIR_ENV",
    "default_predict_dir",
    "model_path",
    "load_or_fit",
]

#: Environment variable overriding the predictor model directory.
PREDICT_DIR_ENV = "MULTICL_PREDICT_DIR"


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


def _fit(spec: NodeSpec):
    from repro.predict.corpus import fit_model

    return fit_model(spec).to_dict()


def load_or_fit(
    spec: NodeSpec, predict_dir: Optional[Path] = None
) -> Tuple[PredictorModel, bool]:
    """Single-flight model retrieval: ``(model, fitted)``.

    ``fitted`` is True iff this call ran the fit.  N racing processes fit
    exactly once; the rest block on the lock and load the saved file.  The
    stored model is always fitted at the default λ; a model at another λ
    comes from :func:`repro.predict.corpus.fit_model` directly.
    """
    return profile_store.cached(
        model_path(spec, predict_dir),
        spec,
        lambda: _fit(spec),
        PredictorModel.from_dict,
    )

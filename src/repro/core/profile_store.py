"""On-disk cache for static device profiles.

The paper (Section V.A): "the device profiler ... retrieves the static
device profile from the profile cache.  If the profile cache does not
exist, then the runtime runs data bandwidth and instruction throughput
benchmarks and caches the measured metrics as static per-device profiles
in the user's file system.  The profile cache location can be controlled
by environment variables.  The benchmarks are run again only if the
system configuration changes."

We store one JSON file per node configuration.  The file name embeds a
fingerprint of the node spec, so adding/removing/retuning devices — a
"system configuration change" — naturally misses the cache and re-runs the
microbenchmarks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

try:  # POSIX; on platforms without fcntl the lock degrades to a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro import knobs
from repro.hardware.specs import NodeSpec
from repro.lru import BoundedLRU

__all__ = [
    "PROFILE_CACHE_ENV",
    "default_cache_dir",
    "node_fingerprint",
    "cache_path",
    "load_profile_dict",
    "save_profile_dict",
    "load_or_compute",
    "load_json",
    "save_json",
    "locked",
    "load_or_compute_json",
    "clear_cache",
]

#: Environment variable overriding the profile cache directory.
PROFILE_CACHE_ENV = "MULTICL_PROFILE_CACHE"

#: (path, mtime_ns, size) -> parsed JSON payload of the last profile read.
_read_memo: Dict[Any, Dict[str, Any]] = {}

#: Equality key of a NodeSpec -> digest.  NodeSpec itself is unhashable
#: (its ``host_links`` is a dict), so the key is the hashable equivalent of
#: its equality tuple.  Shares the bounded-LRU implementation with the
#: source-parse memo (:mod:`repro.lru`): eviction drops the least recently
#: used spec, not merely the oldest.
_FP_MEMO_MAX = 64
_fp_memo: BoundedLRU = BoundedLRU(_FP_MEMO_MAX)


def _fp_memo_key(spec: NodeSpec) -> Any:
    """Hashable key with the same equality semantics as the spec itself."""
    return (spec.name, spec.devices, tuple(sorted(spec.host_links.items())))


def default_cache_dir() -> Path:
    """Resolve the cache directory (env var, else ``~/.cache/multicl``)."""
    env = knobs.get(PROFILE_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "multicl"


def node_fingerprint(spec: NodeSpec) -> str:
    """Stable hash of everything scheduling-relevant about the node.

    Memoised on the (frozen, hence immutable) spec object: runtimes are
    frequently constructed against the same node spec, and serialising the
    full spec through ``dataclasses.asdict`` + json on every construction
    dominated runtime startup.
    """
    cached = getattr(spec, "_fingerprint_memo", None)
    if cached is not None:
        return cached
    # Equality fallback: distinct-but-equal spec instances (each runtime
    # construction may build its own) share the digest without
    # re-serialising.  Bounded LRU — repeated distinct specs can never
    # grow the memo past _FP_MEMO_MAX entries.
    key = _fp_memo_key(spec)
    digest = _fp_memo.get(key)
    if digest is None:
        payload = json.dumps(_spec_to_jsonable(spec), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        _fp_memo.put(key, digest)
    object.__setattr__(spec, "_fingerprint_memo", digest)
    return digest


def _spec_to_jsonable(spec: NodeSpec) -> Dict[str, Any]:
    return {
        "name": spec.name,
        "devices": [
            {**dataclasses.asdict(d), "kind": d.kind.value} for d in spec.devices
        ],
        "host_links": {
            k: dataclasses.asdict(v) for k, v in sorted(spec.host_links.items())
        },
    }


def cache_path(spec: NodeSpec, cache_dir: Optional[str] = None) -> Path:
    base = Path(cache_dir) if cache_dir else default_cache_dir()
    return base / f"device-profile-{spec.name}-{node_fingerprint(spec)}.json"


def load_profile_dict(
    spec: NodeSpec, cache_dir: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """Load the cached profile for ``spec``, or None on a cache miss.

    A corrupt cache file is treated as a miss (and will be overwritten by
    the next save), matching the robustness a production runtime needs.
    """
    path = cache_path(spec, cache_dir)
    try:
        stat = path.stat()
    except OSError:
        return None
    # In-process read cache keyed by (path, mtime, size): repeated runtime
    # constructions against an unchanged profile file skip the JSON parse.
    memo_key = (str(path), stat.st_mtime_ns, stat.st_size)
    data = _read_memo.get(memo_key)
    if data is None:
        try:
            with path.open("r") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, OSError):
            return None
        _read_memo.clear()  # keep at most one file's worth of memo
        _read_memo[memo_key] = data
    if data.get("fingerprint") != node_fingerprint(spec):
        return None
    return data


def save_json(path: Path, payload: Dict[str, Any]) -> Path:
    """Atomically persist ``payload`` as JSON at ``path``.

    The write goes to a uniquely-named temporary file in the target
    directory followed by an atomic rename, so concurrent writers cannot
    corrupt each other's staging file and a concurrent reader only ever
    sees a complete file (or none).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_json(path: Path) -> Optional[Dict[str, Any]]:
    """Load a JSON payload from ``path``; missing or corrupt file -> None.

    A corrupt file is treated as a miss (and will be overwritten by the
    next save), matching the robustness a production runtime needs.
    """
    try:
        with Path(path).open("r") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError):
        return None


def save_profile_dict(
    spec: NodeSpec, payload: Dict[str, Any], cache_dir: Optional[str] = None
) -> Path:
    """Persist a measured profile; returns the file path."""
    path = cache_path(spec, cache_dir)
    payload = dict(payload)
    payload["fingerprint"] = node_fingerprint(spec)
    return save_json(path, payload)


@contextlib.contextmanager
def locked(path: Path) -> Iterator[None]:
    """Advisory cross-process lock guarding the file at ``path``.

    Implemented as ``flock`` on a sibling ``.lock`` file, which the kernel
    releases automatically if the holder dies.  Degrades to a no-op where
    ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_suffix(path.suffix + ".lock")
    fd = os.open(str(lock_path), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        with contextlib.suppress(OSError):
            fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def load_or_compute_json(
    path: Path, compute: Callable[[], Dict[str, Any]]
) -> Tuple[Dict[str, Any], bool]:
    """Generic single-flight cached JSON retrieval at an explicit path.

    Returns ``(payload, computed)`` where ``computed`` is True iff this
    call ran ``compute``.  When N processes race on a cold file, exactly
    one computes: the first to take the lock computes and saves; the rest
    block on the lock and then re-read the freshly written file.  The
    device-profile store and the predict-model store
    (:mod:`repro.predict.store`) both sit on this machinery.
    """
    path = Path(path)
    cached = load_json(path)
    if cached is not None:
        return cached, False
    with locked(path):
        cached = load_json(path)
        if cached is not None:
            return cached, False
        payload = dict(compute())
        save_json(path, payload)
        return payload, True


def load_or_compute(
    spec: NodeSpec,
    compute: Callable[[], Dict[str, Any]],
    cache_dir: Optional[str] = None,
) -> Tuple[Dict[str, Any], bool]:
    """Single-flight cached profile retrieval.

    Returns ``(payload, computed)`` where ``computed`` is True iff this
    call ran ``compute``.  When N processes race on a cold cache, exactly
    one measures: the first to take the lock computes and saves; the rest
    block on the lock and then re-read the freshly written cache.
    """
    cached = load_profile_dict(spec, cache_dir)
    if cached is not None:
        return cached, False
    path = cache_path(spec, cache_dir)
    with locked(path):
        cached = load_profile_dict(spec, cache_dir)
        if cached is not None:
            return cached, False
        payload = dict(compute())
        payload["fingerprint"] = node_fingerprint(spec)
        save_profile_dict(spec, payload, cache_dir)
        return payload, True


def clear_cache(spec: NodeSpec, cache_dir: Optional[str] = None) -> bool:
    """Delete the cached profile for ``spec``; True if one existed."""
    path = cache_path(spec, cache_dir)
    if path.exists():
        path.unlink()
        return True
    return False

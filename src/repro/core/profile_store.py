"""The node's on-disk cache: static device profiles and predictor models.

The paper (Section V.A): "the device profiler ... retrieves the static
device profile from the profile cache.  If the profile cache does not
exist, then the runtime runs data bandwidth and instruction throughput
benchmarks and caches the measured metrics as static per-device profiles
in the user's file system.  The profile cache location can be controlled
by environment variables.  The benchmarks are run again only if the
system configuration changes."

Every cached artifact of a node configuration (the device profile here,
the fitted predictor model in :mod:`repro.predict.store`) is one JSON file
read and written through :func:`cached`.  The file name embeds a
fingerprint of the node spec, so adding/removing/retuning devices — a
"system configuration change" — naturally misses the cache and re-runs the
microbenchmarks; the payload is stamped with the same fingerprint, and a
file that fails any check is recomputed, never trusted.

The module also owns the harness-wide shared directory
(``MULTICL_PROFILE_DIR``, else a per-process tempdir removed at exit) that
the experiment fleet and the replay shards share, and :func:`warm`, the one
warm-up every fleet runs before its first workload.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

try:  # POSIX; on platforms without fcntl the lock degrades to a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro import knobs
from repro.hardware.specs import NodeSpec
from repro.lru import BoundedLRU

__all__ = [
    "PROFILE_CACHE_ENV",
    "PROFILE_DIR_ENV",
    "default_cache_dir",
    "node_fingerprint",
    "cache_path",
    "save_json",
    "locked",
    "cached",
    "shared_dir",
    "set_profile_dir",
    "warm",
    "fork_map",
]

#: Environment variable overriding the profile cache directory.
PROFILE_CACHE_ENV = "MULTICL_PROFILE_CACHE"

#: Environment variable naming the harness-wide shared profile directory.
#: When set, every harness process (and every worker of a parallel fleet)
#: shares one device-profile cache instead of re-measuring per process.
PROFILE_DIR_ENV = "MULTICL_PROFILE_DIR"

#: (path, mtime_ns, size) -> decoded value of a file that passed the checks.
#: Decoded values are shared by every caller; none of them mutates one.
_memo: BoundedLRU = BoundedLRU(8)

#: The resolved shared directory, and the tempdir fallback this process
#: created (removed at interpreter exit).
_SHARED_DIR: Optional[str] = None
_OWNED_DIR: Optional[str] = None

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


def _read(path: Path, fingerprint: str, decode: Callable[[Dict[str, Any]], Any]):
    """The decoded artifact at ``path``, or None on a miss: a missing or
    unparsable file, a stamped fingerprint other than ``fingerprint``, or
    a payload ``decode`` rejects."""
    try:
        stat = path.stat()
    except OSError:
        return None
    # Keyed by file identity: repeated runtime constructions against an
    # unchanged file skip the parse and share the decoded value.
    memo_key = (str(path), stat.st_mtime_ns, stat.st_size)
    value = _memo.get(memo_key)
    if value is None:
        try:
            with path.open("r") as fh:
                payload = json.load(fh)
            if payload["fingerprint"] != fingerprint:
                return None
            value = decode(payload)
        except (OSError, KeyError, TypeError, ValueError):
            return None
        _memo.put(memo_key, value)
    return value


def cached(
    path: Path,
    spec: NodeSpec,
    compute: Callable[[], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Any],
) -> Tuple[Any, bool]:
    """Single-flight cached artifact of ``spec`` at ``path``.

    Returns ``(value, computed)`` where ``computed`` is True iff this call
    ran ``compute``.  A file that is missing, corrupt, stamped with another
    node's fingerprint or rejected by ``decode`` (``KeyError``,
    ``TypeError``, ``ValueError``) is a miss.  On a miss the payload is
    computed, stamped with the fingerprint, saved atomically and decoded.
    When N processes race on a cold file, exactly one computes: the first
    to take the lock computes and saves; the rest block on the lock, then
    re-read the file under the same checks.
    """
    path = Path(path)
    fingerprint = node_fingerprint(spec)
    value = _read(path, fingerprint, decode)
    if value is not None:
        return value, False
    with locked(path):
        value = _read(path, fingerprint, decode)
        if value is not None:
            return value, False
        payload = dict(compute(), fingerprint=fingerprint)
        save_json(path, payload)
        return decode(payload), True


# ---------------------------------------------------------------------------
# The harness-wide shared directory and its warm-up
# ---------------------------------------------------------------------------
def _cleanup_owned_dir() -> None:
    global _OWNED_DIR
    if _OWNED_DIR is not None:
        shutil.rmtree(_OWNED_DIR, ignore_errors=True)
        _OWNED_DIR = None


atexit.register(_cleanup_owned_dir)


def shared_dir() -> str:
    """Resolve the shared profile directory for this process.

    Honors ``MULTICL_PROFILE_DIR``; otherwise falls back to a single
    tempdir per process that is removed at exit (no leaked
    ``multicl-profile-*`` directories).
    """
    global _SHARED_DIR, _OWNED_DIR
    if _SHARED_DIR is None:
        env = knobs.get(PROFILE_DIR_ENV)
        if env:
            os.makedirs(env, exist_ok=True)
            _SHARED_DIR = env
        else:
            _SHARED_DIR = _OWNED_DIR = tempfile.mkdtemp(prefix="multicl-profile-")
    return _SHARED_DIR


def set_profile_dir(path: Optional[str]) -> None:
    """Pin the shared profile directory (``None`` re-resolves lazily).

    The initializer of every fleet worker, so all of them share one cache.
    An owned tempdir fallback is cleaned up before repinning.
    """
    global _SHARED_DIR
    if path is not None and path != _OWNED_DIR:
        _cleanup_owned_dir()
    if path is not None:
        os.makedirs(path, exist_ok=True)
    _SHARED_DIR = path


def warm(specs: Iterable[Any], profile_dir: Optional[str] = None) -> str:
    """Load or measure the device profile of each spec into ``profile_dir``.

    ``None`` in ``specs`` is the default testbed node.  ``profile_dir`` is
    pinned as the shared directory (``None`` resolves it).  On a cold
    cache the microbenchmarks charge the simulated engine before any
    workload starts, shifting every later timestamp; once warm, every
    platform on these specs, in this process or a forked worker, starts
    at time 0, so results never depend on the cache's prior state.
    Returns the directory.
    """
    from repro.ocl.platform import Platform

    if profile_dir is None:
        profile_dir = shared_dir()
    else:
        set_profile_dir(profile_dir)
    for spec in specs:
        Platform(spec, profile=True, profile_dir=profile_dir)
    return profile_dir


def fork_map(fn, tasks, jobs: int, profile_dir: str) -> list:
    """Order-preserving process map whose workers share ``profile_dir``.

    The fleet machinery under both the experiment runner and the replay
    shards: prefer ``fork`` (workers inherit interpreter state — hash
    seed, imports, warm caches), ``chunksize=1`` to load-balance skewed
    task durations, and results in input order so merging stays
    deterministic.  Every worker pins ``profile_dir`` before its first
    task; ``jobs=1`` (or a single task) runs in-process after the same
    pin, so both paths see identical setup.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    tasks = list(tasks)
    jobs = max(int(jobs), 1)
    if jobs == 1 or len(tasks) <= 1:
        set_profile_dir(profile_dir)
        return [fn(t) for t in tasks]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        mp_context=ctx,
        initializer=set_profile_dir,
        initargs=(profile_dir,),
    ) as pool:
        return list(pool.map(fn, tasks, chunksize=1))

"""Every ``MULTICL_*`` environment knob, in one table, read by one function.

The paper exposes its runtime switches as "a program environment flag"
(Section V.C.1).  Each row of :data:`KNOBS` names one such variable with
its type, default and valid range; :func:`get` is the only place in the
package that reads the environment, and it behaves the same way for every
knob:

* unset or ``""`` means the default;
* booleans accept ``1``/``true``/``yes``/``on`` and ``0``/``false``/
  ``no``/``off`` (any case);
* an invalid or out-of-range value warns :class:`RuntimeWarning` once per
  (knob, raw value) and yields the default;
* a knob marked ``clamp`` clamps values below its minimum to the minimum
  instead (silently).

Like :mod:`repro.lru`, this module imports nothing from the rest of the
package, so every layer can read through it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

__all__ = ["Knob", "KNOBS", "get"]

TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class Knob:
    """One environment variable: name, type, default, valid range, doc."""

    name: str
    #: ``bool``, ``int``, ``float`` or ``str`` (a path)
    type: type
    default: Any
    doc: str
    #: smallest valid value (numeric knobs); None = unbounded
    minimum: Optional[float] = None
    #: clamp values below ``minimum`` up to it instead of rejecting them
    clamp: bool = False

    def expects(self) -> str:
        """Human description of a valid value, for the warning text."""
        if self.type is bool:
            return "one of 1/true/yes/on or 0/false/no/off"
        noun = "an integer" if self.type is int else "a number"
        return noun if self.minimum is None else f"{noun} >= {self.minimum}"


KNOBS: Dict[str, Knob] = {
    k.name: k
    for k in (
        # -- scheduler (SchedulerConfig.from_env) ---------------------------
        Knob("MULTICL_ITERATIVE_FREQUENCY", int, 0,
             "Re-measure kernel profiles every N triggers (0 = never).",
             minimum=0, clamp=True),
        Knob("MULTICL_PREDICT", bool, False,
             "Schedule unseen kernels from static-feature predictions."),
        Knob("MULTICL_PREDICT_TOLERANCE", float, 0.25,
             "Relative prediction error above which the corrector re-fits.",
             minimum=0.0),
        Knob("MULTICL_PREDICT_CONFIDENCE", float, 0.5,
             "Minimum predictor confidence needed to skip measurement.",
             minimum=0.0),
        Knob("MULTICL_MAPPER_REPAIR", bool, True,
             "Repair the mapping in place on device loss; reuse it if unchanged."),
        Knob("MULTICL_MAPPER_REPAIR_THRESHOLD", float, 1.25,
             "Keep a repair within this factor of the scaled previous makespan.",
             minimum=1.0, clamp=True),
        Knob("MULTICL_SPLIT", bool, False,
             "Split every dynamic queue's kernels across devices."),
        Knob("MULTICL_SPLIT_GRANULARITY", int, 1,
             "Split shares round to this many effective workgroups.",
             minimum=1),
        Knob("MULTICL_OVERLAP", bool, False,
             "Overlap-aware issue for every scheduled in-order queue."),
        Knob("MULTICL_SANITIZE", bool, False,
             "Validate the ready-queue pool at every scheduler trigger."),
        # -- mapper ----------------------------------------------------------
        Knob("MULTICL_MAPPER_EXACT_MAX_QUEUES", int, 16,
             "Largest pool solved exactly; larger pools map greedily.",
             minimum=0),
        # -- caches (paths; unset = the documented fallback) -----------------
        Knob("MULTICL_PROFILE_CACHE", str, None,
             "Device-profile cache directory (unset: ~/.cache/multicl)."),
        Knob("MULTICL_PROFILE_DIR", str, None,
             "Bench-harness shared profile directory (unset: a tempdir)."),
        Knob("MULTICL_PREDICT_DIR", str, None,
             "Fitted predictor model directory (unset: <profile dir>/predict)."),
        # -- service ---------------------------------------------------------
        Knob("MULTICL_TENANT_QUOTA_BYTES", int, None,
             "Default per-tenant resident-byte quota (unset: unlimited).",
             minimum=0),
        Knob("MULTICL_TENANT_MAX_SESSIONS", int, None,
             "Default cap on active tenant sessions (unset: unlimited).",
             minimum=0),
        # -- replay ----------------------------------------------------------
        Knob("MULTICL_REPLAY_CHUNK", int, 8192,
             "Replay arrivals injected per epoch.", minimum=1),
        Knob("MULTICL_REPLAY_SPILL_EVERY", int, 16384,
             "Replay streaming-trace spill threshold (resident intervals).",
             minimum=1),
        Knob("MULTICL_REPLAY_SHARDS", int, 1,
             "Default engine-mode replay shard count.", minimum=1),
    )
}

#: (knob, raw value) pairs already warned about: a bad value warns once per
#: process, not once per read (some knobs are read on every scheduler
#: trigger or tenant session).
_warned: Set[Tuple[str, str]] = set()


def _parse(knob: Knob, raw: str) -> Any:
    """``raw`` (stripped, non-empty) as the knob's type; ValueError if invalid."""
    if knob.type is bool:
        word = raw.lower()
        if word in TRUE_WORDS:
            return True
        if word in FALSE_WORDS:
            return False
        raise ValueError(raw)
    if knob.type is str:
        return raw
    value = knob.type(raw)
    if value != value:  # NaN
        raise ValueError(raw)
    if knob.minimum is not None and value < knob.minimum:
        if not knob.clamp:
            raise ValueError(raw)
        value = knob.type(knob.minimum)
    return value


def get(name: str, explicit: Any = None) -> Any:
    """The value of knob ``name``.

    ``explicit`` (a caller's own setting) wins when it is not None; then
    the environment; then the table default.  Unknown names raise
    ``KeyError``.
    """
    knob = KNOBS[name]
    if explicit is not None:
        return explicit
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default
    try:
        return _parse(knob, raw)
    except ValueError:
        if (name, raw) not in _warned:
            _warned.add((name, raw))
            warnings.warn(
                f"ignoring invalid {name}={raw!r}: expected {knob.expects()}; "
                f"using the default ({knob.default!r})",
                RuntimeWarning,
                stacklevel=2,
            )
        return knob.default

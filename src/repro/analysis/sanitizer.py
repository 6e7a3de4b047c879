"""Opt-in runtime sanitizer mode.

When enabled — ``MULTICL_SANITIZE=1`` in the environment,
``MultiCL(sanitize=True)``, or ``SchedulerConfig(sanitize=True)`` — the
context validates the ready-queue pool at **every scheduler trigger**
(sync epoch, flush, blocking wait, per-kernel trigger) before any command
issues:

* :attr:`~repro.analysis.findings.Severity.ERROR` findings (wait-list
  cycles, data races, orphaned events) raise
  :class:`~repro.analysis.findings.SanitizerError` carrying the structured
  findings;
* :attr:`~repro.analysis.findings.Severity.WARNING` findings (stale reads)
  emit :class:`~repro.analysis.findings.SanitizerWarning`.

The checks are pure graph analysis over the deferred commands, so a clean
run's schedule and simulated timings are identical with the sanitizer on.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence, TYPE_CHECKING

from repro.analysis.findings import Finding, SanitizerError, SanitizerWarning, Severity
from repro.analysis.validator import validate_pool

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.queue import CommandQueue

__all__ = ["SANITIZE_ENV", "check_pool"]

#: Environment variable turning the runtime sanitizer on for a process.
SANITIZE_ENV = "MULTICL_SANITIZE"


def check_pool(pool: Sequence["CommandQueue"]) -> List[Finding]:
    """Validate ``pool``; raise on errors, warn on warnings.

    Returns the findings (possibly empty) when nothing reached
    :attr:`Severity.ERROR`.
    """
    findings = validate_pool(pool)
    errors = [f for f in findings if f.severity >= Severity.ERROR]
    for f in findings:
        if f.severity < Severity.ERROR:
            warnings.warn(str(f), SanitizerWarning, stacklevel=3)
    if errors:
        summary = "; ".join(str(f) for f in errors)
        raise SanitizerError(
            f"sanitizer found {len(errors)} error(s) in the scheduled pool: "
            f"{summary}",
            findings=tuple(findings),
        )
    return findings

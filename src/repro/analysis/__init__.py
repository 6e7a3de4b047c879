"""Command-graph validation and runtime sanitizing for scheduled pools.

The runtime may re-map command queues to devices behind the user's back,
which makes cross-queue event dependencies, buffer residency, and
migration ordering easy to silently get wrong.  This package is the
correctness tooling for that risk, exposed three ways:

* :func:`validate_pool` — pure static analysis of a ready-queue pool's
  command DAG: wait-list cycles (reported as the actual cycle path),
  cross-queue buffer data races, stale reads, orphaned events;
* the **runtime sanitizer** (``MULTICL_SANITIZE=1`` or
  ``MultiCL(sanitize=True)``) — runs :func:`check_pool` at every
  scheduler trigger and raises :class:`SanitizerError` / emits
  :class:`SanitizerWarning` per severity;
* :func:`lint_trace` — post-hoc lint over a recorded
  :class:`~repro.sim.trace.Trace` (exclusive-resource overlaps,
  negative-time intervals, work charged to failed devices).
"""

from repro.analysis.findings import (
    Finding,
    FindingKind,
    SanitizerError,
    SanitizerWarning,
    Severity,
)
from repro.analysis.graph import CommandGraph, CommandNode, build_command_graph
from repro.analysis.sanitizer import SANITIZE_ENV, check_pool
from repro.analysis.trace_lint import lint_trace
from repro.analysis.validator import describe_deadlock, validate_pool

__all__ = [
    "Finding",
    "FindingKind",
    "Severity",
    "SanitizerError",
    "SanitizerWarning",
    "CommandGraph",
    "CommandNode",
    "build_command_graph",
    "validate_pool",
    "describe_deadlock",
    "check_pool",
    "lint_trace",
    "SANITIZE_ENV",
]

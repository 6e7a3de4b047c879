"""Discrete-event simulation substrate.

Every piece of simulated work in the reproduction — kernel executions,
PCIe/host transfers, profiling runs — is charged to the simulated time
(:attr:`~repro.sim.engine.SimEngine.now`) owned by a
:class:`~repro.sim.engine.SimEngine`.  The OpenCL layer
(:mod:`repro.ocl`) submits commands to :class:`~repro.sim.resources.FifoResource`
instances (one per device execution unit, one per transfer link) and blocks
the simulated host by advancing the engine until completion events fire.

The substrate is deliberately small but fully general: it supports arbitrary
dependency DAGs between tasks, FIFO resources with serial service, and a
:class:`~repro.sim.trace.Trace` that records per-resource busy intervals so
experiments can account exactly where virtual time went (application work vs
profiling overhead vs data staging).
"""

from repro.sim.engine import SimEngine, SimTask
from repro.sim.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPolicy,
)
from repro.sim.resources import FifoResource
from repro.sim.trace import (
    FAULT_CATEGORY,
    RECOVERY_CATEGORY,
    Trace,
    TraceInterval,
    TraceSink,
)
from repro.sim.export import (
    JsonlTraceSink,
    read_jsonl_trace,
    to_chrome_trace,
    utilization_report,
    write_chrome_trace,
)

__all__ = [
    "SimEngine",
    "SimTask",
    "FifoResource",
    "Trace",
    "TraceInterval",
    "TraceSink",
    "JsonlTraceSink",
    "read_jsonl_trace",
    "FAULT_CATEGORY",
    "RECOVERY_CATEGORY",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultPolicy",
    "FaultInjector",
    "to_chrome_trace",
    "write_chrome_trace",
    "utilization_report",
]

"""Scheduler plug-in interface between the OpenCL layer and MultiCL.

The OpenCL layer stays scheduler-agnostic: a context created with the
proposed ``CL_CONTEXT_SCHEDULER`` property instantiates a scheduler through
this registry, and queues/programs/sync points call the hooks below.  The
concrete policies (round-robin, autofit) live in :mod:`repro.core.scheduler`
and register themselves on import — mirroring how the paper's extensions
"enable different schedulers to be composed and built into an OpenCL
runtime" (Section I).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.ocl.enums import ContextScheduler
from repro.ocl.errors import InvalidValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.context import Context
    from repro.ocl.program import Program
    from repro.ocl.queue import Command, CommandQueue

__all__ = [
    "SchedulerBase",
    "register_scheduler",
    "create_scheduler",
    "registered_policies",
]


class SchedulerBase(ABC):
    """Hooks a context-wide scheduler implements."""

    def __init__(self, context: "Context") -> None:
        self.context = context

    # -- lifecycle -------------------------------------------------------
    def on_program_build(self, program: "Program") -> None:
        """Static kernel-transformation hook (minikernel creation)."""

    # -- command flow ----------------------------------------------------
    def on_enqueue(self, queue: "CommandQueue", command: "Command") -> None:
        """A command was deferred on an auto-scheduled queue."""

    @abstractmethod
    def on_sync(
        self,
        pool: Sequence["CommandQueue"],
        trigger_queue: Optional["CommandQueue"] = None,
    ) -> None:
        """Synchronization trigger: map the pooled queues and issue their
        deferred commands (the implementation must leave ``pool`` queues
        with empty pending lists)."""

    # -- fault handling ----------------------------------------------------
    def on_device_failure(self, device: str) -> None:
        """``device`` permanently failed; drop any state that names it
        (sticky assignments, cached measurements) before the degraded-pool
        rescheduling pass runs."""


#: Policies are keyed by the value passed in the context properties: the
#: built-in ContextScheduler members, or any hashable token (string, int)
#: for user-registered policies — the paper's Section I: "we enable
#: different schedulers to be composed and built into an OpenCL runtime".
_REGISTRY: Dict[object, Callable[["Context"], SchedulerBase]] = {}


def register_scheduler(
    policy: object, factory: Callable[["Context"], SchedulerBase]
) -> None:
    """Register a factory for a global scheduling policy.

    ``policy`` is the token applications pass as the
    ``CL_CONTEXT_SCHEDULER`` property value.  Built-in policies use
    :class:`~repro.ocl.enums.ContextScheduler` members; downstream code may
    register its own tokens (e.g. a string) and plug in a custom
    :class:`SchedulerBase` subclass.
    """
    _REGISTRY[policy] = factory


def registered_policies() -> List[object]:
    return sorted(_REGISTRY, key=repr)


def create_scheduler(policy: object, context: "Context") -> SchedulerBase:
    """Instantiate the scheduler for ``policy``; imports the MultiCL package
    on first use so the built-in policies are registered."""
    if policy not in _REGISTRY:
        # MultiCL registers ROUND_ROBIN and AUTO_FIT at import time.
        import repro.core  # noqa: F401  (side effect: registration)
    try:
        factory = _REGISTRY[policy]
    except KeyError:
        raise InvalidValue(
            f"no scheduler registered for policy {policy!r}; "
            f"known: {registered_policies()}"
        )
    return factory(context)

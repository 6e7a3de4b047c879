"""cl_context with the proposed ``CL_CONTEXT_SCHEDULER`` property.

A context groups devices, buffers, programs and queues; buffers can only be
shared among queues of the same context (standard OpenCL).  The extension:
``properties`` may carry ``ContextProperty.CL_CONTEXT_SCHEDULER`` mapped to
a :class:`~repro.ocl.enums.ContextScheduler` value, which instantiates a
global scheduler for the context's automatically scheduled queues.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.ocl.enums import ContextProperty, ContextScheduler, MemFlag, SchedFlag
from repro.ocl.errors import InvalidDevice, InvalidOperation, InvalidValue
from repro.ocl.issue import issue_pool
from repro.ocl.memory import Buffer
from repro.ocl.program import Program
from repro.ocl.queue import CommandQueue
from repro.ocl.scheduling import SchedulerBase, create_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.platform import Platform

__all__ = ["Context", "TENANT_PROPERTY_KEY"]

#: Context property naming the tenant a context belongs to (multi-tenant
#: service mode).  The tag propagates into every kernel/transfer task the
#: context's queues issue, so per-tenant telemetry can be derived from the
#: trace without instrumenting workloads.
TENANT_PROPERTY_KEY = "multicl.tenant"

_ids = itertools.count(1)


class Context:
    """A device-sharing scope, optionally with an automatic scheduler."""

    def __init__(
        self,
        platform: "Platform",
        device_names: Optional[Sequence[str]] = None,
        properties: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.id = next(_ids)
        self.platform = platform
        all_names = tuple(platform.device_names)
        if device_names is None:
            self.device_names: Tuple[str, ...] = all_names
        else:
            unknown = [d for d in device_names if d not in all_names]
            if unknown:
                raise InvalidDevice(
                    f"devices {unknown} not on platform (has {list(all_names)})"
                )
            if not device_names:
                raise InvalidDevice("context needs at least one device")
            self.device_names = tuple(device_names)
        self.properties: Dict[int, Any] = dict(properties or {})
        self.buffers: List[Buffer] = []
        #: device name -> bytes of buffers currently resident there, kept
        #: exact by the Buffer methods that change residency; the
        #: memory-fit checks (:meth:`bytes_to_fit`) read it in O(1).
        self._resident_bytes: Dict[str, int] = {}
        self.queues: List[CommandQueue] = []
        self.scheduler: Optional[SchedulerBase] = None
        # Re-entrancy guards for _sync_pending: fault injection can fire
        # *inside* a scheduling pass (the profiler advances virtual time)
        # and request another pass; it folds into the active one.
        self._in_sync = False
        self._resync_needed = False
        self._post_sync: List[Any] = []
        #: Tenant tag (multi-tenant service mode); stamped into every task
        #: meta this context's queues produce.
        tenant = self.properties.get(TENANT_PROPERTY_KEY)
        self.tenant: Optional[str] = str(tenant) if tenant is not None else None
        #: Cross-context arbiter (multi-tenant service mode).  When set,
        #: scheduler triggers are delegated to it instead of handing the
        #: pool straight to this context's scheduler: the arbiter decides
        #: which tenants' ready pools dispatch (and in what order) before
        #: falling back to each context's own policy for the mapping.
        self.arbiter: Optional[Any] = None
        #: Count of kernel changes that can re-price a launch already
        #: deferred (per-device configs, cost models, and arguments a cost
        #: model reads); the arbiter re-prices everything when it moves.
        self.cost_edits = 0
        #: Relaxed-pool shape -> its issue edges (:mod:`repro.ocl.issue`).
        self.pool_shapes: Dict[tuple, tuple] = {}
        # Runtime switches, resolved once: a SchedulerConfig passed in the
        # properties, else the environment; switches it leaves at None also
        # come from the environment.  The scheduler reads this same object.
        # (Imported here: repro.core sits above repro.ocl.)
        from repro.core.flags import CONFIG_PROPERTY_KEY, SchedulerConfig

        cfg = self.properties.get(CONFIG_PROPERTY_KEY)
        if cfg is None:
            cfg = SchedulerConfig.from_env()
        elif not isinstance(cfg, SchedulerConfig):
            raise TypeError(
                f"context property {CONFIG_PROPERTY_KEY!r} must be a "
                f"SchedulerConfig, got {type(cfg).__name__}"
            )
        self.config: SchedulerConfig = cfg.resolved()
        #: Opt-in runtime sanitizer (checked at every scheduler trigger).
        self.sanitize: bool = self.config.sanitize
        #: Opt-in overlap-aware issue for every in-order queue; individual
        #: queues can also opt in with SchedFlag.SCHED_OVERLAP.
        self.overlap: bool = self.config.overlap
        policy = self.properties.get(ContextProperty.CL_CONTEXT_SCHEDULER)
        if policy is not None:
            try:
                policy = ContextScheduler(policy)
            except ValueError:
                pass  # user-registered policy token (string, custom int...)
            self.scheduler = create_scheduler(policy, self)

    # ------------------------------------------------------------------
    # Object factories
    # ------------------------------------------------------------------
    def create_buffer(
        self,
        nbytes: int,
        flags: MemFlag = MemFlag.READ_WRITE,
        host_array: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> Buffer:
        """clCreateBuffer."""
        return Buffer(self, nbytes, flags=flags, host_array=host_array, name=name)

    def create_program(self, source: str) -> Program:
        """clCreateProgramWithSource."""
        return Program(self, source)

    def create_queue(
        self,
        device_name: Optional[str] = None,
        sched_flags=None,
        name: Optional[str] = None,
        out_of_order: bool = False,
    ) -> CommandQueue:
        """clCreateCommandQueue (with the proposed SCHED_* properties and
        the stock CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE)."""
        flags = SchedFlag.SCHED_OFF if sched_flags is None else SchedFlag(sched_flags)
        return CommandQueue(self, device_name, flags, name=name,
                            out_of_order=out_of_order)

    # ------------------------------------------------------------------
    # Internal registries
    # ------------------------------------------------------------------
    def _register_buffer(self, buffer: Buffer) -> None:
        self.buffers.append(buffer)

    def resident_bytes(self, device: str) -> int:
        """Total bytes of context buffers with a valid copy on ``device``."""
        return self._resident_bytes.get(device, 0)

    def bytes_to_fit(
        self, device: str, incoming: Iterable[Tuple[Buffer, int]]
    ) -> int:
        """Bytes ``device`` holds once ``incoming`` lands: its resident
        bytes plus the given size (a whole buffer or a slice of it) of each
        ``(buffer, nbytes)`` not yet resident there, a buffer listed twice
        counting once."""
        total = self._resident_bytes.get(device, 0)
        seen = set()
        for buf, nbytes in incoming:
            if id(buf) not in seen and not buf.resident_on(device):
                seen.add(id(buf))
                total += nbytes
        return total

    def _register_queue(self, queue: CommandQueue) -> None:
        self.queues.append(queue)

    # ------------------------------------------------------------------
    # Scheduling triggers
    # ------------------------------------------------------------------
    def pending_queues(self) -> List[CommandQueue]:
        """Auto queues holding deferred commands (the ready-queue pool).

        A scheduling boundary: every queue sheds its settled issued work
        here, so a tenant that goes idle lets go of its last pool.
        """
        for q in self.queues:
            q._shed_settled()
        return [q for q in self.queues if q.pending]

    @property
    def active_device_names(self) -> List[str]:
        """Context devices still available (failed devices removed)."""
        return [d for d in self.device_names if self.platform.is_available(d)]

    def after_sync(self, fn) -> None:
        """Run ``fn()`` once the current (or next) scheduling pass settles.

        If no sync is in flight the callback runs at the end of the next
        :meth:`_sync_pending` call — or immediately if that call finds an
        empty pool.  Fault recovery uses this to record queue remaps after
        the degraded-pool mapping is actually in place.
        """
        self._post_sync.append(fn)

    def _sync_pending(
        self,
        trigger_queue: Optional[CommandQueue] = None,
        pool: Optional[Sequence[CommandQueue]] = None,
    ) -> None:
        """Every scheduler trigger: hand the ready-queue pool (or, for the
        first pass, the given ``pool``) to the scheduler, which must
        profile, map, and issue.

        Re-entrant: if fault injection fires mid-pass (simulated time
        advances inside the profiler) and requeues commands, the request is
        folded into the active pass, which loops until the pool stays empty.
        """
        if self._in_sync:
            self._resync_needed = True
            return
        self._in_sync = True
        try:
            while True:
                self._resync_needed = False
                if pool is None:
                    pool = self.pending_queues()
                if not pool:
                    break
                if self.scheduler is None:
                    raise InvalidOperation(
                        "deferred commands exist but the context has no scheduler"
                    )
                if self.arbiter is not None:
                    # Service mode: the arbiter must drain *this* pool (the
                    # host is blocked on it) and may opportunistically
                    # dispatch other tenants' ready pools in fair-share
                    # order.  It sanitizes each pool it dispatches.
                    self.arbiter.on_trigger(self, pool, trigger_queue)
                else:
                    self._sanitize_check(pool)
                    self.scheduler.on_sync(pool, trigger_queue)
                leftovers = [
                    q.name for q in pool if q.pending and not self._resync_needed
                ]
                if leftovers:
                    raise InvalidOperation(
                        f"scheduler left queues with pending commands: {leftovers}"
                    )
                if not self._resync_needed:
                    break
                pool = None
        finally:
            self._in_sync = False
        callbacks, self._post_sync = self._post_sync, []
        for fn in callbacks:
            fn()

    def _sanitize_check(self, pool: Sequence[CommandQueue]) -> None:
        """Runtime sanitizer hook: validate ``pool`` before it is issued.

        No-op unless sanitize mode is on (``MULTICL_SANITIZE=1``,
        ``MultiCL(sanitize=True)``, or ``SchedulerConfig(sanitize=True)``).
        Error findings raise
        :class:`~repro.analysis.findings.SanitizerError`; warnings emit
        :class:`~repro.analysis.findings.SanitizerWarning`.
        """
        if not self.sanitize or not pool:
            return
        from repro.analysis.sanitizer import check_pool

        check_pool(pool)

    def issue_pool(
        self,
        pool: Sequence[CommandQueue],
        before_issue: Optional[Callable[[CommandQueue, Any], None]] = None,
    ) -> None:
        """Issue every deferred command of ``pool`` respecting cross-queue
        event dependencies (schedulers call this after mapping);
        ``before_issue(queue, command)`` runs just before each command
        issues.

        One dependency-driven issuer (:mod:`repro.ocl.issue`) serves every
        pool: FIFO order for plain queues, a relaxed ready queue for
        queues opted into overlap-aware issue (``SCHED_OVERLAP``, or the
        context-wide ``overlap`` switch of its config or
        ``MULTICL_OVERLAP``).
        """
        issue_pool(self, pool, before_issue)

    def finish_all(self) -> None:
        """Finish every queue in the context (a full synchronization epoch)."""
        for q in self.queues:
            if not q.released:
                q.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sched = type(self.scheduler).__name__ if self.scheduler else "manual"
        return (
            f"Context(#{self.id}, devices={list(self.device_names)}, "
            f"scheduler={sched})"
        )

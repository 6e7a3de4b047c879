"""Buffers (cl_mem) with residency tracking.

A buffer's *functional contents* live in one shared numpy array (or nowhere,
for modelled-only workloads).  What the runtime tracks per device is
*residency*: the set of holders ("host" or a device name) that currently
have a valid copy.  Residency drives every data-movement cost in the
reproduction:

* explicit Read/Write commands move host↔device copies;
* launching a kernel on a device where an argument is not resident inserts
  an implicit migration (H2D from host, or staged D2D from another device);
* the MultiCL kernel profiler stages inputs to candidate devices and — with
  the Section V.C.3 data-caching optimisation — *keeps* those staged copies
  so post-mapping execution needs no new transfer.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set, TYPE_CHECKING

from repro.ocl.enums import MemFlag
from repro.ocl.errors import InvalidValue

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.ocl.context import Context

__all__ = ["Buffer", "HOST"]

#: Residency holder name for host memory.
HOST = "host"


class Buffer:
    """A context-scoped memory object.

    Parameters
    ----------
    context:
        Owning :class:`~repro.ocl.context.Context`.
    nbytes:
        Buffer size in bytes (drives all transfer costs).
    flags:
        :class:`~repro.ocl.enums.MemFlag` bitfield.
    host_array:
        Optional numpy array holding the buffer's functional contents.  When
        provided with ``MemFlag.COPY_HOST_PTR``, the buffer starts valid on
        the host.  Modelled-only buffers pass ``None``.
    name:
        Optional label for traces and debugging; the default ``buf<n>``
        counts the buffers of the context's platform.
    """

    def __init__(
        self,
        context: "Context",
        nbytes: int,
        flags: MemFlag = MemFlag.READ_WRITE,
        host_array: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> None:
        if nbytes <= 0:
            raise InvalidValue(f"buffer size must be positive, got {nbytes}")
        if host_array is not None and host_array.nbytes == 0:
            raise InvalidValue("host_array must be non-empty when provided")
        self.context = context
        self.nbytes = int(nbytes)
        self.flags = flags
        self.array = host_array
        self.name = name or f"buf{next(context.platform._buffer_ids)}"
        #: Holders with a valid copy.  Only this class's methods change it,
        #: and each keeps the context's per-device resident-byte counters
        #: in step (see :meth:`_count`).
        self._valid_on: Set[str] = set()
        #: True after the buffer's only valid copy died with its device and
        #: residency fell back to the host shadow; cleared by the next
        #: write (:meth:`mark_exclusive`).  The sanitizer flags reads of
        #: such buffers that are not ordered behind a fresh write.
        self.host_shadow_stale = False
        #: parent buffer when this is a sub-buffer (clCreateSubBuffer)
        self.parent: Optional["Buffer"] = None
        #: byte offset into the parent's data store
        self.origin = 0
        if flags & MemFlag.COPY_HOST_PTR:
            if host_array is None:
                raise InvalidValue("COPY_HOST_PTR requires a host_array")
            self._valid_on.add(HOST)
        context._register_buffer(self)

    @property
    def valid_on(self) -> FrozenSet[str]:
        """Holders ("host" or device names) with a valid copy (a snapshot;
        change residency through the ``mark_*``/``invalidate`` methods)."""
        return frozenset(self._valid_on)

    def _count(self, holders: Iterable[str], sign: int) -> None:
        """Move the platform's resident-byte counters by ``sign * nbytes``
        for each device among ``holders`` (host copies are not counted)."""
        counts = self.context.platform._resident_bytes
        for h in holders:
            if h != HOST:
                counts[h] = counts.get(h, 0) + sign * self.nbytes

    # ------------------------------------------------------------------
    # Sub-buffers (clCreateSubBuffer)
    # ------------------------------------------------------------------
    def create_sub_buffer(
        self, origin: int, nbytes: int, name: Optional[str] = None
    ) -> "Buffer":
        """OpenCL 1.1 ``clCreateSubBuffer``: a region of this buffer.

        The sub-buffer shares the parent's functional data store (a numpy
        view when the offsets align with the parent's dtype) but tracks its
        *own* residency — per the OpenCL rule that concurrent use of a
        parent and an overlapping sub-buffer is undefined, no coherency is
        maintained between the two; use one or the other for a region.
        Sub-buffers of sub-buffers are rejected, as in OpenCL.
        """
        if self.parent is not None:
            raise InvalidValue("cannot create a sub-buffer of a sub-buffer")
        if origin < 0 or nbytes <= 0 or origin + nbytes > self.nbytes:
            raise InvalidValue(
                f"sub-buffer region [{origin}, {origin + nbytes}) outside "
                f"parent of {self.nbytes} bytes"
            )
        view = None
        if self.array is not None:
            itemsize = self.array.itemsize
            if origin % itemsize == 0 and nbytes % itemsize == 0:
                flat = self.array.reshape(-1)
                view = flat[origin // itemsize : (origin + nbytes) // itemsize]
        sub = Buffer(
            self.context,
            nbytes,
            flags=self.flags & ~MemFlag.COPY_HOST_PTR,
            host_array=view,
            name=name or f"{self.name}[{origin}:{origin + nbytes}]",
        )
        sub.parent = self
        sub.origin = origin
        # The region inherits the parent's current residency.
        sub._valid_on.update(self._valid_on)
        sub._count(sub._valid_on, +1)
        return sub

    # ------------------------------------------------------------------
    # Residency bookkeeping
    # ------------------------------------------------------------------
    def is_valid_on(self, holder: str) -> bool:
        return holder in self._valid_on

    def mark_valid(self, holder: str) -> None:
        """Add ``holder`` to the valid set (a copy landed there)."""
        if holder not in self._valid_on:
            self._valid_on.add(holder)
            self._count((holder,), +1)

    def mark_exclusive(self, holder: str) -> None:
        """The copy on ``holder`` is now the only valid one (it was written)."""
        valid = self._valid_on
        if len(valid) != 1 or holder not in valid:
            self._count(valid, -1)
            valid.clear()
            valid.add(holder)
            self._count((holder,), +1)
        self.host_shadow_stale = False

    def invalidate(self, holder: str) -> None:
        if holder in self._valid_on:
            self._valid_on.discard(holder)
            self._count((holder,), -1)

    def drop_device(self, device: str) -> bool:
        """Discard the copy on ``device`` (the device failed).

        If that was the last valid copy, residency falls back to the host
        shadow: functional payloads run on the host-side numpy array at
        issue time, so the host copy is always current in this simulator.
        Returns ``True`` if the host fallback was needed.
        """
        if device not in self._valid_on:
            return False
        self.invalidate(device)
        if not self._valid_on:
            self._valid_on.add(HOST)
            self.host_shadow_stale = True
            return True
        return False

    def any_valid_device(self) -> Optional[str]:
        """Some device holding a valid copy, or None."""
        for h in sorted(self._valid_on):
            if h != HOST:
                return h
        return None

    @property
    def initialized(self) -> bool:
        """Whether any holder has meaningful contents."""
        return bool(self._valid_on)

    def resident_on(self, device: str) -> bool:
        """Alias for :meth:`is_valid_on` restricted to devices."""
        return device in self._valid_on and device != HOST

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Buffer({self.name!r}, {self.nbytes}B, valid_on={sorted(self._valid_on)})"
        )

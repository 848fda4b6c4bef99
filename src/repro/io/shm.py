"""Zero-copy shared-memory hand-off of packet batches.

Shipping sub-batches to the serve layer's fold workers
(:class:`~repro.serve.foldpool.FoldPool`) through pickle copies every
column three times: serialize in the parent, write through the pipe,
deserialize in the child.  This module replaces the pipe with one named
``multiprocessing.shared_memory`` segment per hand-off: the parent
packs the batches as struct-of-arrays blocks (columns in
:data:`repro.packet.COLUMNS` order, 8-byte aligned) into the segment,
and only a small picklable *handle* — segment name plus block offsets —
crosses the process boundary.  Workers map the segment and rebuild
their batches as **read-only views**: no packet byte is copied anywhere
on the way in.

Lifecycle is explicitly parent-owned:

* :func:`share_batches` creates the segment and returns the handles
  plus a :class:`SegmentLease`; the parent closes the lease
  (``try/finally`` around the fold) to unlink the segment.
* Workers attach lazily on :meth:`ShmBatch.load` — a raw
  ``shm_open(O_RDONLY)`` + ``PROT_READ`` mmap, cached for the life of
  the process — so a worker crash, injected or real, can never reap a
  segment the parent (and the other fold workers) still needs: readers
  touch no resource-tracker state at all.  The kernel frees the memory
  once the parent has unlinked and the last mapping closes.
* If the *parent* dies before closing the lease, its resource tracker
  unlinks the segment at interpreter teardown — segments never outlive
  the run that created them.

Segment names are ``repro-<label>-<pid>-<random>``: label for
``ls /dev/shm`` forensics, pid + random suffix for uniqueness across
concurrent runs.  When shared memory is unavailable (no ``/dev/shm``,
exotic platforms) or the payload is too small to bother
(:data:`SHM_MIN_BYTES`), callers fall back to the pickled hand-off —
:func:`want_shared_memory` encodes that policy, and results are
bit-identical either way (pinned by ``tests/test_shm.py``).
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.packet import COLUMNS, PacketBatch

try:  # pragma: no cover - import always succeeds on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

try:  # pragma: no cover - CPython's POSIX shm primitive (Linux/macOS)
    import _posixshmem
except ImportError:  # pragma: no cover
    _posixshmem = None

#: Payloads below this many column bytes ship as pickle under the
#: ``shm=None`` auto policy — segment setup costs more than it saves.
SHM_MIN_BYTES = 1 << 20

#: Columns are packed at this alignment so every view (float64
#: included) starts on a natural boundary.
_ALIGN = 8

#: Cached result of the one-time availability probe.
_available: Optional[bool] = None

#: Per-process cache of attached segments; mappings live until process
#: exit so handed-out views can never dangle.
_attached: dict = {}


def shared_memory_available() -> bool:
    """Whether named shared-memory segments work on this host.

    Probes once by creating and unlinking a 1-byte segment; a platform
    without ``/dev/shm`` (or with it mounted unwritable) fails the
    probe and every auto-mode hand-off falls back to pickle.
    """
    global _available
    if _shared_memory is None:
        return False
    if _available is None:
        try:
            probe = _shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _available = True
        except Exception:
            _available = False
    return _available


def want_shared_memory(shm: Optional[bool], nbytes: int) -> bool:
    """The fallback policy: should this hand-off use shared memory?

    ``shm=False`` always pickles.  ``shm=True`` uses shared memory
    whenever the platform supports it, whatever the size; pickling
    silently otherwise, the documented fallback, not an error.
    ``shm=None`` (auto) engages only when the payload is worth a
    segment (:data:`SHM_MIN_BYTES`).
    """
    if shm is False:
        return False
    if not shared_memory_available():
        return False
    return True if shm else nbytes >= SHM_MIN_BYTES


def _attach(name: str):
    """Map a segment read-only, once per process, for the process's life.

    Readers deliberately bypass ``SharedMemory(name=...)``: CPython
    registers attachments with the resource tracker (bpo-39959), so a
    reader's exit could reap — or at least race the accounting of — a
    segment the parent still owns.  A raw ``shm_open(O_RDONLY)`` +
    ``PROT_READ`` mmap touches no tracker state and makes read-only an
    OS-level guarantee, not just a numpy flag.  The mapping is cached
    and never explicitly closed (views handed to detectors alias it);
    it dies with the process, after the parent's unlink has already
    removed the name.
    """
    mapped = _attached.get(name)
    if mapped is None:
        if _posixshmem is not None:
            fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0)
            try:
                mapped = mmap.mmap(
                    fd, os.fstat(fd).st_size, prot=mmap.PROT_READ
                )
            finally:
                os.close(fd)
        else:  # pragma: no cover - non-POSIX fallback (e.g. Windows)
            segment = _shared_memory.SharedMemory(name=name)
            mapped = segment._mmap
            _attached[name + "/segment"] = segment  # keep it alive
        _attached[name] = mapped
    return mapped


class SegmentLease:
    """Parent-side ownership of one named segment.

    ``close()`` unmaps and unlinks; idempotent, and tolerant of views
    the parent itself still holds (the unlink — the part that matters
    for cleanup — always happens).  Usable as a context manager.
    """

    def __init__(self, segment):
        self._segment = segment
        self.name: str = segment.name
        self.nbytes: int = segment.size

    def close(self) -> None:
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass
        try:
            segment.close()
        except BufferError:
            # A view created in this process is still alive; the
            # mapping stays until process exit, but the name is gone
            # and the memory is reclaimed with the last unmap.
            pass

    def __enter__(self) -> "SegmentLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class ShmBatch:
    """Picklable handle to one packet batch inside a segment.

    ``columns`` holds one ``(offset, dtype)`` pair per column, in
    :data:`repro.packet.COLUMNS` order.
    """

    segment: str
    columns: Tuple[Tuple[int, str], ...]
    length: int

    def load(self) -> PacketBatch:
        """Rebuild the batch as read-only views into the segment."""
        mapped = _attach(self.segment)
        arrays = []
        for offset, dtype in self.columns:
            view = np.frombuffer(
                mapped,
                dtype=np.dtype(dtype),
                count=self.length,
                offset=offset,
            )
            view.flags.writeable = False
            arrays.append(view)
        return PacketBatch(*arrays)


def resolve_batch(obj):
    """A single batch, whether shipped directly or as a handle."""
    if isinstance(obj, ShmBatch):
        return obj.load()
    return obj


def _segment_name(label: str) -> str:
    return f"repro-{label}-{os.getpid()}-{os.urandom(4).hex()}"


def share_batches(
    batches: Sequence[PacketBatch], label: str = "fold"
) -> Tuple[List[ShmBatch], SegmentLease]:
    """Pack batches into one fresh named segment, one handle each.

    The serve layer's fold hand-off: a coalesced chunk is sharded by
    source, and each sub-batch ships to its fold worker as one
    :class:`ShmBatch` handle over a single shared segment.  Zero-packet
    batches round-trip exactly.  The caller closes the lease once every
    worker has answered.
    """
    if _shared_memory is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    offset = 0
    layout: List[Tuple[Tuple[int, str], ...]] = []
    for batch in batches:
        columns = []
        for name in COLUMNS:
            column = getattr(batch, name)
            offset = -(-offset // _ALIGN) * _ALIGN
            columns.append((offset, column.dtype.str))
            offset += column.nbytes
        layout.append(tuple(columns))
    segment = _shared_memory.SharedMemory(
        create=True, size=max(offset, 1), name=_segment_name(label)
    )
    try:
        for batch, columns in zip(batches, layout):
            for name, (col_offset, _) in zip(COLUMNS, columns):
                column = getattr(batch, name)
                dest = np.frombuffer(
                    segment.buf,
                    dtype=column.dtype,
                    count=len(batch),
                    offset=col_offset,
                )
                dest[:] = column
                del dest  # release the buffer export
    except BaseException:
        segment.unlink()
        segment.close()
        raise
    handles = [
        ShmBatch(segment.name, columns, len(batch))
        for batch, columns in zip(batches, layout)
    ]
    return handles, SegmentLease(segment)

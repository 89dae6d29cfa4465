"""Zero-copy publication of :class:`~repro.cost.context.CostContext` payloads.

A sharded brute-force call ships the same expensive payload — pinned
supports, the expected-distance matrix, per-candidate sorted CDF columns,
rank-merge tables — to every worker.  A *persistent* pool cannot inherit
later payloads by ``fork``, and re-pickling megabytes per call is exactly
the overhead the persistent pool exists to kill.  This module publishes the
payload to :mod:`multiprocessing.shared_memory` once and describes it with
a small picklable :class:`PayloadDescriptor`; the chunk protocol then ships
only the descriptor, a work slice and (for pruned enumerations) the pruning
threshold of :mod:`repro.runtime.incumbent`, and workers attach the
segments zero-copy.  Pruned maps need the expected matrix (and, for the
unassigned objective, the pinned supports) materialized before publication
so the workers' bound kernels run on the shared bytes — the brute-force
callers' seeding step guarantees that ordering.  Only payloads that contain
a ``CostContext`` are published here; every other payload (experiment
settings, plain values) takes the parallel runtime's pickled transport.

Serialization
-------------
There is one: pickle.  The context pickles to a few stacked arrays (its
``__getstate__``), and publishing pickles it with protocol 5 and a
``buffer_callback`` (PEP 574), so its arrays travel as out-of-band
buffers instead of in the pickle stream.  Loading is ``pickle.loads`` over
read-only views of those buffers, so the rebuilt arrays alias the
segment's bytes and nothing is copied.  The pickled transport loads the
same state from in-band bytes, so both transports hand workers equal
objects, and every downstream kernel is a pure function of those bytes:
results with shared memory on equal results with it off, at every worker
count.

Layout
------
A segment holds byte buffers back to back (8-byte aligned); its
:class:`SegmentDescriptor` records each buffer's offset and length.  The
*context segment* holds the context's out-of-band buffers followed by
its in-band pickle.  The rest of the payload (chunk sizes, assignment
policies) is pickled into the descriptor with a persistent id standing in
for the context; that pickle's own out-of-band buffers (e.g. a policy's
score matrix) go into a second, *per-call* segment.

Lifecycle
---------
Segments are refcounted explicitly, not via the resource tracker:

* the *publisher* (parent) owns each segment through a :class:`SegmentLease`
  and unlinks it deterministically — on publication-cache eviction, on
  :func:`close_all_publications`, or at interpreter exit;
* *workers* attach without registering with the resource tracker (Python
  3.11 registers on attach, which would let a worker's tracker unlink a
  segment the parent still owns — the classic bpo-38119 double-unlink) and
  cache a bounded number of payloads.  An attachment closes itself once
  the last array over it is collected (:func:`unpack_arrays`), so a cache
  eviction only drops a payload and can never unmap an array still in use.

``publish_payload`` memoizes per-context publications keyed on object
identity and :attr:`~repro.cost.context.CostContext.version`, which the
context bumps whenever it builds a cache or splices columns, so twenty
brute-force calls over one memoized context publish its arrays exactly
once.  The per-call segment's lease goes to the caller, who closes it as
soon as the map completes.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import os
import pickle
import secrets
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Sequence

import numpy as np

from .. import faults
from ..cost.context import CostContext
from ..sanitize import shm_san

#: Shared-memory segment name prefix (leak scans in tests key on this).
SEGMENT_PREFIX = "reproseg"
#: Publications the parent keeps alive before unlinking least-recently-used.
#: (The worker-side attachment bound is :data:`repro.runtime.pool.WORKER_PAYLOAD_CACHE`.)
PUBLICATION_CACHE_SIZE = 4


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform."""
    return hasattr(shared_memory, "SharedMemory")


# ---------------------------------------------------------------------------
# Raw segment plumbing
# ---------------------------------------------------------------------------


@contextmanager
def _untracked():
    """Suppress resource-tracker registration while attaching.

    Python 3.11 registers shared-memory *attachments* with the resource
    tracker; when a worker exits, its tracker would then unlink segments the
    parent still owns.  Attaching untracked leaves exactly one owner — the
    creator — responsible for the unlink.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration."""
    # Chaos-harness injection point: a worker whose attach "fails" here is
    # what drives the per-call pickled-transport fallback in the pool.
    faults.inject("shm_attach", "shm.attach_segment", token=name)
    shm_san.record_attach(name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # Python 3.13+
    except TypeError:
        with _untracked():
            return shared_memory.SharedMemory(name=name)


class SegmentLease:
    """Creator-side ownership of one shared-memory segment.

    ``close()`` is idempotent and both closes the mapping and unlinks the
    name, so the segment disappears from the system namespace immediately;
    workers still attached keep their mapping alive until they close it.

    Leases are only ever constructed creator-side (workers use
    :func:`_attach_segment`), so construction and :meth:`close` are exactly
    the create/unlink events SHM-SAN audits.
    """

    def __init__(self, segment: shared_memory.SharedMemory, origin: str = "SegmentLease"):
        self.segment = segment
        self.name = segment.name
        self._open = True
        shm_san.record_create(self.name, origin)

    @property
    def open(self) -> bool:
        return self._open

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        shm_san.record_unlink(self.name)
        try:
            self.segment.close()
        finally:
            try:
                self.segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _aligned(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable description of one segment's packed buffers."""

    name: str
    nbytes: int
    spans: tuple[tuple[int, int], ...]  # (offset, length) of each buffer


def pack_arrays(arrays: Sequence[Any]) -> tuple[SegmentDescriptor, SegmentLease]:
    """Copy ``arrays`` back to back into one fresh segment; return its descriptor + lease.

    Each element is any C-contiguous buffer: a NumPy array, ``bytes``, or
    the raw view of a pickle-5 out-of-band buffer.
    """
    views = [memoryview(array).cast("B") for array in arrays]
    spans: list[tuple[int, int]] = []
    offset = 0
    for view in views:
        offset = _aligned(offset)
        spans.append((offset, view.nbytes))
        offset += view.nbytes
    nbytes = max(1, offset)
    name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    # The lease must exist before anything else can raise: an exception
    # between create and lease would orphan the segment in /dev/shm with
    # nothing owning its unlink (SHM-LIFECYCLE).
    lease = SegmentLease(segment, origin="pack_arrays")
    try:
        for (start, length), view in zip(spans, views):
            segment.buf[start : start + length] = view
    except BaseException:
        lease.close()
        raise
    return SegmentDescriptor(name=segment.name, nbytes=nbytes, spans=tuple(spans)), lease


def unpack_arrays(
    descriptor: SegmentDescriptor, segment: shared_memory.SharedMemory
) -> list[np.ndarray]:
    """Read-only zero-copy byte views of every buffer packed in ``segment``.

    The views share one root view of the whole segment: it is their
    ``.base``, and the ``.base`` of every array NumPy unpickles over them.
    ``segment`` closes when that root is collected, i.e. after the last
    array over the mapping is gone.  (The root holds no buffer export, so
    an earlier ``close()`` would unmap the arrays under their readers.)
    """
    whole = np.ndarray((descriptor.nbytes,), dtype=np.uint8, buffer=segment.buf)
    whole.flags.writeable = False
    weakref.finalize(whole, segment.close)
    return [whole[start : start + length] for start, length in descriptor.spans]


@dataclass(frozen=True)
class PayloadDescriptor:
    """Everything a worker needs to rebuild a payload zero-copy."""

    segments: tuple[SegmentDescriptor, ...]  # the context's, then the call's if any
    structure: bytes  # the payload pickled with the context as a persistent id
    token: str  # worker-side cache key

    def dispatch_bytes(self) -> int:
        """Bytes this descriptor adds to every chunk dispatch."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def find_context(payload: Any) -> CostContext | None:
    """The unique :class:`CostContext` inside a (possibly nested) payload."""
    if isinstance(payload, CostContext):
        return payload
    if isinstance(payload, (tuple, list)):
        for element in payload:
            found = find_context(element)
            if found is not None:
                return found
    return None


class _PayloadPickler(pickle.Pickler):
    """Protocol-5 pickler that writes ``context`` as a persistent id."""

    def __init__(
        self, file: io.BytesIO, context: CostContext, buffers: list[pickle.PickleBuffer]
    ) -> None:
        super().__init__(file, protocol=5, buffer_callback=buffers.append)
        self.context = context

    def persistent_id(self, obj: Any) -> str | None:
        return "context" if obj is self.context else None


class _PayloadUnpickler(pickle.Unpickler):
    """Loads a :class:`_PayloadPickler` stream around an already loaded context."""

    def __init__(self, file: io.BytesIO, context: CostContext, buffers: list[np.ndarray]) -> None:
        super().__init__(file, buffers=buffers)
        self.context = context

    def persistent_load(self, pid: Any) -> CostContext:
        return self.context


class _PublicationCache:
    """Parent-side memo of per-context segment publications.

    Keyed on the context's object identity and its
    :attr:`~repro.cost.context.CostContext.version`, so a context reused
    across calls (e.g. via a :class:`~repro.runtime.store.ContextStore`) is
    packed exactly once, and a mutated or further-built context is
    republished.  Evicted or closed publications unlink their segment
    deterministically.
    """

    def __init__(self, maxsize: int = PUBLICATION_CACHE_SIZE):
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[int, int], tuple] = OrderedDict()

    def publish(self, context: CostContext) -> SegmentDescriptor:
        key = (id(context), context.version)
        entry = self._entries.pop(key, None)
        if entry is not None:
            if entry[0]() is context:
                self._entries[key] = entry  # back to most-recently-used
                return entry[1]
            entry[2].close()  # a dead context's recycled id aliased the key
        buffers: list[pickle.PickleBuffer] = []
        blob = pickle.dumps(context, protocol=5, buffer_callback=buffers.append)
        descriptor, lease = pack_arrays([*(buffer.raw() for buffer in buffers), blob])

        def _collected(_reference, *, entries=self._entries, key=key, lease=lease):
            # The published context was garbage collected: unlink eagerly
            # instead of waiting for LRU eviction or shutdown.
            entries.pop(key, None)
            lease.close()

        self._entries[key] = (weakref.ref(context, _collected), descriptor, lease)
        while len(self._entries) > self.maxsize:
            _, _, old_lease = self._entries.popitem(last=False)[1]
            old_lease.close()
        return descriptor

    def close_all(self) -> None:
        for _, _, lease in self._entries.values():
            lease.close()
        self._entries.clear()


_PUBLICATIONS = _PublicationCache()


def close_all_publications() -> None:
    """Unlink every cached context publication (idempotent)."""
    _PUBLICATIONS.close_all()


atexit.register(close_all_publications)


def publish_payload(payload: Any) -> tuple[PayloadDescriptor, SegmentLease | None]:
    """Publish ``payload`` to shared memory; returns descriptor + call lease.

    The context lands in a memoized segment (owned by the module's
    publication cache).  The rest of the payload is pickled into the
    descriptor; its out-of-band buffers go into a secondary per-call
    segment whose :class:`SegmentLease` is returned for the caller to close
    right after its map completes; ``None`` when the payload had none.
    """
    context = find_context(payload)
    if context is None:
        raise ValueError("publish_payload needs a payload containing a CostContext")
    segments = [_PUBLICATIONS.publish(context)]
    buffers: list[pickle.PickleBuffer] = []
    stream = io.BytesIO()
    _PayloadPickler(stream, context, buffers).dump(payload)
    structure = stream.getvalue()
    call_lease: SegmentLease | None = None
    if buffers:
        call_descriptor, call_lease = pack_arrays([buffer.raw() for buffer in buffers])
        segments.append(call_descriptor)
    # The worker-side cache key must distinguish different payload structures
    # wrapped around the same published segments (e.g. the ED-scored stage
    # and the polish of one brute-force call share the context segment).
    token = ":".join(
        [segment.name for segment in segments] + [hashlib.sha1(structure).hexdigest()[:12]]
    )
    descriptor = PayloadDescriptor(segments=tuple(segments), structure=structure, token=token)
    return descriptor, call_lease


def materialize_payload(descriptor: PayloadDescriptor) -> Any:
    """Attach a published payload zero-copy and rebuild it.

    Each attachment stays mapped while any array of the payload points into
    it and closes once the last one is collected (:func:`unpack_arrays`).
    """
    attachments = [_attach_segment(segment.name) for segment in descriptor.segments]
    *context_buffers, blob = unpack_arrays(descriptor.segments[0], attachments[0])
    context = pickle.loads(blob, buffers=context_buffers)
    call_buffers: list[np.ndarray] = []
    if len(attachments) > 1:
        call_buffers = unpack_arrays(descriptor.segments[1], attachments[1])
    return _PayloadUnpickler(io.BytesIO(descriptor.structure), context, call_buffers).load()


def live_segments() -> list[str]:
    """Names of repro shared-memory segments currently in the namespace.

    POSIX only (scans ``/dev/shm``); the leak tests assert this is empty
    after shutdown.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX
        return []
    # repro: noqa[FLOAT-SORT-HOTPATH] -- leak-scan diagnostics over segment name strings; never on a solve path
    return sorted(name for name in os.listdir(root) if name.startswith(SEGMENT_PREFIX))

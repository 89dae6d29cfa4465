"""Zero-copy publication of :class:`~repro.cost.context.CostContext` payloads.

A sharded brute-force call ships the same expensive payload — pinned
supports, the expected-distance matrix, per-candidate sorted CDF columns,
rank-merge tables — to every worker.  PR 3 did that by pickling the payload
into each (per-call) pool via the initializer.  A *persistent* pool cannot
inherit later payloads by ``fork``, and re-pickling megabytes per call is
exactly the overhead the persistent pool exists to kill.  This module
instead flattens every numeric array of the payload into
:mod:`multiprocessing.shared_memory` segments once and describes them with a
small picklable :class:`PayloadDescriptor`; the chunk protocol then ships
only the descriptor, a work slice and (for pruned enumerations) the
incumbent token of :mod:`repro.runtime.incumbent`, and workers attach the
segments zero-copy (NumPy views straight into the mapped buffer, marked
read-only).  Pruned maps need the expected matrix (and, for the unassigned
objective, the pinned supports) materialized before publication so the
workers' bound kernels run on the shared bytes — the brute-force callers'
seeding step guarantees that ordering.

Layout
------
One *payload segment* holds every published array back to back (8-byte
aligned).  The descriptor records, per array, a key, dtype string, shape and
byte offset; ragged per-point structures (supports, probabilities, the
evaluator's sorted columns) are concatenated along the point axis and
re-sliced into per-point views on attach, so reconstruction allocates
nothing.  Non-array payload leaves (chunk sizes, assignment policies, the
metric, point labels) are pickled into the descriptor's ``meta`` blob —
small by construction.

Reconstructed contexts are **bit-identical** consumers: every view aliases
the exact bytes the parent produced, and all downstream kernels are pure
functions of those bytes, so results with shared memory on equal results
with it off, at every worker count.

Lifecycle
---------
Segments are refcounted explicitly, not via the resource tracker:

* the *publisher* (parent) owns each segment through a :class:`SegmentLease`
  and unlinks it deterministically — on publication-cache eviction, on
  :func:`close_all_publications`, or at interpreter exit;
* *workers* attach without registering with the resource tracker (Python
  3.11 registers on attach, which would let a worker's tracker unlink a
  segment the parent still owns — the classic bpo-38119 double-unlink) and
  cache a bounded number of attachments, closing evicted ones.

``publish_payload`` memoizes per-context publications keyed on object
identity, the set of materialized parts and a mutation version, so twenty
brute-force calls over one memoized context publish its arrays exactly
once.  Arrays that are *not* part of the context (e.g. a policy's score
matrix) go into a secondary per-call segment whose lease the caller closes
as soon as the map completes.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from .. import faults
from ..cost.context import CostContext, _RankMergeTables
from ..cost.expected import AssignedCostEvaluator
from ..sanitize import shm_san
from ..uncertain.dataset import UncertainDataset
from ..uncertain.point import UncertainPoint

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
class _ArraySpec:
    """Location of one published array inside its segment."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SegmentDescriptor:
    """Picklable description of one segment's packed arrays."""

    name: str
    nbytes: int
    arrays: tuple[_ArraySpec, ...]


def pack_arrays(arrays: dict[str, np.ndarray]) -> tuple[SegmentDescriptor, SegmentLease]:
    """Copy ``arrays`` into one fresh segment; return its descriptor + lease."""
    specs: list[_ArraySpec] = []
    offset = 0
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        specs.append(_ArraySpec(key=key, dtype=str(array.dtype), shape=array.shape, offset=offset))
        offset += array.nbytes
    nbytes = max(1, offset)
    name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    # The lease must exist before anything else can raise: an exception
    # between create and lease would orphan the segment in /dev/shm with
    # nothing owning its unlink (SHM-LIFECYCLE).
    lease = SegmentLease(segment, origin="pack_arrays")
    try:
        for spec, (key, array) in zip(specs, arrays.items()):
            array = np.ascontiguousarray(array)
            view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset)
            view[...] = array
    except BaseException:
        lease.close()
        raise
    return SegmentDescriptor(name=segment.name, nbytes=nbytes, arrays=tuple(specs)), lease


def unpack_arrays(
    descriptor: SegmentDescriptor, segment: shared_memory.SharedMemory
) -> dict[str, np.ndarray]:
    """Read-only zero-copy views of every array packed in ``segment``."""
    views: dict[str, np.ndarray] = {}
    for spec in descriptor.arrays:
        view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=segment.buf, offset=spec.offset)
        view.flags.writeable = False
        views[spec.key] = view
    return views


# ---------------------------------------------------------------------------
# CostContext <-> arrays
# ---------------------------------------------------------------------------

#: Structure-pickle placeholders.
_CONTEXT_MARKER = "__repro_context__"


@dataclass(frozen=True)
class _ArrayRef:
    """Placeholder for a published array inside the pickled structure."""

    key: str


@dataclass(frozen=True)
class _ContextMeta:
    """Small non-array state needed to rebuild a context from views."""

    support_sizes: tuple[int, ...]
    dimension: int
    metric_blob: bytes
    labels: tuple[str | None, ...]
    pin_supports: bool
    has_supports: bool
    has_expected: bool
    has_evaluator: bool
    rank_merge_groups: tuple[tuple[int, tuple[int, ...]], ...]  # (z, point indices)


@dataclass(frozen=True)
class PayloadDescriptor:
    """Everything a worker needs to rebuild a payload zero-copy."""

    segments: tuple[SegmentDescriptor, ...]
    structure: bytes  # pickled payload skeleton with _ArrayRef/_CONTEXT_MARKER leaves
    context_meta: _ContextMeta | None
    token: str  # worker-side cache key

    def dispatch_bytes(self) -> int:
        """Bytes this descriptor adds to every chunk dispatch."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))


def _context_parts(context: CostContext) -> tuple[bool, bool, bool, bool]:
    return (
        context._supports is not None,
        context._expected is not None,
        context._evaluator is not None,
        context._rank_merge is not None,
    )


def context_arrays(context: CostContext) -> tuple[dict[str, np.ndarray], _ContextMeta]:
    """Flatten every materialized array of ``context`` for publication.

    Ragged per-point lists are concatenated along the point axis;
    :func:`_context_from_views` re-slices them.  Only materialized caches are
    published — callers pre-build exactly what their chunk task touches.
    """
    dataset = context.dataset
    arrays: dict[str, np.ndarray] = {
        "candidates": context.candidates,
        "locations": dataset.all_locations(),
        "probabilities": np.concatenate(context.probabilities),
    }
    has_supports, has_expected, has_evaluator, has_rank_merge = _context_parts(context)
    if has_supports:
        arrays["supports"] = np.concatenate(context._supports, axis=0)
    if has_expected:
        arrays["expected"] = context._expected
    if has_evaluator:
        evaluator = context._evaluator
        arrays["ev_values"] = np.concatenate(evaluator._values, axis=0)
        arrays["ev_cdfs"] = np.concatenate(evaluator._cdfs, axis=0)
        arrays["ev_log_deltas"] = np.concatenate(evaluator._log_deltas, axis=0)
        arrays["ev_zero_deltas"] = np.concatenate(evaluator._zero_deltas, axis=0)
    groups: tuple[tuple[int, tuple[int, ...]], ...] = ()
    if has_rank_merge:
        tables = context._rank_merge
        arrays["rm_values"] = tables.values_by_rank
        group_meta = []
        for index, (points, ranks, weights) in enumerate(tables.groups):
            arrays[f"rm_ranks_{index}"] = ranks
            arrays[f"rm_weights_{index}"] = weights
            group_meta.append((int(ranks.shape[1]), tuple(int(p) for p in points)))
        groups = tuple(group_meta)
    meta = _ContextMeta(
        support_sizes=tuple(point.support_size for point in dataset.points),
        dimension=dataset.dimension,
        metric_blob=pickle.dumps(dataset.metric, protocol=pickle.HIGHEST_PROTOCOL),
        labels=tuple(point.label for point in dataset.points),
        pin_supports=context._pin_supports,
        has_supports=has_supports,
        has_expected=has_expected,
        has_evaluator=has_evaluator,
        rank_merge_groups=groups,
    )
    return arrays, meta


def _point_slices(stacked: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    views = []
    offset = 0
    for size in sizes:
        views.append(stacked[offset : offset + size])
        offset += size
    return views


def _frozen_point(
    locations: np.ndarray, probabilities: np.ndarray, label: str | None
) -> UncertainPoint:
    """Rebuild an :class:`UncertainPoint` around validated read-only views.

    The arrays come from a context whose dataset already passed validation;
    re-running ``__post_init__`` would copy them, losing the zero-copy
    property (and the validators may renormalize, losing bit-identity).
    """
    point = UncertainPoint.__new__(UncertainPoint)
    object.__setattr__(point, "locations", locations)
    object.__setattr__(point, "probabilities", probabilities)
    object.__setattr__(point, "label", label)
    object.__setattr__(point, "metadata", {})
    return point


def _context_from_views(views: dict[str, np.ndarray], meta: _ContextMeta) -> CostContext:
    """Rebuild a fully functional :class:`CostContext` over zero-copy views."""
    sizes = meta.support_sizes
    location_views = _point_slices(views["locations"], sizes)
    probability_views = _point_slices(views["probabilities"], sizes)
    points = tuple(
        _frozen_point(locations, probabilities, label)
        for locations, probabilities, label in zip(location_views, probability_views, meta.labels)
    )
    dataset = UncertainDataset.__new__(UncertainDataset)
    object.__setattr__(dataset, "points", points)
    object.__setattr__(dataset, "metric", pickle.loads(meta.metric_blob))

    context = CostContext.__new__(CostContext)
    context.dataset = dataset
    context.candidates = views["candidates"]
    context.probabilities = probability_views
    context._pin_supports = meta.pin_supports
    context._version = 0
    context._supports = (
        _point_slices(views["supports"], sizes) if meta.has_supports else None
    )
    context._expected = views["expected"] if meta.has_expected else None
    context._rank_tables = None
    if meta.has_evaluator:
        evaluator = AssignedCostEvaluator.__new__(AssignedCostEvaluator)
        evaluator.n = len(sizes)
        evaluator.columns = context.candidates.shape[0]
        evaluator._values = _point_slices(views["ev_values"], sizes)
        evaluator._cdfs = _point_slices(views["ev_cdfs"], sizes)
        evaluator._log_deltas = _point_slices(views["ev_log_deltas"], sizes)
        evaluator._zero_deltas = _point_slices(views["ev_zero_deltas"], sizes)
        evaluator._probabilities = probability_views
        context._evaluator = evaluator
    else:
        context._evaluator = None
    if meta.rank_merge_groups:
        groups = []
        for index, (_, point_indices) in enumerate(meta.rank_merge_groups):
            groups.append(
                (
                    np.asarray(point_indices, dtype=int),
                    views[f"rm_ranks_{index}"],
                    views[f"rm_weights_{index}"],
                )
            )
        context._rank_merge = _RankMergeTables(
            values_by_rank=views["rm_values"], groups=groups
        )
    else:
        context._rank_merge = None
    return context


# ---------------------------------------------------------------------------
# Payload publication (structure walk + per-context memoization)
# ---------------------------------------------------------------------------


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


def _replace_leaves(payload: Any, context: CostContext, extras: dict[str, np.ndarray]):
    """Swap the context / large arrays for markers, collecting extra arrays."""
    if payload is context:
        return _CONTEXT_MARKER
    if isinstance(payload, np.ndarray):
        if context is not None and payload is context._expected:
            return _ArrayRef("expected")
        key = f"extra_{len(extras)}"
        extras[key] = payload
        return _ArrayRef(key)
    if isinstance(payload, (tuple, list)):
        rebuilt = [_replace_leaves(element, context, extras) for element in payload]
        return tuple(rebuilt) if isinstance(payload, tuple) else rebuilt
    return payload


class _PublicationCache:
    """Parent-side memo of per-context segment publications.

    Keyed on the context's object identity, its set of materialized parts
    and its mutation version, so a context reused across calls (e.g. via a
    :class:`~repro.runtime.store.ContextStore`) is packed exactly once, and
    a mutated or further-materialized context is republished.  Evicted or
    closed publications unlink their segment deterministically.
    """

    def __init__(self, maxsize: int = PUBLICATION_CACHE_SIZE):
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def publish(self, context: CostContext) -> tuple[SegmentDescriptor, _ContextMeta]:
        key = (id(context), _context_parts(context), context._version)
        entry = self._entries.pop(key, None)
        if entry is not None:
            if entry[0]() is context:
                self._entries[key] = entry  # back to most-recently-used
                return entry[1], entry[2]
            entry[3].close()  # a dead context's recycled id aliased the key
        arrays, meta = context_arrays(context)
        descriptor, lease = pack_arrays(arrays)

        def _collected(_reference, *, entries=self._entries, key=key, lease=lease):
            # The published context was garbage collected: unlink eagerly
            # instead of waiting for LRU eviction or shutdown.
            entries.pop(key, None)
            lease.close()

        self._entries[key] = (weakref.ref(context, _collected), descriptor, meta, lease)
        while len(self._entries) > self.maxsize:
            _, _, _, old_lease = self._entries.popitem(last=False)[1]
            old_lease.close()
        return descriptor, meta

    def close_all(self) -> None:
        for _, _, _, lease in self._entries.values():
            lease.close()
        self._entries.clear()


_PUBLICATIONS = _PublicationCache()


def close_all_publications() -> None:
    """Unlink every cached context publication (idempotent)."""
    _PUBLICATIONS.close_all()


atexit.register(close_all_publications)


def publish_payload(payload: Any) -> tuple[PayloadDescriptor, SegmentLease | None]:
    """Publish ``payload`` to shared memory; returns descriptor + call lease.

    The context's arrays land in a memoized segment (owned by the module's
    publication cache).  Arrays *outside* the context go into a secondary
    per-call segment whose :class:`SegmentLease` is returned for the caller
    to close right after its map completes; ``None`` when the payload had no
    extra arrays.
    """
    context = find_context(payload)
    if context is None:
        raise ValueError("publish_payload needs a payload containing a CostContext")
    context_descriptor, meta = _PUBLICATIONS.publish(context)
    extras: dict[str, np.ndarray] = {}
    structure = _replace_leaves(payload, context, extras)
    segments = [context_descriptor]
    call_lease: SegmentLease | None = None
    if extras:
        extra_descriptor, call_lease = pack_arrays(extras)
        segments.append(extra_descriptor)
    structure_blob = pickle.dumps(structure, protocol=pickle.HIGHEST_PROTOCOL)
    # The worker-side cache key must distinguish different payload structures
    # wrapped around the same published segments (e.g. the ED-scored and
    # exhaustive stages of one brute-force call share the context segment).
    import hashlib

    token = ":".join(
        [segment.name for segment in segments]
        + [hashlib.sha1(structure_blob).hexdigest()[:12]]
    )
    descriptor = PayloadDescriptor(
        segments=tuple(segments),
        structure=structure_blob,
        context_meta=meta,
        token=token,
    )
    return descriptor, call_lease


def _restore_structure(structure: Any, context: CostContext, views: dict[str, np.ndarray]):
    if structure == _CONTEXT_MARKER:
        return context
    if isinstance(structure, _ArrayRef):
        return views[structure.key]
    if isinstance(structure, (tuple, list)):
        rebuilt = [_restore_structure(element, context, views) for element in structure]
        return tuple(rebuilt) if isinstance(structure, tuple) else rebuilt
    return structure


def materialize_payload(
    descriptor: PayloadDescriptor,
) -> tuple[Any, Callable[[], None]]:
    """Attach a published payload zero-copy.

    Returns the rebuilt payload and a closer that releases the segment
    mappings (the worker cache calls it on eviction).
    """
    attachments = [_attach_segment(segment.name) for segment in descriptor.segments]
    views: dict[str, np.ndarray] = {}
    for segment_descriptor, segment in zip(descriptor.segments, attachments):
        views.update(unpack_arrays(segment_descriptor, segment))
    context = _context_from_views(views, descriptor.context_meta)
    payload = _restore_structure(pickle.loads(descriptor.structure), context, views)

    def closer() -> None:
        for segment in attachments:
            try:
                segment.close()
            except Exception:  # pragma: no cover - mapping already gone
                pass

    return payload, closer


@dataclass(frozen=True)
class BlobDescriptor:
    """A pickled (non-context) payload parked in one shared-memory segment.

    Used by :func:`repro.runtime.parallel.parallel_map` for small payloads
    without a :class:`CostContext` (experiment settings): the pickle bytes
    ship through shared memory **once** instead of riding inside every
    dispatch tuple.  Workers copy the bytes out on first use (unpickling
    copies anyway), so they can close the mapping immediately and cache the
    object by ``token``.
    """

    name: str
    nbytes: int
    token: str


def publish_blob(blob: bytes) -> tuple[BlobDescriptor, SegmentLease]:
    """Park ``blob`` in a fresh segment; caller closes the lease after its map."""
    import hashlib

    name = f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=max(1, len(blob)))
    # Lease immediately: a failed buffer write must not orphan the segment
    # (SHM-LIFECYCLE, same rule as pack_arrays).
    lease = SegmentLease(segment, origin="publish_blob")
    try:
        segment.buf[: len(blob)] = blob
    except BaseException:
        lease.close()
        raise
    descriptor = BlobDescriptor(
        name=name, nbytes=len(blob), token=hashlib.sha1(blob).hexdigest()
    )
    return descriptor, lease


def materialize_blob(descriptor: BlobDescriptor) -> Any:
    """Unpickle a blob payload out of its segment (mapping closed before return)."""
    segment = _attach_segment(descriptor.name)
    try:
        return pickle.loads(bytes(segment.buf[: descriptor.nbytes]))
    finally:
        segment.close()


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

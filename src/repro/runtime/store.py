"""Keyed, bounded memoization of :class:`~repro.cost.context.CostContext`.

Building a context costs one metric pass over every point's support plus a
sort of every per-candidate CDF column — work that experiment trials and
repeated solver calls over the same dataset used to redo for every call.
:class:`ContextStore` memoizes built contexts by **content fingerprints**:

* the *dataset fingerprint* hashes every point's locations and
  probabilities plus the metric's identity (type and pickled state), so two
  structurally equal datasets share an entry while any change to a location,
  a probability or the metric misses;
* the *candidate fingerprint* hashes the candidate array's shape, dtype and
  bytes.

Invalidation rule (same as the context itself): a context is reusable
exactly while the dataset **and** the candidate set are unchanged —
assignments, subsets and local-search rounds over fixed candidates never
invalidate.  Any changed byte in either fingerprint is a miss and builds a
fresh context; the old entry ages out of the LRU.

The store is per process and thread-safe: ``repro serve`` calls one store
from every solve thread, so lookup, insert, eviction and the counters run
under one lock (fingerprinting runs outside it).  Pool workers never share
one (the parallel runtime ships built contexts via shared-memory
descriptors instead, which is cheaper than re-keying).  Reusing a cached
context is bit-identical to rebuilding it: its arrays were produced by the
same kernels from the same inputs.  Memoization never changes results,
only wall-clock time.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict

import numpy as np

from ..cost.context import CostContext
from ..uncertain.dataset import UncertainDataset

#: Default number of contexts a store keeps before evicting least-recently-used.
DEFAULT_STORE_SIZE = 8


def _hash_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    hasher.update(str(array.shape).encode())
    hasher.update(str(array.dtype).encode())
    hasher.update(array.tobytes())


def dataset_fingerprint(dataset: UncertainDataset) -> str:
    """Content hash of every point's support and the ambient metric."""
    hasher = hashlib.sha1()
    hasher.update(type(dataset.metric).__qualname__.encode())
    # repro: noqa[PICKLE-OWNER] -- fingerprinting only: the metric's bytes are hashed and discarded, never persisted or shipped
    hasher.update(pickle.dumps(dataset.metric))
    for point in dataset.points:
        _hash_array(hasher, point.locations)
        _hash_array(hasher, point.probabilities)
    return hasher.hexdigest()


def candidate_fingerprint(candidates: np.ndarray) -> str:
    """Content hash of a candidate-center array."""
    hasher = hashlib.sha1()
    _hash_array(hasher, np.asarray(candidates, dtype=float))
    return hasher.hexdigest()


class ContextStore:
    """LRU-bounded memo of :class:`CostContext` keyed by content fingerprints.

    >>> store = ContextStore()
    >>> context = store.get(dataset, candidates)   # builds
    >>> same = store.get(dataset, candidates)      # cache hit, same object
    >>> assert same is context

    ``hits`` / ``misses`` counters make reuse observable in tests and
    benchmarks.
    """

    def __init__(self, maxsize: int = DEFAULT_STORE_SIZE):
        self.maxsize = max(1, int(maxsize))
        self._entries: OrderedDict[tuple[str, str], CostContext] = OrderedDict()
        self._dataset_keys: dict[int, tuple[UncertainDataset, str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _dataset_key(self, dataset: UncertainDataset) -> str:
        # Datasets are frozen; one fingerprint per object identity is safe
        # and keeps repeated lookups from rehashing every support.  The
        # memo holds the dataset itself (not just its id) so a recycled
        # object id can never alias a dead dataset's fingerprint.
        memoized = self._dataset_keys.get(id(dataset))
        if memoized is not None and memoized[0] is dataset:
            return memoized[1]
        key = dataset_fingerprint(dataset)
        if len(self._dataset_keys) >= 4 * self.maxsize:
            self._dataset_keys.clear()
        self._dataset_keys[id(dataset)] = (dataset, key)
        return key

    def get(self, dataset: UncertainDataset, candidates: np.ndarray) -> CostContext:
        """The memoized context for ``(dataset, candidates)``, built on a miss."""
        candidates = np.asarray(candidates, dtype=float)
        key = (self._dataset_key(dataset), candidate_fingerprint(candidates))
        # Under the lock, so another thread cannot evict the entry between
        # the lookup and move_to_end.  Construction is lazy, hence cheap.
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
            entry = CostContext(dataset, candidates)
            self._entries[key] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return entry

    def clear(self) -> None:
        """Drop every cached context and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._dataset_keys.clear()
            self.hits = 0
            self.misses = 0

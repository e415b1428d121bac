"""Process-wide materialisation cache for deterministic game specs.

Spec-backed requests ship a ~100-byte :class:`~repro.games.spec.GameSpec`
to workers and materialise the dense payoffs where they are solved.
Without a cache, a sweep that routes many jobs over the *same* spec to
one worker (repeat requests, multi-backend sweeps, coalesced batches)
rebuilds the identical matrices once per job.  This module keeps one
bounded LRU of :class:`~repro.games.spec.MaterializedGame` objects per
process, keyed by spec fingerprint, so a repeated 64x64 generator spec
materialises at most once per worker process.

Only *deterministic* specs are cacheable (every materialisation yields
the same game); unseeded generator specs bypass the cache so their
fresh-draw semantics survive.  The cache is thread-safe — the thread
executor shares one instance across all worker threads — and strictly
bounded, so worker RSS stays flat no matter how many distinct specs a
long-lived server sees.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.telemetry import family_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports are lazy)
    from repro.games.spec import GameSpec, MaterializedGame

#: Default number of materialised games retained per process.
DEFAULT_MATCACHE_CAPACITY = 128


@family_cache
def _metrics(reg):
    return (
        reg.counter("repro_matcache_hits_total",
                    "Materialisations served from the spec LRU"),
        reg.counter("repro_matcache_misses_total",
                    "Materialisations that had to build dense payoffs"),
        reg.counter("repro_matcache_evictions_total",
                    "Materialised games dropped by LRU capacity"),
    )


class MaterializationCache:
    """Bounded LRU of materialised games keyed by spec fingerprint.

    Hits, misses and evictions are counted by the
    ``repro_matcache_*_total`` telemetry families, aggregated across
    every cache instance in the process.
    """

    def __init__(self, capacity: int = DEFAULT_MATCACHE_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, MaterializedGame]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, spec: "GameSpec") -> "MaterializedGame":
        """The spec's materialised game, built at most once while cached.

        Non-deterministic specs are materialised fresh on every call and
        never stored (they draw a different game each time by design).
        """
        if not spec.deterministic or self.capacity == 0:
            return spec.materialize_tracked()
        hits, misses, evictions = _metrics()
        key = spec.fingerprint()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                hits.inc()
                return entry
        misses.inc()
        # Materialise outside the lock: building a dense game can be the
        # expensive part, and concurrent builders of the same spec all
        # produce the identical (deterministic) value.
        entry = spec.materialize_tracked()
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evictions.inc()
        return entry

    def contains(self, spec: "GameSpec") -> bool:
        """Whether the spec's game is currently cached (no LRU touch).

        Used by the batch worker to tag trace spans with the upcoming
        materialisation's hit/miss status.
        """
        if not spec.deterministic or self.capacity == 0:
            return False
        key = spec.fingerprint()
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry (the registry counts are kept)."""
        with self._lock:
            self._entries.clear()


#: The per-process cache instance used by the service layer.
_GLOBAL_CACHE: Optional[MaterializationCache] = None
_GLOBAL_LOCK = threading.Lock()


def global_materialization_cache() -> MaterializationCache:
    """The process-wide cache (created on first use)."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_CACHE is None:
                _GLOBAL_CACHE = MaterializationCache()
    return _GLOBAL_CACHE


def materialize_cached(spec: "GameSpec") -> "MaterializedGame":
    """Materialise through the process-wide cache."""
    return global_materialization_cache().get(spec)

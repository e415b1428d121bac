"""Content-addressed result cache: in-memory LRU plus optional disk tier.

Keys are :meth:`repro.service.jobs.SolveRequest.fingerprint` digests and
values are :class:`~repro.service.jobs.SolveOutcome` JSON dicts, so a
cache entry is exactly what the wire protocol and the worker pool
already exchange.  The memory tier is a strict LRU bounded by
``capacity``; the optional disk tier (one ``<fingerprint>.json`` file
per entry) survives restarts — a disk hit is promoted back into memory
(and its file's mtime refreshed, so disk recency tracks access, not
write time).  The disk tier is unbounded by default; set
``max_disk_bytes`` to bound it, evicting oldest-mtime entries first
once the tier's total size passes the budget.

All operations are thread-safe: a lock guards the memory tier's
bookkeeping, while disk I/O runs lock-free (atomic rename writes of
content-addressed entries, so concurrent writers cannot corrupt an
entry and readers see a complete file or none).  The scheduler offloads
disk-tier lookups and stores to worker threads so large JSON I/O never
blocks its event loop.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.telemetry import family_cache

_FINGERPRINT_CHARS = set("0123456789abcdef")


@family_cache
def _metrics(reg):
    return (
        reg.counter("repro_cache_hits_total",
                    "Result-cache lookups served from memory or disk"),
        reg.counter("repro_cache_misses_total",
                    "Result-cache lookups that found nothing"),
        reg.counter("repro_cache_evictions_total",
                    "Result-cache entries dropped by LRU capacity"),
        reg.counter("repro_cache_stores_total",
                    "Result-cache entries written"),
        reg.counter("repro_cache_disk_hits_total",
                    "Result-cache hits promoted from the disk tier"),
        reg.counter("repro_cache_disk_evictions_total",
                    "Result-cache disk entries dropped by the max-bytes budget"),
    )


def _check_fingerprint(fingerprint: str) -> str:
    """Validate a cache key (hex digest) before using it as a file name."""
    if not fingerprint or not set(fingerprint) <= _FINGERPRINT_CHARS:
        raise ValueError(f"invalid fingerprint {fingerprint!r}")
    return fingerprint


@dataclass
class ResultCache:
    """LRU cache of solve outcomes keyed by request fingerprints.

    Parameters
    ----------
    capacity:
        Maximum number of entries held in memory (least recently used
        entries are evicted first).  ``0`` disables the memory tier.
    directory:
        Optional directory for the persistent tier; created on first
        store.
    max_disk_bytes:
        Optional byte budget for the disk tier.  ``None`` (default)
        keeps it unbounded; otherwise, after every store the
        oldest-mtime entries are unlinked until the tier's total size
        fits the budget (disk hits refresh mtime, so this is an LRU by
        access).  A budget smaller than one entry still admits the
        freshly written entry — the bound is best-effort, enforced
        after the write.

    Hits, misses, stores and evictions are counted by the
    ``repro_cache_*_total`` telemetry families, aggregated across every
    cache instance in the process.
    """

    capacity: int = 256
    directory: Optional[Path] = None
    max_disk_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        if self.max_disk_bytes is not None and self.max_disk_bytes < 0:
            raise ValueError(
                f"max_disk_bytes must be non-negative, got {self.max_disk_bytes}")
        if self.directory is not None:
            self.directory = Path(self.directory)
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        """Membership in either tier; counts no lookup and keeps recency."""
        _check_fingerprint(fingerprint)
        with self._lock:
            if fingerprint in self._entries:
                return True
        return self._disk_path(fingerprint) is not None

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Return the cached outcome dict for ``fingerprint``, or ``None``.

        Memory hits refresh recency; disk hits are promoted into memory.
        """
        _check_fingerprint(fingerprint)
        hits, misses, _, _, disk_hits, _ = _metrics()
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                hits.inc()
                return entry
        entry = self._read_disk(fingerprint)
        if entry is None:
            misses.inc()
            return None
        hits.inc()
        disk_hits.inc()
        with self._lock:
            self._insert(fingerprint, entry)
        return entry

    def put(self, fingerprint: str, outcome: Dict[str, Any]) -> None:
        """Store an outcome dict under ``fingerprint`` in both tiers."""
        _check_fingerprint(fingerprint)
        _metrics()[3].inc()
        with self._lock:
            self._insert(fingerprint, outcome)
        if self.directory is not None:
            # No lock for the disk write: entries are content-addressed
            # (every writer of a key writes the same value) and the
            # tmp-then-replace sequence is atomic, so concurrent writers
            # cannot corrupt an entry; readers see the old or new file.
            payload = json.dumps(outcome)
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{fingerprint}.json"
            tmp = path.with_suffix(f".{uuid.uuid4().hex}.tmp")
            tmp.write_text(payload, encoding="utf-8")
            tmp.replace(path)
            self._enforce_disk_budget()

    def put_many(self, entries: "list[tuple[str, Dict[str, Any]]]") -> None:
        """Store several ``(fingerprint, outcome)`` pairs in one call.

        The batched-dispatch path completes a whole coalesced batch of
        jobs at once; storing their outcomes through one call costs one
        lock acquisition for the memory tier and — crucially for the
        scheduler, which offloads disk I/O to a worker thread — one
        executor hop instead of one per job.
        """
        if not entries:
            return
        for fingerprint, _ in entries:
            _check_fingerprint(fingerprint)
        _metrics()[3].inc(len(entries))
        with self._lock:
            for fingerprint, outcome in entries:
                self._insert(fingerprint, outcome)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            for fingerprint, outcome in entries:
                payload = json.dumps(outcome)
                path = self.directory / f"{fingerprint}.json"
                tmp = path.with_suffix(f".{uuid.uuid4().hex}.tmp")
                tmp.write_text(payload, encoding="utf-8")
                tmp.replace(path)
            self._enforce_disk_budget()

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _insert(self, fingerprint: str, outcome: Dict[str, Any]) -> None:
        if self.capacity == 0:
            return
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
        self._entries[fingerprint] = outcome
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            _metrics()[2].inc()

    def _disk_path(self, fingerprint: str) -> Optional[Path]:
        if self.directory is None:
            return None
        path = self.directory / f"{fingerprint}.json"
        return path if path.is_file() else None

    def _read_disk(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        # Lock-free: writes are atomic renames, so a read sees a complete
        # entry or none at all.
        path = self._disk_path(fingerprint)
        if path is None:
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if self.max_disk_bytes is not None:
            try:
                # Refresh mtime so the budget enforcer's oldest-first
                # ordering is an LRU by access rather than by write.
                os.utime(path)
            except OSError:  # pragma: no cover - raced with eviction
                pass
        return entry

    def _enforce_disk_budget(self) -> None:
        """Evict oldest-mtime disk entries until the tier fits the budget.

        Best-effort and lock-free like the writes: a concurrently
        unlinked file is simply skipped, and two enforcers racing will
        at worst both observe an over-budget tier and delete disjoint
        files (unlink is idempotent via ``missing_ok``).
        """
        budget = self.max_disk_bytes
        if budget is None or self.directory is None:
            return
        entries = []
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= budget:
            return
        entries.sort(key=lambda item: item[0])
        # Never evict the newest entry: a budget smaller than one entry
        # must still admit the write that triggered enforcement.
        for _, size, path in entries[:-1]:
            if total <= budget:
                break
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - raced with eviction
                continue
            total -= size
            _metrics()[5].inc()

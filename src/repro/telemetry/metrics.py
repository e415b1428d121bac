"""Dependency-free metrics registry: counters, gauges, histograms.

One process-wide :class:`MetricsRegistry` (``registry()``) holds every
metric the repro service layers publish.  The design goals, in order:

* **One vocabulary.**  Every metric is named
  ``repro_<subsystem>_<metric>`` (``repro_scheduler_jobs_submitted_total``,
  ``repro_cache_hits_total``, ``repro_kernel_proposals_total``).  This
  registry is the only counters surface: the ``telemetry`` server
  command, the Prometheus text exposition and :func:`repro.api.sweep`
  all read it.  It is always on.
* **Cheap on the hot path.**  A counter increment is one lock acquire and
  one integer add (~100 ns); a histogram observation is a lock acquire
  plus one :func:`bisect.bisect_left`.  The scheduler's per-job cost is a
  handful of these against a per-job solve measured in milliseconds.
* **Thread-safe and fork-aware.**  Every mutation takes the child's own
  lock, so concurrent executor threads can increment freely.  A forked
  worker *process* inherits the parent's registry state; on first use
  after the fork the registry detects the PID change and resets itself,
  so a worker's :meth:`~MetricsRegistry.export_delta` payload contains
  only work that worker actually did.  Worker deltas travel back to the
  parent inside every worker result (batch, shard or whole request) and
  are folded in with :meth:`~MetricsRegistry.merge`.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "registry",
    "set_registry",
    "temporary_registry",
    "family_cache",
    "family_total",
]

#: Default histogram boundaries for service latencies (seconds): spans
#: queue waits of tens of microseconds up to multi-second solves.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

class _Child:
    """One labelled time series of a metric family."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value", "_exported")

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0
        self._exported = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def _sample(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _delta(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            delta = self._value - self._exported
            if delta == 0:
                return None
            self._exported = self._value
            return {"value": delta}

    def _merge(self, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._value += float(payload["value"])


class Gauge(_Child):
    """A value that can go up and down (or be computed on collection)."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Compute the gauge by calling ``fn`` at collection time.

        Used for live state (queue depth, in-flight jobs) that would be
        wasteful to mirror on every mutation; pass ``None`` to detach
        (e.g. when the owning scheduler closes).
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        """Current value (calls the collection function when attached)."""
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 - a dead callback must not break scrapes
            return 0.0

    def _sample(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _delta(self) -> Optional[Dict[str, Any]]:
        # Gauges describe live local state (a worker's queue depth is not
        # meaningful to add to the parent's), so they never export.
        return None

    def _merge(self, payload: Dict[str, Any]) -> None:  # pragma: no cover - symmetry
        self.set(float(payload["value"]))


class Histogram(_Child):
    """Fixed-boundary bucket histogram with quantile summaries.

    ``boundaries`` are the *upper* bounds of each bucket (exclusive of
    the implicit ``+Inf`` bucket appended at the end).  Bucket counts are
    stored non-cumulatively; the Prometheus exposition accumulates them.
    """

    __slots__ = ("boundaries", "_counts", "_sum", "_count", "_exported")

    def __init__(self, boundaries: Sequence[float]) -> None:
        super().__init__()
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"boundaries must be strictly increasing, got {bounds}")
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._exported: Optional[Tuple[List[int], float, int]] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the bucket that holds the target
        rank; the open-ended ``+Inf`` bucket reports its lower boundary
        (the histogram cannot resolve beyond its largest bound).
        Returns 0.0 with no observations.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = 0.0 if index == 0 else self.boundaries[index - 1]
                if index == len(self.boundaries):
                    return lower  # +Inf bucket: best available bound
                upper = self.boundaries[index]
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            seen += bucket_count
        return self.boundaries[-1]

    def _sample(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total_sum, total_count = self._sum, self._count
        sample = {
            "buckets": [
                [bound, count]
                for bound, count in zip(list(self.boundaries) + ["+Inf"], counts)
            ],
            "sum": total_sum,
            "count": total_count,
        }
        if total_count:
            sample["quantiles"] = {
                "p50": self.quantile(0.5),
                "p90": self.quantile(0.9),
                "p99": self.quantile(0.99),
            }
        return sample

    def _delta(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            if self._exported is None:
                counts = list(self._counts)
                delta_sum, delta_count = self._sum, self._count
            else:
                prev_counts, prev_sum, prev_count = self._exported
                counts = [now - prev for now, prev in zip(self._counts, prev_counts)]
                delta_sum = self._sum - prev_sum
                delta_count = self._count - prev_count
            if delta_count == 0:
                return None
            self._exported = (list(self._counts), self._sum, self._count)
            return {"counts": counts, "sum": delta_sum, "count": delta_count}

    def _merge(self, payload: Dict[str, Any]) -> None:
        counts = payload["counts"]
        with self._lock:
            if len(counts) != len(self._counts):
                raise ValueError(
                    f"histogram merge with {len(counts)} buckets into "
                    f"{len(self._counts)} (boundary mismatch)"
                )
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += float(payload["sum"])
            self._count += int(payload["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: label values are sorted-by-name tuples so the same labels always key
#: the same child regardless of call-site keyword order.
_LabelKey = Tuple[Tuple[str, str], ...]


class _Family:
    """One named metric family: type, help text, labelled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        boundaries: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.boundaries = tuple(boundaries) if boundaries is not None else None
        if kind == "histogram" and self.boundaries is not None:
            # Fail bad boundaries at the declaration site, not on the
            # first observe() (which may be a different subsystem).
            Histogram(self.boundaries)
        self._children: Dict[_LabelKey, _Child] = {}
        self._unlabelled: Optional[_Child] = None
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> Any:
        """The child time series for ``labels`` (created on first use)."""
        if not labels:
            # Every label-less convenience call (``family.inc()``) lands
            # here, so skip the sorted-tuple key build entirely.
            child = self._unlabelled
            if child is None:
                child = self._unlabelled = self._resolve(())
            return child
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        child = self._children.get(key)
        if child is None:
            child = self._resolve(key)
        return child

    def _resolve(self, key: _LabelKey) -> _Child:
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self.boundaries or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _KINDS[self.kind]()
                self._children[key] = child
            return child

    # Label-less convenience: family acts as its own unlabelled child.
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        self.labels().set_function(fn)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def quantile(self, q: float) -> float:
        return self.labels().quantile(q)

    @property
    def count(self) -> int:
        return self.labels().count

    @property
    def sum(self) -> float:
        return self.labels().sum

    def _items(self) -> List[Tuple[_LabelKey, _Child]]:
        with self._lock:
            return list(self._children.items())


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or set(name) - _NAME_OK or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


class MetricsRegistry:
    """A process-wide collection of metric families.

    Registration is idempotent: asking for an existing name with the same
    kind returns the existing family (so modules can declare their
    metrics at import/first-use without coordinating); a kind mismatch is
    an error.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> _Family:
        """Declare (or fetch) a counter family."""
        return self._declare(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> _Family:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> _Family:
        """Declare (or fetch) a histogram family with fixed boundaries."""
        return self._declare(name, "histogram", help, boundaries=boundaries)

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        boundaries: Optional[Sequence[float]] = None,
    ) -> _Family:
        _check_name(name)
        self._check_fork()
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}, "
                        f"cannot re-register as {kind}"
                    )
                return family
            family = _Family(name, kind, help, boundaries=boundaries)
            self._families[name] = family
            return family

    def families(self) -> List[str]:
        """Registered family names, sorted."""
        self._check_fork()
        with self._lock:
            return sorted(self._families)

    def get(self, name: str) -> Optional[_Family]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    # ------------------------------------------------------------------
    # Fork awareness
    # ------------------------------------------------------------------
    def _check_fork(self) -> None:
        """Reset inherited state the first time a forked child touches us.

        A fork copies the parent's counters into the child; without the
        reset, the child's first ``export_delta`` would re-report work
        the parent already counted (double-counting on merge).  Family
        *declarations* are kept — only values reset — so modules holding
        family handles keep working in the child.
        """
        if os.getpid() == self._pid:
            return
        with self._lock:
            if os.getpid() == self._pid:  # another thread already reset
                return
            for family in self._families.values():
                fresh = _Family(family.name, family.kind, family.help,
                                boundaries=family.boundaries)
                family._children = fresh._children
                family._unlabelled = None
                family._lock = fresh._lock
            self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of every family (the ``telemetry`` command body)."""
        self._check_fork()
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, Any] = {}
        for family in sorted(families, key=lambda f: f.name):
            samples = []
            for key, child in sorted(family._items()):
                entry: Dict[str, Any] = {"labels": dict(key)}
                entry.update(child._sample())
                samples.append(entry)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return {"families": out}

    def export_delta(self) -> Dict[str, Any]:
        """Increments since the previous export (counters/histograms only).

        Used by worker processes to ship their metrics back to the
        parent piggybacked on their results; apply with
        :meth:`merge`.  Each call marks the exported values, so repeated
        exports never double-report.  Gauges are skipped — a worker's
        live state is not additive across processes.
        """
        self._check_fork()
        with self._lock:
            families = list(self._families.values())
        out: Dict[str, Any] = {}
        for family in families:
            samples = []
            for key, child in family._items():
                delta = child._delta()
                if delta is not None:
                    samples.append([list(map(list, key)), delta])
            if samples:
                entry: Dict[str, Any] = {
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
                if family.boundaries is not None:
                    entry["boundaries"] = list(family.boundaries)
                out[family.name] = entry
        return out

    def merge(self, delta: Dict[str, Any]) -> None:
        """Fold an :meth:`export_delta` payload into this registry.

        Families the payload names but this registry lacks are declared
        on the fly (worker-only metrics still surface on the parent).
        """
        if not delta:
            return
        for name, entry in delta.items():
            family = self._declare(
                name, entry["type"], entry.get("help", ""),
                boundaries=entry.get("boundaries"),
            )
            for key_items, payload in entry["samples"]:
                labels = {k: v for k, v in key_items}
                family.labels(**labels)._merge(payload)

    def reset(self) -> None:
        """Drop every family (tests only)."""
        with self._lock:
            self._families.clear()


def family_total(snapshot: Dict[str, Any], name: str, **labels: str) -> float:
    """Sum of one counter or gauge family's sample values in a snapshot.

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot` (or ``telemetry``
    op) body.  Keyword ``labels`` keep only the samples carrying those
    label values; a family the snapshot lacks sums to zero.
    """
    entry = snapshot["families"].get(name)
    if entry is None:
        return 0.0
    return sum(
        sample["value"]
        for sample in entry["samples"]
        if all(sample["labels"].get(key) == str(value) for key, value in labels.items())
    )


# ----------------------------------------------------------------------
# The process-global registry
# ----------------------------------------------------------------------
_GLOBAL: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = MetricsRegistry()
    return _GLOBAL


def set_registry(new: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous = _GLOBAL if _GLOBAL is not None else MetricsRegistry()
        _GLOBAL = new
    return previous


def family_cache(declare: Callable[["MetricsRegistry"], Any]) -> Callable[[], Any]:
    """Memoize a module's family handles on (current registry, pid).

    Declaring a family is idempotent but costs ~1.3 us per family (name
    check, fork check, registry lock) — too much to repeat on every
    cache hit or kernel launch.  Modules wrap their declaration block::

        @family_cache
        def _metrics(reg):
            return (reg.counter("repro_x_total", "..."),
                    reg.counter("repro_y_total", "..."))

    and call ``_metrics()`` on the hot path; a memo hit is one identity
    check.  The memo re-resolves when the global registry is swapped
    (:func:`temporary_registry`) and after a fork, where re-running the
    declarations triggers the registry's fork reset *before* any
    increment lands — exactly the ordering unmemoized code had.
    """
    cached: Optional[Tuple[MetricsRegistry, int, Any]] = None

    def resolve() -> Any:
        nonlocal cached
        hit = cached
        reg = registry()
        if hit is not None and hit[0] is reg and hit[1] == os.getpid():
            return hit[2]
        families = declare(reg)
        # One atomic reference assignment keeps concurrent resolvers
        # consistent: the worst interleaving re-declares (idempotent).
        cached = (reg, os.getpid(), families)
        return families

    return resolve


class temporary_registry:
    """Context manager: a fresh global registry for the ``with`` body.

    Lets tests assert exact counter values without interference from
    other activity in the process::

        with temporary_registry() as reg:
            ...
            assert reg.get("repro_cache_hits_total").value == 1
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        set_registry(self._previous)

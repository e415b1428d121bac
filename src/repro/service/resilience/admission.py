"""Admission control: bounded queue depth with priority-aware shedding.

The scheduler's dispatch queue was unbounded — under sustained
overload it grows without limit and every job's latency climbs
together.  The admission controller enforces a depth bound at submit
time and sheds load *by priority*: background work (priority > 0) is
rejected once the queue passes ``background_shed_fraction`` of
capacity, reserving the remaining headroom for interactive (priority
<= 0) jobs; interactive work is only shed when the queue is completely
full.  Rejections are the typed
:class:`~repro.service.resilience.errors.Overloaded`, carrying depth,
capacity and a ``retry_after_s`` hint scaled to how far over the line
the queue is.

Disabled by default (``max_queue_depth=None``) so existing deployments
keep their unbounded behaviour until they opt in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.telemetry import family_cache, get_logger

from .errors import Overloaded

logger = get_logger("repro.service.resilience.admission")


@family_cache
def _metrics(reg):
    return (
        reg.counter("repro_resilience_shed_total",
                    "Jobs rejected by admission control, by reason"),
        reg.gauge("repro_resilience_queue_capacity",
                  "Configured admission-control queue depth bound (0 = unbounded)"),
    )


@dataclass
class AdmissionController:
    """Submit-time load shedding for the scheduler queue."""

    max_queue_depth: Optional[int] = None
    #: Fraction of capacity past which priority > 0 jobs are shed.
    background_shed_fraction: float = 0.75
    #: Base of the retry-after hint returned with rejections.
    retry_after_base_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if not (0.0 < self.background_shed_fraction <= 1.0):
            raise ValueError("background_shed_fraction must be in (0, 1]")
        _metrics()[1].set(self.max_queue_depth or 0)

    @property
    def enabled(self) -> bool:
        return self.max_queue_depth is not None

    def admit(self, queue_depth: int, priority: int = 0) -> None:
        """Gate one submission; raises :class:`Overloaded` when shedding.

        ``queue_depth`` is the depth *before* this job joins the queue.
        """
        capacity = self.max_queue_depth
        if capacity is None:
            return
        if queue_depth >= capacity:
            self._reject(queue_depth, capacity, "full", priority)
        if priority > 0 and queue_depth >= capacity * self.background_shed_fraction:
            self._reject(queue_depth, capacity, "background", priority)

    def _reject(self, depth: int, capacity: int, reason: str, priority: int) -> None:
        _metrics()[0].labels(reason=reason).inc()
        retry_after = self.retry_after_base_s * max(1.0, depth / capacity)
        logger.warning("shedding job", extra={
            "reason": reason, "queue_depth": depth, "capacity": capacity,
            "priority": priority,
        })
        raise Overloaded(
            f"queue depth {depth} at capacity {capacity} ({reason});"
            f" retry in {retry_after:.2f}s",
            queue_depth=depth,
            capacity=capacity,
            retry_after_s=retry_after,
        )

"""Per-backend circuit breakers for the scheduler.

A breaker tracks consecutive *infrastructure* failures per solve policy
(backend).  After ``failure_threshold`` consecutive failures it opens:
new submissions for that backend fail fast with a typed
:class:`~repro.service.resilience.errors.CircuitOpen` carrying the
remaining cooldown, instead of queueing work that is doomed to fail.
After ``cooldown_s`` the breaker half-opens and admits a bounded number
of probe jobs; one probe success closes it, one probe failure re-opens
it for a fresh cooldown.

State is exported as a gauge (0 = closed, 1 = open, 2 = half-open) and
an opens counter, both labelled by backend, so a dashboard shows which
solver is sick at a glance.  The clock is injectable for tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.telemetry import family_cache, get_logger

from .errors import CircuitOpen

logger = get_logger("repro.service.resilience.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_CODE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@family_cache
def _metrics(reg):
    return (
        reg.gauge("repro_resilience_breaker_state",
                  "Circuit breaker state per backend (0=closed, 1=open, 2=half-open)"),
        reg.counter("repro_resilience_breaker_opens_total",
                    "Times a backend circuit breaker transitioned to open"),
        reg.counter("repro_resilience_breaker_fast_failures_total",
                    "Submissions rejected fast because a breaker was open"),
    )


@dataclass
class CircuitBreaker:
    """One backend's breaker.  Not thread-safe; lives on the event loop."""

    backend: str
    failure_threshold: int = 8
    cooldown_s: float = 30.0
    half_open_max: int = 1
    clock: Callable[[], float] = time.monotonic

    _state: str = field(default=CLOSED, init=False)
    _consecutive_failures: int = field(default=0, init=False)
    _opened_at: float = field(default=0.0, init=False)
    _half_open_inflight: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}")
        self._publish()

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when cooldown lapsed."""
        if self._state == OPEN and self._remaining_cooldown() <= 0:
            self._transition(HALF_OPEN)
            self._half_open_inflight = 0
        return self._state

    def _remaining_cooldown(self) -> float:
        return self.cooldown_s - (self.clock() - self._opened_at)

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        logger.info("breaker transition", extra={
            "backend": self.backend, "from": self._state, "to": state,
        })
        self._state = state
        self._publish()

    def _publish(self) -> None:
        _metrics()[0].labels(backend=self.backend).set(_STATE_CODE[self._state])

    def admit(self) -> None:
        """Gate one submission; raises :class:`CircuitOpen` when rejecting."""
        state = self.state
        if state == CLOSED:
            return
        if state == HALF_OPEN and self._half_open_inflight < self.half_open_max:
            self._half_open_inflight += 1
            return
        retry_after = max(self._remaining_cooldown(), 0.0) if state == OPEN else self.cooldown_s
        _metrics()[2].labels(backend=self.backend).inc()
        raise CircuitOpen(
            f"circuit breaker for backend {self.backend!r} is {state}"
            f" (retry in {retry_after:.1f}s)",
            backend=self.backend,
            retry_after_s=retry_after,
        )

    def on_success(self) -> None:
        """Record a completed execution; closes a half-open breaker."""
        self._consecutive_failures = 0
        if self._state in (HALF_OPEN, OPEN):
            self._half_open_inflight = 0
            self._transition(CLOSED)

    def on_failure(self) -> None:
        """Record an infrastructure failure; may open the breaker."""
        self._consecutive_failures += 1
        if self._state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self._open()
        elif self._state == CLOSED and self._consecutive_failures >= self.failure_threshold:
            self._open()

    def _open(self) -> None:
        self._opened_at = self.clock()
        self._half_open_inflight = 0
        _metrics()[1].labels(backend=self.backend).inc()
        self._transition(OPEN)


class BreakerBoard:
    """Lazily-created breakers keyed by backend (solve policy)."""

    def __init__(
        self,
        failure_threshold: int = 8,
        cooldown_s: float = 30.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_max = half_open_max
        self.clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, backend: str) -> CircuitBreaker:
        """The breaker for ``backend``, created on first use."""
        found = self._breakers.get(backend)
        if found is None:
            found = CircuitBreaker(
                backend=backend,
                failure_threshold=self.failure_threshold,
                cooldown_s=self.cooldown_s,
                half_open_max=self.half_open_max,
                clock=self.clock,
            )
            self._breakers[backend] = found
        return found

    def admit(self, backend: str) -> None:
        """Gate a submission for ``backend`` (raises :class:`CircuitOpen`)."""
        self.breaker(backend).admit()

    def on_success(self, backend: str) -> None:
        self.breaker(backend).on_success()

    def on_failure(self, backend: str) -> None:
        self.breaker(backend).on_failure()

"""Retry policy: failure classification, bounded backoff, escalation.

Failures on the serving path fall into four classes, each with its own
retry rule:

``worker_death``
    The worker process holding the job died (``BrokenProcessPool``,
    injected crash, heartbeat timeout).  Retried with *bit-identical*
    shard seeds — a re-run after an infrastructure fault must produce
    the same bytes as a fault-free run.  Jobs whose execution kills a
    worker ``quarantine_after`` times are quarantined as poison pills
    instead of crash-looping the pool.

``transient``
    Infrastructure faults that did not take the worker down: shm attach
    races, injected transient errors, OS-level hiccups.  Retried with
    identical seeds, same determinism contract.

``permanent``
    Anything raised by the job itself — bad specs, unknown policies,
    solver ``ValueError``s.  Never retried; retrying deterministic code
    on deterministic input is wasted work.

``solver_miss``
    The solve *completed* but verified no ε-equilibrium.  C-Nash is a
    stochastic annealer with per-run success rate below 1 (paper
    Table 1: time-to-solution is defined by retry-until-success), so
    the right response is escalation: fresh shard seeds (derived via
    ``derive_seed``, so still reproducible) and, past the first retry,
    walking the registry portfolio order to stronger backends.
    Disabled by default (``max_attempts=1``) because escalation changes
    which bytes a request returns — sweeps opt in explicitly.

Backoff is exponential with deterministic jitter: the jitter fraction
is derived from a SHA-256 of the job fingerprint and attempt number, so
two schedulers retrying the same job sleep the same amount and test
runs are reproducible end to end.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import BrokenExecutor as BrokenExecutorError
from concurrent.futures.process import BrokenProcessPool as BrokenProcessPoolError
from dataclasses import dataclass, field
from typing import Optional

from repro.utils.rng import derive_seed

from .errors import WorkerDeath, WorkerHang
from .faults import InjectedFault, WorkerCrash

#: Failure classes, in escalation-severity order.
WORKER_DEATH = "worker_death"
TRANSIENT = "transient"
PERMANENT = "permanent"
SOLVER_MISS = "solver_miss"

FAULT_CLASSES = (WORKER_DEATH, TRANSIENT, PERMANENT, SOLVER_MISS)

#: Error-text markers that identify infrastructure faults when the
#: original exception type was flattened to a string (worker → parent
#: error entries travel as ``f"{type.__name__}: {exc}"``).
_TRANSIENT_MARKERS = (
    "InjectedFault",
    "FileNotFoundError",            # shm segment unlinked mid-attach
    "cannot attach shared memory",
    "corrupt result payload",       # parent-side fingerprint integrity gate
)
_WORKER_DEATH_MARKERS = (
    "WorkerCrash",
    "BrokenProcessPool",
    "process pool was terminated abruptly",
)


def classify_failure(error: BaseException) -> str:
    """Map an execution failure to its fault class.

    Works on live exceptions (scheduler-side) and on re-hydrated
    ``RuntimeError``\\ s built from worker error strings (batch member
    settling), by falling back to substring markers.
    """
    if isinstance(error, (WorkerCrash, WorkerDeath, WorkerHang)):
        return WORKER_DEATH
    if isinstance(error, InjectedFault):
        return TRANSIENT
    if isinstance(error, (BrokenProcessPoolError, BrokenExecutorError)):
        return WORKER_DEATH
    text = str(error)
    if any(marker in text for marker in _WORKER_DEATH_MARKERS):
        return WORKER_DEATH
    if any(marker in text for marker in _TRANSIENT_MARKERS):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True)
class RetryRule:
    """Retry budget and backoff shape for one fault class.

    ``max_attempts`` counts *total* executions including the first, so
    ``1`` disables retries for the class.  Backoff for attempt *n*
    (n >= 2) is ``min(base * 2**(n-2), max) * (1 + jitter * u)`` with
    ``u`` a deterministic uniform in [0, 1) derived from the job
    fingerprint.
    """

    max_attempts: int = 1
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


def _deterministic_unit(fingerprint: str, attempt: int) -> float:
    """Uniform-ish value in [0, 1) from (fingerprint, attempt) — no RNG state."""
    digest = hashlib.sha256(f"{fingerprint}:{attempt}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def retry_seed(seed: int, attempt: int) -> int:
    """Fresh-but-reproducible seed for solver-miss escalation attempts.

    Attempt 1 (the original execution) keeps the request seed untouched;
    later attempts derive a new stream with ``derive_seed`` so escalated
    runs explore different annealer trajectories yet remain bit-stable
    across re-runs of the same escalation.
    """
    if attempt <= 1:
        return seed
    return derive_seed(seed, 0x5EED0000 + attempt)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-fault-class retry rules for the scheduler.

    The default policy retries infrastructure faults (worker deaths and
    transient errors) once each, never retries permanent job errors,
    and leaves solver-miss escalation *off* — escalation changes
    returned bytes, so it is an explicit opt-in
    (``RetryPolicy.with_escalation()``).
    """

    worker_death: RetryRule = field(
        default_factory=lambda: RetryRule(max_attempts=2))
    transient: RetryRule = field(
        default_factory=lambda: RetryRule(max_attempts=2))
    permanent: RetryRule = field(
        default_factory=lambda: RetryRule(max_attempts=1))
    solver_miss: RetryRule = field(
        default_factory=lambda: RetryRule(max_attempts=1, base_backoff_s=0.0))
    #: Worker deaths attributable to one job before it is quarantined.
    quarantine_after: int = 2

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """A policy that never retries anything (benchmark baseline)."""
        off = RetryRule(max_attempts=1)
        return cls(worker_death=off, transient=off, permanent=off,
                   solver_miss=off)

    @classmethod
    def with_escalation(cls, solver_attempts: int = 3) -> "RetryPolicy":
        """Default policy plus solver-miss escalation (opt-in)."""
        return cls(solver_miss=RetryRule(
            max_attempts=solver_attempts, base_backoff_s=0.0))

    def rule(self, fault_class: str) -> RetryRule:
        """The rule governing ``fault_class``."""
        if fault_class not in FAULT_CLASSES:
            raise ValueError(f"unknown fault class {fault_class!r}")
        return getattr(self, fault_class)

    def should_retry(self, fault_class: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based, just failed) gets another go."""
        return attempt < self.rule(fault_class).max_attempts

    def backoff_s(self, fault_class: str, attempt: int, fingerprint: str) -> float:
        """Deterministic backoff before attempt ``attempt + 1``."""
        rule = self.rule(fault_class)
        if rule.base_backoff_s <= 0:
            return 0.0
        delay = min(rule.base_backoff_s * (2 ** max(0, attempt - 1)),
                    rule.max_backoff_s)
        return delay * (1.0 + rule.jitter * _deterministic_unit(fingerprint, attempt))

    def escalation_enabled(self) -> bool:
        """Whether solver-miss escalation is active (non-default)."""
        return self.solver_miss.max_attempts > 1

    def fingerprint_token(self) -> Optional[str]:
        """Cache-key perturbation when escalation can change result bytes.

        ``None`` for escalation-off policies, keeping historical disk
        cache entries valid; a short stable token otherwise so escalated
        and non-escalated results never collide in the cache.
        """
        if not self.escalation_enabled():
            return None
        return f"esc{self.solver_miss.max_attempts}"

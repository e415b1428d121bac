"""Solve requests, job records and content-addressed fingerprints.

The service layer treats a solve as data: a :class:`SolveRequest` fully
describes *what* to compute (game, solver configuration, run budget,
seed policy, backend policy) and nothing about *how* it is executed
(worker counts, executors, transports).  Requests therefore have a
deterministic content-addressed :meth:`~SolveRequest.fingerprint` — the
SHA-256 of a canonical JSON form — which keys the result cache and
de-duplicates identical work across clients.

A :class:`JobRecord` is the scheduler's mutable bookkeeping for one
submitted request: status, timestamps, priority, the outcome (a
:class:`SolveOutcome`) or the error, and whether the result came from
the cache.  Everything here is JSON round-trippable so jobs can cross
process and network boundaries unchanged.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.backends import UnknownBackendError, available_backends, is_registered
from repro.core.config import CNashConfig
from repro.core.result import SolverBatchResult
from repro.games.bimatrix import BimatrixGame
from repro.games.spec import GameSpec
from repro.telemetry import Timeline

# Shared with GameSpec fingerprints so the two content-address layers
# cannot drift apart.
from repro.utils.serialization import canonical_json


def game_to_dict(game: BimatrixGame) -> Dict[str, Any]:
    """Canonical JSON form of a game (payoff matrices as nested lists)."""
    return {
        "name": game.name,
        "payoff_row": [[float(x) for x in row] for row in game.payoff_row],
        "payoff_col": [[float(x) for x in row] for row in game.payoff_col],
    }


def game_from_dict(data: Dict[str, Any]) -> BimatrixGame:
    """Reconstruct a game from :func:`game_to_dict` output."""
    return BimatrixGame(
        np.asarray(data["payoff_row"], dtype=float),
        np.asarray(data["payoff_col"], dtype=float),
        name=str(data.get("name", "unnamed game")),
    )


@dataclass(frozen=True)
class SolveRequest:
    """One content-addressed unit of solve work.

    Parameters
    ----------
    game:
        The workload: either a dense :class:`BimatrixGame` or — the
        preferred form for generated/library workloads — a
        :class:`~repro.games.spec.GameSpec` (a spec *string* such as
        ``"library:chicken"`` is also accepted and parsed).  Spec-backed
        requests stay lazy: the wire form and the fingerprint carry the
        ~100-byte spec, and the dense game is only materialised where it
        is actually solved (:attr:`resolved_game`, typically inside a
        worker).
    policy:
        Name of a registered backend (:mod:`repro.backends`).  Built-ins:
        ``"cnash"`` (sharded annealing batch), ``"squbo"`` (the
        D-Wave-like S-QUBO baseline), ``"exact"`` (enumeration /
        Lemke–Howson ground truth) and ``"portfolio"`` (registry-driven
        fallback chain).  Custom backends registered with
        :func:`repro.backends.register_backend` are equally valid.
        Validation happens at construction against *this process's*
        registry (so typos fail fast with the available names); a
        remote TCP client targeting a backend registered only on the
        server must therefore import/register that backend locally too
        before constructing the request.
    num_runs:
        SA runs (or baseline samples) for the annealing policies;
        ignored by ``"exact"``.
    seed:
        Base integer seed.  Seeded requests are deterministic and
        therefore cacheable; ``seed=None`` requests draw OS entropy and
        are never cached.
    config:
        Solver configuration for the C-Nash backend.
    epsilon:
        Optional backend-agnostic equilibrium-tolerance override
        (:attr:`repro.backends.SolveSpec.epsilon`).  ``None`` (the
        default) lets each backend derive its own tolerance, exactly as
        before this field existed; to keep historical fingerprints and
        cache keys stable, ``None`` is also excluded from the
        fingerprint.
    priority:
        Scheduler priority — *lower* values run first (0 is the default
        lane, negative values jump the queue).
    deadline_s:
        Optional relative deadline in seconds from submission; jobs
        that cannot finish in time are marked ``expired``.
    use_cache:
        Whether the scheduler may serve/store this request from the
        result cache (seeded requests only).
    """

    game: Union[BimatrixGame, GameSpec]
    policy: str = "cnash"
    num_runs: int = 100
    seed: Optional[int] = None
    config: CNashConfig = field(default_factory=CNashConfig)
    epsilon: Optional[float] = None
    priority: int = 0
    deadline_s: Optional[float] = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.game, str):
            object.__setattr__(self, "game", GameSpec.parse(self.game))
        elif not isinstance(self.game, (BimatrixGame, GameSpec)):
            raise ValueError(
                f"game must be a BimatrixGame, GameSpec or spec string, "
                f"got {type(self.game).__name__}"
            )
        if isinstance(self.game, GameSpec) and not self.game.deterministic:
            # An unseeded generator spec draws a fresh game on every
            # materialisation while its fingerprint stays constant, so
            # shards of one job would solve different games and cache
            # entries would alias work that was never computed.
            raise ValueError(
                f"spec {self.game!r} is not deterministic (unseeded generator); "
                f"give the GameSpec a seed before submitting it to the service"
            )
        if not is_registered(self.policy):
            raise UnknownBackendError(self.policy, available_backends(), noun="policy")
        if not isinstance(self.num_runs, (int, np.integer)) or isinstance(self.num_runs, bool):
            raise ValueError(f"num_runs must be an integer >= 1, got {self.num_runs!r}")
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")

    @property
    def cacheable(self) -> bool:
        """Deterministic requests (seeded) are the only cacheable ones."""
        return self.use_cache and self.seed is not None

    @property
    def game_spec(self) -> Optional[GameSpec]:
        """The workload spec, or ``None`` for dense-game requests."""
        return self.game if isinstance(self.game, GameSpec) else None

    @property
    def resolved_game(self) -> BimatrixGame:
        """The dense game, materialising a spec on first access.

        Materialisation is cached on the record (requests are frozen but
        the cache is not part of the value), so repeated service-side
        consumers — shard execution, equilibrium dedup, verification —
        build the matrices at most once per request object.
        Deterministic specs additionally resolve through the
        process-wide :mod:`repro.games.matcache` LRU, so many request
        objects over the same spec (repeat jobs, coalesced batches on
        one worker) build the dense matrices at most once per process
        while the cache retains them.
        """
        if isinstance(self.game, BimatrixGame):
            return self.game
        cached = getattr(self, "_resolved_game", None)
        if cached is None:
            if self.game.deterministic:
                from repro.games.matcache import materialize_cached

                cached = materialize_cached(self.game).game
            else:
                cached = self.game.materialize()
            object.__setattr__(self, "_resolved_game", cached)
        return cached

    def release_materialization(self) -> None:
        """Drop the memoised dense game of a spec-backed request.

        The scheduler calls this when a job finishes: its record (and
        therefore the request) stays in the retained job table for
        status lookups, and without the release a large cold sweep
        would pin every materialised game in memory simultaneously —
        exactly what spec-backed workloads exist to avoid.  Dense-game
        requests are untouched (the game is the caller's own object).
        """
        if isinstance(self.game, GameSpec) and hasattr(self, "_resolved_game"):
            object.__delattr__(self, "_resolved_game")

    def game_fingerprint(self) -> str:
        """The game component of the request fingerprint.

        Dense games hash their payoff bytes
        (:meth:`BimatrixGame.fingerprint`); specs hash their description
        (:meth:`~repro.games.spec.GameSpec.fingerprint` — which itself
        falls back to the matrix fingerprint for plain inline specs, so
        pre-spec cache entries keep hitting).
        """
        return self.game.fingerprint()

    def fingerprint(self) -> str:
        """Deterministic content hash of the *work*, not the serving knobs.

        Covers the game (via :meth:`game_fingerprint` — spec-keyed for
        spec-backed requests, matrix-keyed otherwise), the full solver
        configuration, the run budget, the seed and the backend policy.
        Priority, deadline and cache preferences do not change what is
        computed, so they are excluded — two requests for the same work
        share a fingerprint regardless of how they are queued.

        The digest is memoised on first computation (requests are
        frozen): the scheduler consults it on every cache-key, in-flight
        and batch-coalescing check, so re-encoding the canonical JSON
        per lookup would dominate the submit path of large sweeps.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        payload = {
            "game": self.game_fingerprint(),
            "config": self.config.to_dict(),
            "num_runs": int(self.num_runs),
            "seed": None if self.seed is None else int(self.seed),
            "policy": self.policy,
        }
        # epsilon joined the request schema after fingerprints were
        # already persisted in caches; only a set value changes what is
        # computed, so only a set value joins the hash.
        if self.epsilon is not None:
            payload["epsilon"] = float(self.epsilon)
        value = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint", value)
        return value

    def to_dict(self) -> Dict[str, Any]:
        """Wire representation (inverse of :meth:`from_dict`).

        Spec-backed requests ship ``game_spec`` (the compact IR) instead
        of dense ``game`` matrices — this is what keeps sweep payloads
        to ~100 bytes per job across scheduler shards and the TCP wire.
        """
        if isinstance(self.game, GameSpec):
            game_field: Dict[str, Any] = {"game_spec": self.game.to_dict()}
        else:
            game_field = {"game": game_to_dict(self.game)}
        return {
            **game_field,
            "policy": self.policy,
            "num_runs": int(self.num_runs),
            "seed": None if self.seed is None else int(self.seed),
            "config": self.config.to_dict(),
            "epsilon": self.epsilon,
            "priority": int(self.priority),
            "deadline_s": self.deadline_s,
            "use_cache": bool(self.use_cache),
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        game: Optional[Union[BimatrixGame, GameSpec]] = None,
    ) -> "SolveRequest":
        """Reconstruct a request from :meth:`to_dict` output.

        Accepts both wire forms: ``game_spec`` (the spec IR) and dense
        ``game`` matrices.  ``game`` overrides the payload's own game —
        used by transports that move the dense matrices out of band
        (e.g. the batched dispatcher's shared-memory path), where the
        wire dict intentionally carries no ``game`` field.
        """
        if game is None:
            if data.get("game_spec") is not None:
                game = GameSpec.from_dict(data["game_spec"])
            else:
                game = game_from_dict(data["game"])
        return cls(
            game=game,
            policy=str(data.get("policy", "cnash")),
            num_runs=int(data.get("num_runs", 100)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            config=CNashConfig.from_dict(data["config"]) if "config" in data else CNashConfig(),
            epsilon=data.get("epsilon"),
            priority=int(data.get("priority", 0)),
            deadline_s=data.get("deadline_s"),
            use_cache=bool(data.get("use_cache", True)),
        )


@dataclass
class SolveOutcome:
    """The service-level result of one solve request.

    Uniform across backends: annealing policies carry the merged
    :class:`SolverBatchResult` (as its JSON dict) plus the distinct
    equilibria found; the exact policy carries only the equilibria.
    """

    fingerprint: str
    policy: str
    backend: str
    success_rate: float
    equilibria: List[Dict[str, List[float]]] = field(default_factory=list)
    batch: Optional[Dict[str, Any]] = None
    shards: int = 1
    wall_clock_seconds: float = 0.0
    #: Per-job trace timeline (phase list from
    #: :meth:`repro.telemetry.Timeline.to_wire`), attached by the
    #: scheduler to every computed outcome.  ``None`` traces (cache hits)
    #: are omitted from the wire form so cached payloads are
    #: byte-identical to pre-telemetry ones.
    trace: Optional[List[Dict[str, Any]]] = None
    #: Total executions this outcome took (1 = first try).  Execution
    #: metadata like ``trace``: the default is omitted from the wire
    #: form so fault-free payloads stay byte-identical to earlier
    #: releases, and result comparisons must strip it alongside the
    #: trace.
    attempts: int = 1

    @property
    def num_equilibria(self) -> int:
        """Number of distinct equilibria the backend reported."""
        return len(self.equilibria)

    def batch_result(self) -> Optional[SolverBatchResult]:
        """The merged batch as a rich result object (annealing policies)."""
        if self.batch is None:
            return None
        return SolverBatchResult.from_dict(self.batch)

    def to_dict(self) -> Dict[str, Any]:
        """Wire representation (inverse of :meth:`from_dict`)."""
        payload = {
            "fingerprint": self.fingerprint,
            "policy": self.policy,
            "backend": self.backend,
            "success_rate": float(self.success_rate),
            "equilibria": self.equilibria,
            "batch": self.batch,
            "shards": int(self.shards),
            "wall_clock_seconds": float(self.wall_clock_seconds),
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        if self.attempts > 1:
            payload["attempts"] = int(self.attempts)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveOutcome":
        """Reconstruct an outcome from :meth:`to_dict` output."""
        return cls(
            fingerprint=str(data["fingerprint"]),
            policy=str(data["policy"]),
            backend=str(data["backend"]),
            success_rate=float(data["success_rate"]),
            equilibria=list(data.get("equilibria", [])),
            batch=data.get("batch"),
            shards=int(data.get("shards", 1)),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
            trace=data.get("trace"),
            attempts=int(data.get("attempts", 1)),
        )


class JobStatus:
    """Lifecycle states of a job (plain strings for JSON friendliness)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"
    #: Terminal state for poison pills: the job's execution killed a
    #: worker ``RetryPolicy.quarantine_after`` times, so the scheduler
    #: refuses to crash-loop the pool on it.
    QUARANTINED = "quarantined"

    TERMINAL = (DONE, FAILED, CANCELLED, EXPIRED, QUARANTINED)


@dataclass
class JobRecord:
    """Scheduler bookkeeping for one submitted request.

    ``cache_hit`` means "served without recomputation" — either a
    result-cache hit or a coalesced duplicate that adopted its in-flight
    leader's outcome (``repro_scheduler_cache_hits_total`` and
    ``repro_scheduler_jobs_coalesced_total`` count the two apart).

    Wall-clock timestamps (``submitted_at``/``started_at``/
    ``finished_at``) are for *display only*; all elapsed/deadline math
    runs on ``submitted_monotonic`` (:func:`time.monotonic`), so an NTP
    step cannot expire — or resurrect — a job mid-flight.
    """

    request: SolveRequest
    job_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    status: str = JobStatus.PENDING
    submitted_at: float = field(default_factory=time.time)
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    outcome: Optional[SolveOutcome] = None
    error: Optional[str] = None
    cache_hit: bool = False
    #: Per-job trace timeline (scheduler bookkeeping, not wire state).
    timeline: Timeline = field(default_factory=Timeline)
    #: Executions so far (1 while the first attempt runs); bumped by the
    #: scheduler's retry machinery and published on the outcome.
    attempts: int = 1
    #: Worker deaths attributed to this job (poison-pill accounting).
    worker_deaths: int = 0
    #: Set when a retry must dispatch as a batch of one (never
    #: coalesced), so a poison pill cannot drag batch companions down.
    no_batch: bool = False
    #: Solver-miss escalation rung: 0 = original policy and seed,
    #: 1 = fresh seed, >= 2 = walk the registry portfolio order.
    escalation_stage: int = 0

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in JobStatus.TERMINAL

    def elapsed(self) -> float:
        """Monotonic seconds since submission (NTP-step immune)."""
        return time.monotonic() - self.submitted_monotonic

    def deadline_remaining(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` when unbounded)."""
        if self.request.deadline_s is None:
            return None
        return self.request.deadline_s - self.elapsed()

    def to_dict(self, include_outcome: bool = True) -> Dict[str, Any]:
        """Wire representation of the record (request omitted for brevity)."""
        payload: Dict[str, Any] = {
            "job_id": self.job_id,
            "status": self.status,
            "fingerprint": self.request.fingerprint(),
            "policy": self.request.policy,
            "priority": self.request.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
        }
        if include_outcome:
            payload["outcome"] = None if self.outcome is None else self.outcome.to_dict()
        return payload

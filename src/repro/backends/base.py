"""The unified solver API: ``Backend`` protocol, ``SolveSpec`` and ``SolveReport``.

The paper's evaluation is a *comparison of solvers* — the C-Nash
annealer, the S-QUBO quantum-annealer baselines and the exact
ground-truth algorithms — and the collaborative-neurodynamic line of
work (PAPERS.md, Chen 2025) shows that heterogeneous solver populations
beat any single method.  This module defines the seam those solvers all
plug into:

* :class:`SolveSpec` — one frozen description of *how much* work to do
  (run budget, seed, tolerance, deadline) plus a backend-specific
  ``options`` mapping, replacing the scattered per-solver kwargs;
* :class:`BackendCapabilities` — what a backend can do (mixed-strategy
  support, determinism, game-size bounds), so callers can route games
  to suitable solvers without knowing their internals;
* :class:`SolveReport` — one uniform result type (equilibria, success
  metrics, timing, backend metadata) with a JSON wire form;
* :class:`Backend` — the protocol every solver adapter implements:
  ``name``, ``capabilities()`` and ``solve(game, spec) -> SolveReport``.

Concrete adapters live in :mod:`repro.backends.adapters`; the global
registry in :mod:`repro.backends.registry`; the one-call facade in
:mod:`repro.api`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Protocol, Union, runtime_checkable

import numpy as np

from repro.core.config import CNashConfig
from repro.core.result import SolverBatchResult
from repro.games.bimatrix import BimatrixGame
from repro.games.equilibrium import StrategyProfile
from repro.telemetry import family_cache


@family_cache
def _solve_seconds(reg):
    return reg.histogram(
        "repro_backend_solve_seconds",
        "Backend solve wall-clock seconds, labelled by backend.",
    )


def observe_backend_latency(backend: str, seconds: float) -> None:
    """Record one solve's wall clock under ``repro_backend_solve_seconds``.

    ``backend`` is the report/outcome label (root or ``root/variant``);
    the root becomes the histogram's ``backend`` label so variants of
    one backend aggregate together.  Called wherever a finished solve's
    wall clock is definitively known — the service outcome builders and
    the in-process facade — exactly once per job.
    """
    _solve_seconds().labels(backend=backend.split("/", 1)[0]).observe(seconds)


def profiles_to_wire(profiles: List[StrategyProfile]) -> List[Dict[str, List[float]]]:
    """Strategy profiles as JSON-ready ``{"p": [...], "q": [...]}`` dicts."""
    return [{"p": profile.p.tolist(), "q": profile.q.tolist()} for profile in profiles]


def profiles_from_wire(entries: List[Dict[str, List[float]]]) -> List[StrategyProfile]:
    """Inverse of :func:`profiles_to_wire`."""
    return [StrategyProfile(entry["p"], entry["q"]) for entry in entries]


@dataclass(frozen=True)
class SolveSpec:
    """One frozen description of how a solve should be run.

    The spec is backend-agnostic: every backend receives the same four
    universal knobs plus an ``options`` mapping for anything specific to
    it (the C-Nash adapter reads ``options["config"]``, the S-QUBO
    adapter reads ``options["machine"]`` / ``options["num_sweeps"]``,
    a custom backend reads whatever it documents).

    Parameters
    ----------
    num_runs:
        Run/sample budget for stochastic backends; exact backends ignore
        it.
    seed:
        Base integer seed.  Seeded specs are deterministic (and, through
        the service layer, cacheable); ``None`` draws OS entropy.
    epsilon:
        Equilibrium tolerance override; ``None`` lets each backend derive
        its own default.
    deadline_s:
        Optional relative deadline in seconds.  In-process backends treat
        it as advisory; the service scheduler enforces it.
    options:
        Backend-specific options.  Stored as a read-only mapping so a
        spec shared between calls cannot be mutated under a caller.
    """

    num_runs: int = 100
    seed: Optional[int] = None
    epsilon: Optional[float] = None
    deadline_s: Optional[float] = None
    # hash=False: the read-only mapping proxy is unhashable, and a frozen
    # spec should still work as a memoization key (specs differing only
    # in options collide on hash but compare unequal, which is legal).
    options: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
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
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))

    def __reduce__(self):
        # The read-only options proxy is unpicklable/un-deepcopy-able;
        # rebuild from a plain dict instead (__post_init__ re-wraps it),
        # so specs can cross process boundaries like any value type.
        return (
            type(self),
            (self.num_runs, self.seed, self.epsilon, self.deadline_s, dict(self.options)),
        )

    def with_options(self, **options: Any) -> "SolveSpec":
        """A copy of this spec with ``options`` entries merged in."""
        merged = dict(self.options)
        merged.update(options)
        return SolveSpec(
            num_runs=self.num_runs,
            seed=self.seed,
            epsilon=self.epsilon,
            deadline_s=self.deadline_s,
            options=merged,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON wire form (inverse of :meth:`from_dict`).

        A ``CNashConfig`` under ``options["config"]`` is serialised via
        :meth:`CNashConfig.to_dict`; every other option must already be
        JSON-compatible.
        """
        options = dict(self.options)
        config = options.get("config")
        if isinstance(config, CNashConfig):
            options["config"] = config.to_dict()
        return {
            "num_runs": int(self.num_runs),
            "seed": None if self.seed is None else int(self.seed),
            "epsilon": self.epsilon,
            "deadline_s": self.deadline_s,
            "options": options,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        options = dict(data.get("options", {}))
        config = options.get("config")
        if isinstance(config, dict):
            options["config"] = CNashConfig.from_dict(config)
        return cls(
            num_runs=int(data.get("num_runs", 100)),
            seed=None if data.get("seed") is None else int(data["seed"]),
            epsilon=data.get("epsilon"),
            deadline_s=data.get("deadline_s"),
            options=options,
        )


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can (and cannot) do.

    Parameters
    ----------
    mixed_strategies:
        Whether the backend can represent/return mixed-strategy
        equilibria (the S-QUBO formulation structurally cannot — one of
        the paper's central points).
    deterministic:
        Whether a seeded spec reproduces the same report bit-for-bit.
    exact:
        Whether returned equilibria are exact ground truth rather than
        approximate/stochastic output.
    max_actions:
        Largest per-player action count the backend handles well
        (``None`` = unbounded).  Advisory: :func:`repro.api.compare`
        uses it to skip unsuitable backends rather than fail them.
    description:
        One-line human-readable summary for capability tables.
    """

    mixed_strategies: bool = True
    deterministic: bool = True
    exact: bool = False
    max_actions: Optional[int] = None
    description: str = ""

    def supports(self, game: BimatrixGame) -> bool:
        """Whether the backend is suitable for a game of this size."""
        if self.max_actions is None:
            return True
        return game.num_actions <= self.max_actions

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation."""
        return {
            "mixed_strategies": self.mixed_strategies,
            "deterministic": self.deterministic,
            "exact": self.exact,
            "max_actions": self.max_actions,
            "description": self.description,
        }


@dataclass
class SolveReport:
    """Uniform result of one backend solve.

    Attributes
    ----------
    backend:
        Label of the backend (variant) that produced the result, e.g.
        ``"cnash"``, ``"squbo/D-Wave Advantage 4.1"``,
        ``"exact/support-enumeration"``.
    game_name:
        Name of the game that was solved.
    equilibria:
        Distinct equilibria found (de-duplicated by the backend).
    success_rate:
        Fraction of runs/samples that ended on an equilibrium (Table 1
        metric); exact backends report 1.0 when any equilibrium exists.
    num_runs:
        Runs/samples actually executed (0 for exact backends).
    wall_clock_seconds:
        Wall-clock time of the solve.
    batch:
        The full per-run batch (annealing backends only): either a
        :class:`SolverBatchResult` or its wire dict.  Kept lazily — the
        rich object is only serialised when a wire form is actually
        needed (:meth:`batch_dict` / :meth:`to_dict`), so in-process
        facade calls pay no serialisation cost.
    metadata:
        Backend-specific extras (machine profile, quantisation,
        tolerance, portfolio member trace, ...). Must stay
        JSON-compatible.
    """

    backend: str
    game_name: str
    equilibria: List[StrategyProfile] = field(default_factory=list)
    success_rate: float = 0.0
    num_runs: int = 0
    wall_clock_seconds: float = 0.0
    batch: Optional[Union[SolverBatchResult, Dict[str, Any]]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_equilibria(self) -> int:
        """Number of distinct equilibria found."""
        return len(self.equilibria)

    def mixed_equilibria(self, atol: float = 1e-3) -> List[StrategyProfile]:
        """The non-pure equilibria in the report."""
        return [profile for profile in self.equilibria if not profile.is_pure(atol=atol)]

    def pure_equilibria(self, atol: float = 1e-3) -> List[StrategyProfile]:
        """The pure equilibria in the report."""
        return [profile for profile in self.equilibria if profile.is_pure(atol=atol)]

    @property
    def found_mixed(self) -> bool:
        """Whether at least one mixed equilibrium was found."""
        return bool(self.mixed_equilibria())

    def batch_result(self) -> Optional[SolverBatchResult]:
        """The per-run batch as a rich result object (annealing backends)."""
        if self.batch is None:
            return None
        if isinstance(self.batch, SolverBatchResult):
            return self.batch
        return SolverBatchResult.from_dict(self.batch)

    def lift_reduction(self, materialized) -> "SolveReport":
        """Re-express equilibria in the coordinates of an unreduced game.

        When a :class:`repro.games.spec.GameSpec` transform chain
        dominance-reduces a game, the backend solves the *reduced* game
        and its equilibria live in reduced coordinates.  Given the
        spec's :class:`~repro.games.spec.MaterializedGame` (which
        carries the action mapping), this lifts every equilibrium back
        to the original action sets — eliminated actions get probability
        zero, which preserves equilibrium-ness because only strictly
        dominated actions are eliminated — and records the mapping under
        ``metadata["reduction"]``.  No-op (and no metadata) when nothing
        was eliminated.  Returns ``self`` for chaining.
        """
        if not getattr(materialized, "was_reduced", False):
            return self
        self.equilibria = [
            materialized.lift_profile(profile) for profile in self.equilibria
        ]
        self.metadata["reduction"] = materialized.mapping_dict()
        return self

    def batch_dict(self) -> Optional[Dict[str, Any]]:
        """The per-run batch in wire form (serialised on demand)."""
        if self.batch is None:
            return None
        if isinstance(self.batch, SolverBatchResult):
            return self.batch.to_dict()
        return self.batch

    def to_dict(self) -> Dict[str, Any]:
        """JSON wire form (inverse of :meth:`from_dict`)."""
        return {
            "backend": self.backend,
            "game_name": self.game_name,
            "equilibria": profiles_to_wire(self.equilibria),
            "success_rate": float(self.success_rate),
            "num_runs": int(self.num_runs),
            "wall_clock_seconds": float(self.wall_clock_seconds),
            "batch": self.batch_dict(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveReport":
        """Reconstruct a report from :meth:`to_dict` output."""
        return cls(
            backend=str(data["backend"]),
            game_name=str(data.get("game_name", "unnamed game")),
            equilibria=profiles_from_wire(list(data.get("equilibria", []))),
            success_rate=float(data.get("success_rate", 0.0)),
            num_runs=int(data.get("num_runs", 0)),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
            batch=data.get("batch"),
            metadata=dict(data.get("metadata", {})),
        )


@runtime_checkable
class Backend(Protocol):
    """The protocol every solver backend implements.

    A backend is any object with a ``name`` string, a ``capabilities()``
    method and a ``solve(game, spec)`` method returning a
    :class:`SolveReport`.  Register instances with
    :func:`repro.backends.register_backend` and they become reachable
    through :func:`repro.api.solve`, :func:`repro.api.compare` and —
    with no service-layer changes — through
    :class:`repro.service.jobs.SolveRequest` over the scheduler and the
    TCP server.
    """

    name: str

    def capabilities(self) -> BackendCapabilities:
        """Describe what this backend can do."""
        ...

    def solve(self, game: BimatrixGame, spec: SolveSpec) -> SolveReport:
        """Solve one game under the given spec."""
        ...

"""Built-in backends: C-Nash, S-QUBO baseline, exact solvers, portfolio.

Each adapter wraps one of the repo's solver stacks behind the uniform
:class:`~repro.backends.base.Backend` protocol.  The adapters run
exactly the computation a direct call of each solver would — same
solver construction, same seeds, same de-duplication tolerances — so a
seeded request produces byte-identical results either way (guarded by
``TestReferenceOutcomes`` in ``tests/service/test_portfolio.py``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

from repro.backends.base import BackendCapabilities, SolveReport, SolveSpec
from repro.backends.registry import get_backend, is_registered, register_backend
from repro.baselines.dwave_like import DWaveLikeSolver
from repro.baselines.machines import AnnealerProfile, DWAVE_ADVANTAGE_4_1, get_machine
from repro.core.config import CNashConfig
from repro.core.solver import CNashSolver
from repro.games.bimatrix import BimatrixGame
from repro.games.equilibrium import StrategyProfile, is_epsilon_equilibrium
from repro.games.lemke_howson import lemke_howson_all_labels
from repro.games.support_enumeration import support_enumeration

#: Action-count bound below which the exact backend uses full support
#: enumeration; larger games fall back to Lemke–Howson from all labels.
EXACT_ENUMERATION_LIMIT = 9


def config_from_spec(spec: SolveSpec) -> CNashConfig:
    """The C-Nash configuration implied by a spec.

    ``options["config"]`` may be a :class:`CNashConfig` or its wire
    dict; absent, the default configuration is used.  ``spec.epsilon``
    overrides the config's equilibrium tolerance.
    """
    config = spec.options.get("config")
    if config is None:
        config = CNashConfig()
    elif isinstance(config, dict):
        config = CNashConfig.from_dict(config)
    elif not isinstance(config, CNashConfig):
        raise TypeError(
            f"options['config'] must be a CNashConfig or its dict form, got {config!r}"
        )
    if spec.epsilon is not None and spec.epsilon != config.epsilon:
        config = dataclasses.replace(config, epsilon=spec.epsilon)
    return config


def label_is_exact(backend_label: str) -> bool:
    """Whether a report/outcome backend label came from an exact backend.

    Labels are ``"<backend name>"`` or ``"<backend name>/<variant>"``;
    the root resolves through the registry and its declared
    :class:`BackendCapabilities` answer the question — so a custom
    exact backend is recognised by its capability flag, not by its
    name.  Unregistered labels fall back to the ``"exact"`` naming
    convention (e.g. outcomes deserialised in a process where the
    producing backend was never registered).
    """
    root = backend_label.split("/", 1)[0]
    if is_registered(root):
        return get_backend(root).capabilities().exact
    return root == "exact"


def verification_epsilon(
    game: BimatrixGame, backend_label: str, config: Optional[CNashConfig] = None
) -> float:
    """Tolerance at which a backend's equilibria should be verified.

    Exact-backend output (per :func:`label_is_exact`) is checked at
    tight tolerance; annealing output lives on the quantisation grid,
    so it is checked at the solver's effective epsilon (computed
    arithmetically — no solver or hardware model is constructed for the
    check).
    """
    if label_is_exact(backend_label):
        return 1e-6
    payoff_scale = float(max(abs(game.payoff_row).max(), abs(game.payoff_col).max()))
    return (config or CNashConfig()).effective_epsilon(payoff_scale)


def profiles_verified(
    game: BimatrixGame,
    profiles: Sequence[StrategyProfile],
    backend_label: str,
    config: Optional[CNashConfig] = None,
) -> bool:
    """Whether at least one profile is a verified equilibrium of the game."""
    if not profiles:
        return False
    epsilon = verification_epsilon(game, backend_label, config)
    return any(
        is_epsilon_equilibrium(game, profile.p, profile.q, epsilon) for profile in profiles
    )


class CNashBackend:
    """The paper's solver (two-phase SA over the MAX-QUBO objective).

    Options: ``config`` (a :class:`CNashConfig` or its dict form).
    """

    name = "cnash"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            mixed_strategies=True,
            deterministic=True,
            exact=False,
            max_actions=None,
            description="C-Nash two-phase SA (FeFET CiM architecture model)",
        )

    def solve(self, game: BimatrixGame, spec: SolveSpec) -> SolveReport:
        config = config_from_spec(spec)
        solver = CNashSolver(game, config, seed=spec.seed)
        batch = solver.solve_batch(num_runs=spec.num_runs, seed=spec.seed)
        distinct = solver.distinct_solutions(batch)
        return SolveReport(
            backend=self.name,
            game_name=game.name,
            equilibria=list(distinct),
            success_rate=batch.success_rate,
            num_runs=batch.num_runs,
            wall_clock_seconds=batch.wall_clock_seconds,
            batch=batch,
            metadata={
                "num_intervals": config.num_intervals,
                "num_iterations": config.num_iterations,
                "execution": config.execution,
                "use_hardware": config.use_hardware,
                "epsilon": solver.epsilon,
            },
        )


class SQuboBackend:
    """The D-Wave-like S-QUBO baseline (pure strategies only).

    Options: ``machine`` (an :class:`AnnealerProfile` or its name),
    ``num_sweeps`` (int, default 200).  Exists so the paper's comparison
    is reproducible through the same front end; its capability record
    advertises the structural limitation (no mixed strategies) that is
    one of the paper's central points.
    """

    name = "squbo"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            mixed_strategies=False,
            deterministic=True,
            exact=False,
            max_actions=None,
            description="S-QUBO on a simulated quantum annealer (pure NE only)",
        )

    def solve(self, game: BimatrixGame, spec: SolveSpec) -> SolveReport:
        machine = spec.options.get("machine", DWAVE_ADVANTAGE_4_1)
        if isinstance(machine, str):
            machine = get_machine(machine)
        elif not isinstance(machine, AnnealerProfile):
            raise TypeError(
                f"options['machine'] must be an AnnealerProfile or its name, got {machine!r}"
            )
        num_sweeps = int(spec.options.get("num_sweeps", 200))
        epsilon = 1e-6 if spec.epsilon is None else spec.epsilon
        solver = DWaveLikeSolver(
            game, machine=machine, num_sweeps=num_sweeps, epsilon=epsilon, seed=spec.seed
        )
        start = time.perf_counter()
        batch = solver.sample_batch(spec.num_runs, seed=spec.seed)
        distinct = solver.distinct_solutions(batch)
        elapsed = time.perf_counter() - start
        return SolveReport(
            backend=f"{self.name}/{machine.name}",
            game_name=game.name,
            equilibria=list(distinct),
            success_rate=batch.success_rate,
            num_runs=len(batch),
            wall_clock_seconds=elapsed,
            batch=None,
            metadata={
                "machine": machine.name,
                "num_sweeps": num_sweeps,
                "hardware_time_seconds": batch.hardware_time_seconds,
                "classification_fractions": batch.classification_fractions(),
            },
        )


class ExactBackend:
    """Ground-truth solvers: support enumeration / Lemke–Howson.

    Support enumeration is complete but exponential in the support
    count, so games beyond ``options["enumeration_limit"]`` (default
    :data:`EXACT_ENUMERATION_LIMIT`) actions use Lemke–Howson from every
    initial label instead (at least one equilibrium, usually several,
    each verified).  ``num_runs`` and ``seed`` are ignored.
    """

    name = "exact"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            mixed_strategies=True,
            deterministic=True,
            exact=True,
            max_actions=None,
            description="support enumeration (small games) / Lemke-Howson all labels",
        )

    def solve(self, game: BimatrixGame, spec: SolveSpec) -> SolveReport:
        limit = int(spec.options.get("enumeration_limit", EXACT_ENUMERATION_LIMIT))
        start = time.perf_counter()
        if game.num_actions <= limit:
            equilibria = support_enumeration(game)
            backend = f"{self.name}/support-enumeration"
        else:
            equilibria = lemke_howson_all_labels(game)
            backend = f"{self.name}/lemke-howson"
        profiles = list(equilibria)
        elapsed = time.perf_counter() - start
        return SolveReport(
            backend=backend,
            game_name=game.name,
            equilibria=profiles,
            success_rate=1.0 if profiles else 0.0,
            num_runs=0,
            wall_clock_seconds=elapsed,
            batch=None,
            metadata={"enumeration_limit": limit},
        )


class PortfolioBackend:
    """Registry-driven fallback chain: first verified answer wins.

    The member order is *data* (the ``order`` attribute), resolved by
    name through the registry at solve time — re-registering this
    backend with a different order (or different members entirely)
    changes the policy everywhere it is served, including the scheduler,
    with no code changes.  Members whose reports contain a verified
    equilibrium stop the chain; if none verifies, the last member's
    report is returned as-is (its ``success_rate`` tells the caller how
    badly things went).  The default order tries ``exact`` first: it is
    cheap and complete on the benchmark sizes.
    """

    name = "portfolio"

    def __init__(self, order: Sequence[str] = ("exact", "cnash", "squbo")) -> None:
        order = tuple(order)
        if not order:
            raise ValueError("portfolio order must name at least one backend")
        self.order = order

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            mixed_strategies=True,
            deterministic=True,
            exact=False,
            max_actions=None,
            description=f"first verified answer from: {', '.join(self.order)}",
        )

    def solve(self, game: BimatrixGame, spec: SolveSpec) -> SolveReport:
        start = time.perf_counter()
        config = config_from_spec(spec)
        attempts: List[str] = []
        last: Optional[SolveReport] = None
        for member in self.order:
            report = get_backend(member).solve(game, spec)
            attempts.append(report.backend)
            last = report
            if profiles_verified(game, report.equilibria, report.backend, config):
                break
        assert last is not None  # order is non-empty
        # A fresh report, not an in-place edit: a member backend may hand
        # out a cached/shared report object, which must not be corrupted.
        metadata = dict(last.metadata)
        metadata["portfolio_order"] = list(self.order)
        metadata["portfolio_attempts"] = attempts
        return dataclasses.replace(
            last,
            wall_clock_seconds=time.perf_counter() - start,
            metadata=metadata,
        )


def register_builtin_backends() -> None:
    """Idempotently register the four built-in backends."""
    for backend in (CNashBackend(), SQuboBackend(), ExactBackend(), PortfolioBackend()):
        register_backend(backend, replace=True)

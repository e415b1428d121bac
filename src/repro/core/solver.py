"""The C-Nash solver: the paper's primary contribution as a library API.

:class:`CNashSolver` ties together the MAX-QUBO transformation, the
quantised strategy representation, the two-phase SA controller and
(optionally) the FeFET bi-crossbar hardware model.  Typical use::

    from repro import CNashSolver, battle_of_the_sexes

    solver = CNashSolver(battle_of_the_sexes())
    batch = solver.solve_batch(num_runs=100, seed=0)
    print(batch.success_rate)
    equilibria = solver.distinct_solutions(batch)
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.batch import run_batch
from repro.annealing.vectorized import BatchAnnealingResult, run_scaled_progress_callback
from repro.core.config import CNashConfig
from repro.core.max_qubo import HardwareEvaluator, IdealEvaluator, ObjectiveEvaluator
from repro.core.result import SolverBatchResult, SolverRunResult
from repro.core.strategy import QuantizedStrategyPair
from repro.core.two_phase_sa import (
    fused_multi_supported,
    run_two_phase_sa,
    run_two_phase_sa_batch,
    run_two_phase_sa_multi,
)
from repro.games.bimatrix import BimatrixGame
from repro.games.equilibrium import (
    EquilibriumSet,
    StrategyProfile,
    classify_profile,
    is_epsilon_equilibrium,
)
from repro.hardware.bicrossbar import BiCrossbar
from repro.hardware.corners import ProcessCorner, TT
from repro.hardware.noise import VariabilityModel
from repro.hardware.timing import CNashTimingModel, timing_for_game_shape
from repro.telemetry import family_cache
from repro.utils.rng import SeedLike


@family_cache
def _kernel_metrics(reg):
    """Kernel-level metric handles on the process-global registry.

    Declared lazily (declaration is idempotent) so importing the solver
    never races registry swaps in tests; memoized per registry/pid.
    """
    return (
        reg.counter(
            "repro_kernel_launches_total",
            "Annealing kernel launches (vectorized batch or fused multi-game).",
        ),
        reg.counter(
            "repro_kernel_proposals_total",
            "SA proposals evaluated, summed over every chain in every launch.",
        ),
        reg.counter(
            "repro_kernel_accepted_total",
            "SA proposals accepted, summed over every chain in every launch.",
        ),
        reg.counter(
            "repro_kernel_resyncs_total",
            "Incremental-energy cache rebuilds inside fused kernel launches.",
        ),
        reg.histogram(
            "repro_kernel_seconds",
            "Wall-clock seconds per kernel launch.",
        ),
    )


def _record_kernel_launch(batch, num_chains: int, elapsed: float) -> None:
    """Account one finished launch's work to the kernel metric families."""
    launches, proposals, accepted, resyncs, seconds = _kernel_metrics()
    launches.inc()
    proposals.inc(batch.num_iterations * num_chains)
    accepted.inc(int(np.sum(batch.num_accepted)))
    if getattr(batch, "num_resyncs", 0):
        resyncs.inc(batch.num_resyncs)
    seconds.observe(elapsed)


class CNashSolver:
    """Finds pure and mixed Nash equilibria with the C-Nash architecture.

    Parameters
    ----------
    game:
        The two-player game to solve.
    config:
        Solver configuration (quantisation, iterations, temperatures,
        hardware-in-the-loop evaluation, ...).
    variability:
        Hardware variability model (only used with
        ``config.use_hardware``); defaults to the paper's parameters.
    corner:
        Process corner for the hardware model.
    seed:
        Seed for the *hardware instance* (device-to-device variability);
        per-run seeds are passed to the solve methods.
    """

    def __init__(
        self,
        game: BimatrixGame,
        config: Optional[CNashConfig] = None,
        variability: Optional[VariabilityModel] = None,
        corner: ProcessCorner = TT,
        seed: SeedLike = None,
    ) -> None:
        self.game = game
        self.config = config or CNashConfig()
        self.corner = corner
        self._purity_atol = 0.5 / self.config.num_intervals
        if self.config.use_hardware:
            bicrossbar = BiCrossbar(
                game,
                num_intervals=self.config.num_intervals,
                cells_per_element=self.config.cells_per_element,
                variability=variability,
                adc_bits=self.config.adc_bits,
                corner=corner,
                seed=seed,
            )
            self.evaluator: ObjectiveEvaluator = HardwareEvaluator(game, bicrossbar)
        else:
            self.evaluator = IdealEvaluator(game)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Equilibrium tolerance used to classify solver output."""
        payoff_scale = float(
            max(abs(self.game.payoff_row).max(), abs(self.game.payoff_col).max())
        )
        return self.config.effective_epsilon(payoff_scale)

    def timing_model(self) -> CNashTimingModel:
        """The hardware timing model for this game's shape."""
        n, m = self.game.shape
        return timing_for_game_shape(n, m)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self, seed: SeedLike = None, initial_state: Optional[QuantizedStrategyPair] = None
    ) -> SolverRunResult:
        """Run one SA run and classify its best strategy pair."""
        run = run_two_phase_sa(self.evaluator, self.config, seed=seed, initial_state=initial_state)
        return self._classify_run(
            epsilon=self.epsilon,
            best_state=run.best_state,
            best_objective=run.best_objective,
            iterations=run.result.num_iterations,
            iterations_to_best=run.result.iterations_to_best,
            acceptance_rate=run.result.acceptance_rate,
            objective_history=run.result.energy_history,
        )

    def solve_batch(
        self,
        num_runs: int,
        seed: SeedLike = None,
        progress=None,
    ) -> SolverBatchResult:
        """Run ``num_runs`` independent SA runs (the paper's 5000-run protocol).

        With ``config.execution == "vectorized"`` (the default) all runs
        advance in lockstep on the fused kernel — one batched objective
        evaluation per iteration instead of one tiny evaluation per run
        per iteration.  The exact evaluator on games of at least 36
        payoff cells uses O(n+m) rank-1 delta updates; the hardware
        evaluator (full two-phase reads) and smaller games re-evaluate
        the whole objective per proposal
        (:func:`~repro.core.two_phase_sa.run_two_phase_sa_batch`).
        ``"sequential"`` executes the runs one at a time with per-run
        generators (the reference implementation).  All paths sample the
        same move/acceptance distributions, so the batch statistics
        match.

        Parameters
        ----------
        progress:
            Optional ``progress(completed, total)`` callback.  The
            sequential engine reports completed runs; the vectorized
            engine (where all runs finish together) reports the
            completed fraction of the iteration budget scaled to run
            counts, ending at ``(num_runs, num_runs)`` either way.
        """
        if not isinstance(num_runs, (int, np.integer)) or isinstance(num_runs, bool):
            raise ValueError(f"num_runs must be an integer >= 1, got {num_runs!r}")
        if num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {num_runs}")
        start = time.perf_counter()
        if self.config.execution == "vectorized":
            runs = self._solve_batch_vectorized(num_runs, seed, progress)
        else:
            batch = run_batch(
                lambda rng, index: self.solve(seed=rng),
                num_runs,
                seed=seed,
                progress=progress,
            )
            runs = list(batch.results)
        elapsed = time.perf_counter() - start
        return SolverBatchResult(
            game_name=self.game.name,
            runs=runs,
            num_intervals=self.config.num_intervals,
            wall_clock_seconds=elapsed,
        )

    def _solve_batch_vectorized(
        self, num_runs: int, seed: SeedLike, progress
    ) -> List[SolverRunResult]:
        """Run all chains through the vectorized engine and classify each.

        All runs finish together, so ``progress(completed, total)`` is
        reported as the fraction of the iteration budget done (scaled to
        run counts), throttled to ~100 updates over the whole batch.
        """
        callback = None
        if progress is not None:
            callback = run_scaled_progress_callback(
                progress, self.config.num_iterations, num_runs
            )
        launch_start = time.perf_counter()
        batch = run_two_phase_sa_batch(
            self.evaluator, self.config, num_runs, seed=seed, callback=callback
        )
        _record_kernel_launch(batch, num_runs, time.perf_counter() - launch_start)
        return self._classify_chains(batch, 0, num_runs)

    def _classify_chains(
        self, batch: BatchAnnealingResult, start: int, stop: int
    ) -> List[SolverRunResult]:
        """Classify chains ``start:stop`` of a kernel launch's stacked result."""
        acceptance_rates = batch.acceptance_rates
        epsilon = self.epsilon
        return [
            self._classify_run(
                epsilon=epsilon,
                best_state=batch.best_states.state(index),
                best_objective=float(batch.best_energies[index]),
                iterations=batch.num_iterations,
                iterations_to_best=int(batch.iterations_to_best[index]),
                acceptance_rate=float(acceptance_rates[index]),
                objective_history=batch.chain_history(index),
            )
            for index in range(start, stop)
        ]

    def _classify_run(
        self,
        epsilon: float,
        best_state: QuantizedStrategyPair,
        best_objective: float,
        iterations: int,
        iterations_to_best: int,
        acceptance_rate: float,
        objective_history: List[float],
    ) -> SolverRunResult:
        """Classify one run's best state against the exact game payoffs.

        The hardware may report a noisy objective, but whether the
        returned strategy pair is an equilibrium is a property of the
        game, so classification always uses the exact payoffs.
        ``epsilon`` is :attr:`epsilon`, which batch callers compute once.
        """
        classification = classify_profile(
            self.game,
            best_state.to_profile(),
            epsilon=epsilon,
            purity_atol=self._purity_atol,
        )
        return SolverRunResult(
            best_state=best_state,
            best_objective=best_objective,
            is_equilibrium=classification != "error",
            classification=classification,
            iterations=iterations,
            iterations_to_best=iterations_to_best,
            acceptance_rate=acceptance_rate,
            objective_history=objective_history,
        )

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------
    def distinct_solutions(
        self, batch: SolverBatchResult, atol: Optional[float] = None
    ) -> EquilibriumSet:
        """De-duplicated equilibria found across a batch of runs."""
        atol = atol if atol is not None else 0.5 / self.config.num_intervals
        return EquilibriumSet.from_profiles(
            self.game, (run.profile for run in batch.runs if run.success), atol=atol
        )

    def verify(self, profile: StrategyProfile, epsilon: Optional[float] = None) -> bool:
        """Check a profile against the game with the solver's tolerance."""
        return is_epsilon_equilibrium(
            self.game, profile.p, profile.q, self.epsilon if epsilon is None else epsilon
        )

    def time_to_solution_s(self, batch: SolverBatchResult) -> Optional[float]:
        """Estimated hardware time to find a solution, from a batch's statistics.

        Each SA run costs its full iteration budget on the hardware (the
        annealing schedule runs to completion before the result is read
        out, as in the paper's protocol), and the expected number of runs
        until a success is ``1 / success_rate``.
        """
        if batch.success_rate == 0:
            return None
        timing = self.timing_model()
        expected_runs = 1.0 / batch.success_rate
        total_iterations = expected_runs * self.config.num_iterations
        return timing.time_to_solution_s(total_iterations)


def fused_shards_supported(config: CNashConfig, shape: Tuple[int, int]) -> bool:
    """Whether same-shape shards under ``config`` may share one fused launch.

    A thin re-export of
    :func:`repro.core.two_phase_sa.fused_multi_supported` so service-layer
    callers gate on the solver API rather than the kernel module.
    """
    return fused_multi_supported(config, shape)


def solve_shards_fused(
    shards: Sequence[Tuple[BimatrixGame, int, SeedLike]],
    config: Optional[CNashConfig] = None,
) -> List[SolverBatchResult]:
    """Solve one or many same-shape shard jobs as one fused kernel launch.

    ``shards[j] = (game, num_runs, seed)``; the returned batch ``j`` is
    bit-identical (same runs, same classifications — everything except
    ``wall_clock_seconds``) to
    ``CNashSolver(game, config).solve_batch(num_runs, seed=seed)``,
    because each shard keeps its own RNG stream inside the fused launch.
    The launch amortises the per-iteration Python overhead of the fused
    kernel across all shards, which at small per-shard chain counts is
    the dominant cost.  Callers must gate on :func:`fused_shards_supported`
    (all games must additionally share one shape) and should fall back to
    per-shard :meth:`CNashSolver.solve_batch` when unsupported.

    The launch's wall clock is attributed to the per-shard results
    proportionally to chain counts.
    """
    if not shards:
        return []
    config = config or CNashConfig()
    shape = shards[0][0].shape
    if not fused_shards_supported(config, shape):
        raise ValueError(
            "configuration does not support fused multi-shard execution; "
            "gate on fused_shards_supported() and dispatch shards solo"
        )
    start = time.perf_counter()
    solvers = [CNashSolver(game, config) for game, _, _ in shards]
    batch = run_two_phase_sa_multi(
        [solver.evaluator for solver in solvers],
        config,
        [(num_runs, seed) for _, num_runs, seed in shards],
    )
    elapsed = time.perf_counter() - start
    total_runs = sum(num_runs for _, num_runs, _ in shards)
    _record_kernel_launch(batch, total_runs, elapsed)
    results: List[SolverBatchResult] = []
    offset = 0
    for solver, (game, num_runs, _) in zip(solvers, shards):
        runs = solver._classify_chains(batch, offset, offset + num_runs)
        offset += num_runs
        results.append(
            SolverBatchResult(
                game_name=game.name,
                runs=runs,
                num_intervals=config.num_intervals,
                wall_clock_seconds=elapsed * num_runs / total_runs,
            )
        )
    return results

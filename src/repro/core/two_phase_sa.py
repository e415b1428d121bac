"""The two-phase simulated-annealing controller (Alg. 1).

Each SA iteration consists of two hardware phases (Sec. 3.4):

* **Phase 1** — the crossbars compute the matrix-vector products ``Mq``
  and ``N^T p`` with unit row/column inputs and the WTA trees extract
  ``max(Mq)`` and ``max(N^T p)``;
* **Phase 2** — the crossbars compute the VMV products ``p^T M q`` and
  ``p^T N q`` with the WTA trees deactivated.

The SA logic combines the three terms into the MAX-QUBO objective,
compares it with the recorded value, and accepts or rejects the new
strategy pair with the Metropolis rule at the current temperature
(Alg. 1, lines 8–13).  In this reproduction both phases are performed by
the :class:`~repro.core.max_qubo.ObjectiveEvaluator` (either exact or
through the bi-crossbar model), and this module supplies the annealing
problem definition plus a convenience runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annealing.engine import AnnealingConfig, AnnealingResult, AnnealingProblem, SimulatedAnnealer
from repro.annealing.vectorized import (
    BatchAnnealingProblem,
    BatchAnnealingResult,
    FusedAnnealer,
    FusedBatchProblem,
    MultiFusedBatchProblem,
    VectorizedAnnealer,
)
from repro.core.config import CNashConfig
from repro.core.max_qubo import IdealEvaluator, ObjectiveEvaluator, StackedIncrementalState
from repro.core.strategy import (
    BatchedStrategyState,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    TransferMoveBatch,
    sample_transfer_moves,
)
from repro.utils.rng import SeedLike


class TwoPhaseAnnealingProblem(AnnealingProblem[QuantizedStrategyPair]):
    """The MAX-QUBO minimisation over the quantised strategy grid."""

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        move_generator: Optional[StrategyMoveGenerator] = None,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.move_generator = move_generator or StrategyMoveGenerator()
        self.pure_start_bias = pure_start_bias
        self._shape = evaluator.game.shape

    def initial_state(self, rng: np.random.Generator) -> QuantizedStrategyPair:
        n, m = self._shape
        return self.move_generator.random_state(
            n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
        )

    def propose(
        self, state: QuantizedStrategyPair, rng: np.random.Generator
    ) -> QuantizedStrategyPair:
        return self.move_generator.propose(state, rng)

    def energy(self, state: QuantizedStrategyPair) -> float:
        return self.evaluator.evaluate(state)


class BatchTwoPhaseAnnealingProblem(BatchAnnealingProblem[BatchedStrategyState]):
    """Chain-parallel MAX-QUBO minimisation over stacked strategy batches.

    The batched counterpart of :class:`TwoPhaseAnnealingProblem`: all
    chains propose interval-transfer moves and evaluate the objective
    (exactly, or through the batched bi-crossbar datapath) as whole-batch
    array operations.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        move_both_players: bool = False,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.move_both_players = move_both_players
        self.pure_start_bias = pure_start_bias
        self._shape = evaluator.game.shape

    def initial_states(
        self, batch_size: int, rng: np.random.Generator
    ) -> BatchedStrategyState:
        n, m = self._shape
        return BatchedStrategyState.random(
            batch_size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
        )

    def propose_batch(
        self, states: BatchedStrategyState, rng: np.random.Generator
    ) -> BatchedStrategyState:
        return states.transfer_moves(rng, move_both_players=self.move_both_players)

    def energies(self, states: BatchedStrategyState) -> np.ndarray:
        return self.evaluator.evaluate_batch(states)

    def select(
        self,
        mask: np.ndarray,
        accepted: BatchedStrategyState,
        rejected: BatchedStrategyState,
    ) -> BatchedStrategyState:
        return BatchedStrategyState.where(mask, accepted, rejected)

    def unstack(self, states: BatchedStrategyState, index: int) -> QuantizedStrategyPair:
        return states.state(index)


class _CountBuffers:
    """Snapshot and export methods over the ``(B, n)`` / ``(B, m)`` count buffers.

    Shared by both fused problems, which keep their chains' interval
    counts in ``_p_counts`` / ``_q_counts`` (viewed by ``_state_view``).
    """

    num_intervals: int
    _p_counts: np.ndarray
    _q_counts: np.ndarray
    _state_view: BatchedStrategyState

    def make_snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._p_counts.copy(), self._q_counts.copy()

    def update_snapshot(
        self, snapshot: Tuple[np.ndarray, np.ndarray], mask: np.ndarray
    ) -> None:
        # Only the improved rows change, so copy just those.
        rows = np.flatnonzero(mask)
        snapshot_p, snapshot_q = snapshot
        snapshot_p[rows] = self._p_counts[rows]
        snapshot_q[rows] = self._q_counts[rows]

    def export_snapshot(
        self, snapshot: Tuple[np.ndarray, np.ndarray]
    ) -> BatchedStrategyState:
        snapshot_p, snapshot_q = snapshot
        return BatchedStrategyState(snapshot_p, snapshot_q, self.num_intervals)

    def export_states(self) -> BatchedStrategyState:
        return BatchedStrategyState(
            self._p_counts.copy(), self._q_counts.copy(), self.num_intervals
        )

    def current_states(self) -> BatchedStrategyState:
        return self._state_view

    def unstack(self, states: BatchedStrategyState, index: int) -> QuantizedStrategyPair:
        return states.state(index)


class FusedTwoPhaseProblem(_CountBuffers, FusedBatchProblem[BatchedStrategyState]):
    """MAX-QUBO minimisation on the fused in-place kernel.

    The chains' interval counts live in problem-owned ``(B, n)`` /
    ``(B, m)`` buffers; every iteration stages one structured
    interval-transfer move per chain (:class:`TransferMoveBatch`,
    sampled from pre-drawn block uniforms) and computes candidate
    energies either

    * ``evaluation="delta"`` — through the evaluator's
      :class:`~repro.core.max_qubo.StackedIncrementalState` rank-1 cache,
      ``O(B·(n+m))`` per iteration, periodically resynced; or
    * ``evaluation="full"`` — through ``evaluator.evaluate_batch`` on a
      double-buffered candidate state, ``O(B·n·m)`` per iteration.

    Both modes consume identical randomness, so at exactly representable
    payoffs (integer payoffs, power-of-two ``I``) they produce identical
    accept/reject sequences and equilibria.

    Rank-1 updates only pay off once a full ``O(n·m)`` product costs more
    than the delta bookkeeping, so ``evaluation="delta"`` falls back to
    full products for games with fewer than ``min_incremental_cells``
    payoff cells (the measured crossover; pass ``0`` to force incremental
    updates regardless of size, e.g. in equivalence tests).
    """

    #: Payoff-cell count below which delta evaluation uses full products.
    MIN_INCREMENTAL_CELLS = 36

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        pure_start_bias: float = 0.5,
        evaluation: str = "delta",
        min_incremental_cells: Optional[int] = None,
    ) -> None:
        if evaluation not in ("delta", "full"):
            raise ValueError(f"evaluation must be 'delta' or 'full', got {evaluation!r}")
        if evaluation == "delta" and not evaluator.supports_incremental():
            raise ValueError(
                f"{type(evaluator).__name__} does not support incremental (delta) "
                "evaluation; use evaluation='full' or the VectorizedAnnealer path"
            )
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.pure_start_bias = pure_start_bias
        self.evaluation = evaluation
        self._shape = evaluator.game.shape
        if min_incremental_cells is None:
            min_incremental_cells = self.MIN_INCREMENTAL_CELLS
        n, m = self._shape
        self._use_incremental = evaluation == "delta" and n * m >= min_incremental_cells
        self._incremental = None
        self._moves: Optional[TransferMoveBatch] = None

    # ------------------------------------------------------------------
    # FusedBatchProblem interface
    # ------------------------------------------------------------------
    def begin(
        self,
        batch_size: int,
        rng: np.random.Generator,
        initial_states: Optional[BatchedStrategyState] = None,
    ) -> np.ndarray:
        n, m = self._shape
        if initial_states is None:
            initial_states = BatchedStrategyState.random(
                batch_size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
            )
        self._p_counts = np.array(initial_states.p_counts, dtype=int)
        self._q_counts = np.array(initial_states.q_counts, dtype=int)
        self._state_view = BatchedStrategyState(
            self._p_counts, self._q_counts, self.num_intervals
        )
        if self._use_incremental:
            self._incremental = self.evaluator.incremental_state(self._state_view)
            return self._incremental.energies()
        self._cand_p = self._p_counts.copy()
        self._cand_q = self._q_counts.copy()
        self._cand_view = BatchedStrategyState(
            self._cand_p, self._cand_q, self.num_intervals
        )
        return np.array(self.evaluator.evaluate_batch(self._state_view), dtype=float)

    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        # One generator call per block: player choice, donor pick and
        # receiver pick for every chain and step.
        self._uniforms = rng.random((3, num_steps, self._p_counts.shape[0]))

    def propose(self, step: int) -> np.ndarray:
        u_player, u_donor, u_receiver = self._uniforms[:, step]
        moves = sample_transfer_moves(
            self._p_counts, self._q_counts, u_player, u_donor, u_receiver
        )
        self._moves = moves
        if self._incremental is not None:
            return self._incremental.candidate_energies(moves)
        np.copyto(self._cand_p, self._p_counts)
        np.copyto(self._cand_q, self._q_counts)
        moves.apply(self._cand_p, self._cand_q)
        return np.asarray(self.evaluator.evaluate_batch(self._cand_view), dtype=float)

    def commit(self, accept: np.ndarray) -> None:
        assert self._moves is not None
        self._moves.apply(self._p_counts, self._q_counts, accept=accept)
        if self._incremental is not None:
            self._incremental.commit(accept)
        self._moves = None

    def resync(self) -> Optional[np.ndarray]:
        if self._incremental is None:
            return None
        return self._incremental.resync(self._state_view)


class MultiGameFusedProblem(_CountBuffers, MultiFusedBatchProblem[BatchedStrategyState]):
    """Chains of several same-shape games fused into one kernel launch.

    One launch per game: launch ``j``'s chains anneal against
    ``evaluators[j]``'s game through a
    :class:`~repro.core.max_qubo.StackedIncrementalState` whose
    per-iteration math gathers each chain's own payoff matrices.  Every
    launch draws from its own generator in the exact solo order
    (initial states, then per block proposal uniforms followed by
    acceptance uniforms), so each launch's chains are bit-identical to
    a solo :class:`FusedTwoPhaseProblem` run with the same seed.

    Only the incremental (delta) evaluation path exists here: full
    evaluation batches the ``O(n·m)`` products per *game*, which would
    change BLAS summation shapes and break bit-identity, and small
    games below the incremental crossover are cheap enough to run solo.
    Callers gate on :func:`fused_multi_supported`.
    """

    def __init__(
        self,
        evaluators: Sequence[IdealEvaluator],
        num_intervals: int,
        pure_start_bias: float = 0.5,
    ) -> None:
        if not evaluators:
            raise ValueError("need at least one evaluator")
        shape = evaluators[0].game.shape
        for evaluator in evaluators:
            if not evaluator.supports_incremental():
                raise ValueError(
                    f"{type(evaluator).__name__} does not support incremental (delta) "
                    "evaluation; multi-game fusion requires it"
                )
            if evaluator.game.shape != shape:
                raise ValueError(
                    f"all fused games must share one shape, got {shape} "
                    f"and {evaluator.game.shape}"
                )
        self.evaluators = list(evaluators)
        self.num_intervals = num_intervals
        self.pure_start_bias = pure_start_bias
        self._shape = shape
        self._moves: Optional[TransferMoveBatch] = None

    # ------------------------------------------------------------------
    # MultiFusedBatchProblem interface
    # ------------------------------------------------------------------
    def begin_multi(
        self, launches: Sequence[Tuple[int, np.random.Generator]]
    ) -> np.ndarray:
        if len(launches) != len(self.evaluators):
            raise ValueError(
                f"expected {len(self.evaluators)} launches (one per game), "
                f"got {len(launches)}"
            )
        n, m = self._shape
        p_parts: List[np.ndarray] = []
        q_parts: List[np.ndarray] = []
        sizes: List[int] = []
        for size, rng in launches:
            # The solo initial draw of FusedTwoPhaseProblem.begin, from
            # this launch's own generator.
            states = BatchedStrategyState.random(
                size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
            )
            p_parts.append(np.array(states.p_counts, dtype=int))
            q_parts.append(np.array(states.q_counts, dtype=int))
            sizes.append(size)
        self._p_counts = np.concatenate(p_parts, axis=0)
        self._q_counts = np.concatenate(q_parts, axis=0)
        self._state_view = BatchedStrategyState(
            self._p_counts, self._q_counts, self.num_intervals
        )
        offsets = np.cumsum([0] + sizes)
        self._bounds = [
            (int(offsets[j]), int(offsets[j + 1])) for j in range(len(sizes))
        ]
        chain_games = np.repeat(np.arange(len(sizes)), sizes)
        self._incremental = StackedIncrementalState.from_evaluators(
            self.evaluators, chain_games, self._state_view
        )
        return self._incremental.energies()

    def draw_block_multi(
        self, num_steps: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        blocks: List[np.ndarray] = []
        accepts: List[np.ndarray] = []
        for (start, stop), rng in zip(self._bounds, rngs):
            size = stop - start
            # Solo consumption order per launch: proposal block first,
            # acceptance uniforms second.
            blocks.append(rng.random((3, num_steps, size)))
            accepts.append(rng.random((num_steps, size)))
        self._uniforms = np.concatenate(blocks, axis=2)
        return np.concatenate(accepts, axis=1)

    # ------------------------------------------------------------------
    # FusedBatchProblem interface (shared stage/commit cycle)
    # ------------------------------------------------------------------
    def propose(self, step: int) -> np.ndarray:
        u_player, u_donor, u_receiver = self._uniforms[:, step]
        moves = sample_transfer_moves(
            self._p_counts, self._q_counts, u_player, u_donor, u_receiver
        )
        self._moves = moves
        return self._incremental.candidate_energies(moves)

    def commit(self, accept: np.ndarray) -> None:
        assert self._moves is not None
        self._moves.apply(self._p_counts, self._q_counts, accept=accept)
        self._incremental.commit(accept)
        self._moves = None

    def resync(self) -> Optional[np.ndarray]:
        return self._incremental.resync(self._state_view)


def fused_multi_supported(config: CNashConfig, shape: Tuple[int, int]) -> bool:
    """Whether a multi-game fused launch reproduces the solo kernel bit-for-bit.

    True exactly when the solo :func:`run_two_phase_sa_batch` would take
    the fused incremental (delta) path with an exact evaluator: the
    multi launch replays each launch's RNG stream through the same
    per-chain math, so any configuration outside that path (hardware
    noise, both-player moves, full evaluation, games below the
    incremental crossover) must keep solo dispatch.
    """
    n, m = shape
    return (
        config.execution == "vectorized"
        and config.evaluation == "delta"
        and not config.move_both_players
        and not config.use_hardware
        and n * m >= FusedTwoPhaseProblem.MIN_INCREMENTAL_CELLS
    )


def run_two_phase_sa_multi(
    evaluators: Sequence[IdealEvaluator],
    config: CNashConfig,
    launches: Sequence[Tuple[int, SeedLike]],
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run several games' chain batches as one fused kernel launch.

    ``launches[j] = (num_runs, seed)`` pairs with ``evaluators[j]``; the
    stacked result holds launch ``j``'s chains at offset
    ``sum(num_runs[:j])``, each bit-identical to
    ``run_two_phase_sa_batch(evaluators[j], config, num_runs, seed)``.
    Callers must check :func:`fused_multi_supported` first.
    """
    if len(evaluators) != len(launches):
        raise ValueError(
            f"got {len(evaluators)} evaluators but {len(launches)} launches"
        )
    problem = MultiGameFusedProblem(
        evaluators=evaluators,
        num_intervals=config.num_intervals,
        pure_start_bias=config.pure_start_bias,
    )
    annealer = FusedAnnealer(
        problem,
        AnnealingConfig(
            num_iterations=config.num_iterations,
            schedule=config.schedule(),
            acceptance=config.acceptance,
            record_history=config.record_history,
        ),
    )
    return annealer.run_multi(launches, callback=callback)


@dataclass
class TwoPhaseSARun:
    """Raw outcome of one two-phase SA run (before NE classification)."""

    result: AnnealingResult[QuantizedStrategyPair]

    @property
    def best_state(self) -> QuantizedStrategyPair:
        """The lowest-objective state visited."""
        return self.result.best_state

    @property
    def best_objective(self) -> float:
        """The lowest objective value observed."""
        return self.result.best_energy


def run_two_phase_sa(
    evaluator: ObjectiveEvaluator,
    config: CNashConfig,
    seed: SeedLike = None,
    initial_state: Optional[QuantizedStrategyPair] = None,
) -> TwoPhaseSARun:
    """Run Alg. 1 once and return the raw annealing result.

    The temperature starts at ``config.initial_temperature`` and decays
    geometrically to ``config.final_temperature`` over
    ``config.num_iterations`` iterations; each iteration proposes a
    neighbouring strategy pair, evaluates the objective via the two
    hardware phases, and applies the Metropolis acceptance rule.
    """
    problem = TwoPhaseAnnealingProblem(
        evaluator=evaluator,
        num_intervals=config.num_intervals,
        move_generator=StrategyMoveGenerator(move_both_players=config.move_both_players),
        pure_start_bias=config.pure_start_bias,
    )
    annealer = SimulatedAnnealer(
        problem,
        AnnealingConfig(
            num_iterations=config.num_iterations,
            schedule=config.schedule(),
            acceptance=config.acceptance,
            record_history=config.record_history,
        ),
    )
    result = annealer.run(seed=seed, initial_state=initial_state)
    return TwoPhaseSARun(result=result)


def run_two_phase_sa_batch(
    evaluator: ObjectiveEvaluator,
    config: CNashConfig,
    num_runs: int,
    seed: SeedLike = None,
    initial_states: Optional[BatchedStrategyState] = None,
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run ``num_runs`` independent Alg.-1 chains in lockstep.

    The vectorized counterpart of calling :func:`run_two_phase_sa`
    ``num_runs`` times: every iteration proposes one move per chain and
    evaluates all objectives as a single stacked computation.  The whole
    batch is reproducible from a single ``seed``.

    Execution routes through the fused in-place kernel
    (:class:`~repro.annealing.vectorized.FusedAnnealer` driving
    :class:`FusedTwoPhaseProblem`) whenever the evaluator supports it:
    single-player moves and, for ``config.evaluation == "delta"``, an
    evaluator advertising :meth:`ObjectiveEvaluator.supports_incremental`.
    The hardware evaluator (whose objective is a physical two-phase
    read), custom evaluators without incremental support and
    ``move_both_players`` runs keep the full-evaluation
    :class:`~repro.annealing.vectorized.VectorizedAnnealer` path
    unchanged.
    """
    annealing_config = AnnealingConfig(
        num_iterations=config.num_iterations,
        schedule=config.schedule(),
        acceptance=config.acceptance,
        record_history=config.record_history,
    )
    if not config.move_both_players and evaluator.supports_incremental():
        problem = FusedTwoPhaseProblem(
            evaluator=evaluator,
            num_intervals=config.num_intervals,
            pure_start_bias=config.pure_start_bias,
            evaluation=config.evaluation,
        )
        annealer = FusedAnnealer(problem, annealing_config)
        return annealer.run(
            num_runs, seed=seed, initial_states=initial_states, callback=callback
        )
    legacy_problem = BatchTwoPhaseAnnealingProblem(
        evaluator=evaluator,
        num_intervals=config.num_intervals,
        move_both_players=config.move_both_players,
        pure_start_bias=config.pure_start_bias,
    )
    legacy_annealer = VectorizedAnnealer(legacy_problem, annealing_config)
    return legacy_annealer.run(
        num_runs, seed=seed, initial_states=initial_states, callback=callback
    )

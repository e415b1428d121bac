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
    BatchAnnealingResult,
    FusedAnnealer,
    FusedBatchProblem,
    MultiFusedBatchProblem,
)
from repro.core.config import CNashConfig
from repro.core.max_qubo import IdealEvaluator, ObjectiveEvaluator, StackedIncrementalState
from repro.core.strategy import (
    ActionSupport,
    BatchedStrategyState,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    TransferMoveBatch,
    TransferPlan,
    _pick_transfer,
    plan_transfers,
    stack_counts,
)
from repro.utils.rng import SeedLike

#: Payoff-cell count from which rank-1 delta evaluation pays off (the
#: measured crossover): below it a full ``O(n·m)`` product costs less
#: than the delta bookkeeping, so smaller games run full evaluation.
MIN_INCREMENTAL_CELLS = 36


class TwoPhaseAnnealingProblem(AnnealingProblem[QuantizedStrategyPair]):
    """The MAX-QUBO minimisation over the quantised strategy grid."""

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.move_generator = StrategyMoveGenerator()
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


class _CountBuffers:
    """Count buffers, move staging and snapshots shared by both fused problems.

    Both keep their ``B`` chains' interval counts in one C-contiguous
    ``(2B, w)`` array ``_counts`` (:func:`stack_counts`: row
    ``player·B + chain``, ``w = max(n, m)``), viewed per player by
    ``_state_view``, and mirror it in one :class:`ActionSupport` over all
    ``2B`` rows.  Each block's uniforms become per-step mover rows, donor
    uniforms and receiver bases once (:func:`plan_transfers`), so staging
    a step's moves is one :func:`_pick_transfer`.
    """

    num_intervals: int
    _shape: Tuple[int, int]
    _counts: np.ndarray
    _support: ActionSupport
    _state_view: BatchedStrategyState
    _plan: TransferPlan
    _moves: Optional[TransferMoveBatch] = None

    def _set_counts(self, p_counts: np.ndarray, q_counts: np.ndarray) -> None:
        """Adopt the chains' initial counts and build their support list."""
        self._counts = stack_counts(p_counts, q_counts)
        self._batch_size = p_counts.shape[0]
        self._support = ActionSupport(self._counts, self.num_intervals)
        self._state_view = self._player_views(self._counts)

    def _player_views(self, counts: np.ndarray) -> BatchedStrategyState:
        """The two players' counts of a ``(2B, w)`` array as views."""
        n, m = self._shape
        batch_size = self._batch_size
        return BatchedStrategyState(
            counts[:batch_size, :n], counts[batch_size:, :m], self.num_intervals
        )

    def _plan_block(self, uniforms: np.ndarray) -> None:
        """Plan a block's moves from its ``(3, steps, B)`` proposal uniforms."""
        self._plan = plan_transfers(self._shape, *uniforms)

    def _stage_moves(self, step: int) -> TransferMoveBatch:
        """Sample the ``step``-th move of the block and keep it for :meth:`_apply_moves`."""
        rows, donor, receiver, chains = self._plan
        self._moves = _pick_transfer(
            self._support,
            rows[step],
            donor[step],
            receiver[step],
            None if chains is None else chains[step],
        )
        return self._moves

    def _apply_moves(self, accept: np.ndarray) -> TransferMoveBatch:
        """Fold the staged move into the accepted chains; returns their moves."""
        assert self._moves is not None
        accepted = self._moves.accepted(accept)
        if accepted.rows.size:
            self._support.transfer(
                accepted.rows, accepted.source, accepted.target, accepted.slot
            )
        self._moves = None
        return accepted

    def make_snapshot(self) -> np.ndarray:
        # Shaped (2, B, w) so that an improved chain's two rows are one copy.
        return self._counts.reshape(2, self._batch_size, -1).copy()

    def update_snapshot(self, snapshot: np.ndarray, mask: np.ndarray) -> None:
        # Only the improved chains change, so copy just their rows.
        chains = np.flatnonzero(mask)
        snapshot[:, chains] = self._counts.reshape(snapshot.shape)[:, chains]

    def export_snapshot(self, snapshot: np.ndarray) -> BatchedStrategyState:
        n, m = self._shape
        return BatchedStrategyState(
            np.ascontiguousarray(snapshot[0, :, :n]),
            np.ascontiguousarray(snapshot[1, :, :m]),
            self.num_intervals,
        )

    def export_states(self) -> BatchedStrategyState:
        return self.export_snapshot(self.make_snapshot())

    def current_states(self) -> BatchedStrategyState:
        return self._state_view

    def unstack(self, states: BatchedStrategyState, index: int) -> QuantizedStrategyPair:
        return states.state(index)


class FusedTwoPhaseProblem(_CountBuffers, FusedBatchProblem[BatchedStrategyState]):
    """MAX-QUBO minimisation on the fused kernel by full evaluation.

    The chains' interval counts live in a problem-owned ``(2B, w)``
    buffer.  Every iteration stages one structured interval-transfer
    move per chain (:class:`TransferMoveBatch`, sampled from pre-drawn
    block uniforms), applies it to a candidate buffer that equals the
    counts between iterations, touching only the moved cells, and scores
    the candidates with ``evaluator.evaluate_batch``: ``O(B·n·m)`` per
    iteration.

    This is the path for any evaluator: the hardware evaluator, whose
    objective is a physical two-phase read, custom evaluators, and
    ideal games below :data:`MIN_INCREMENTAL_CELLS`.
    :class:`MultiGameFusedProblem` is the rank-1 delta counterpart.
    Both consume identical randomness, so at exactly representable
    payoffs (integer payoffs, power-of-two ``I``) they produce
    identical accept/reject sequences and equilibria.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        num_intervals: int,
        pure_start_bias: float = 0.5,
    ) -> None:
        self.evaluator = evaluator
        self.num_intervals = num_intervals
        self.pure_start_bias = pure_start_bias
        self._shape = evaluator.game.shape

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
        else:
            # The support lists are min(n, I) + 1 wide: they hold only
            # states whose rows each spread exactly this problem's I
            # intervals over this game's actions.
            if initial_states.num_intervals != self.num_intervals:
                raise ValueError(
                    f"initial_states are quantized at I={initial_states.num_intervals}, "
                    f"this problem at I={self.num_intervals}"
                )
            initial_states.validate()
            shape = (initial_states.p_counts.shape[1], initial_states.q_counts.shape[1])
            if shape != (n, m):
                raise ValueError(
                    f"initial_states have {shape[0]}x{shape[1]} actions, "
                    f"the game {n}x{m}"
                )
        self._set_counts(initial_states.p_counts, initial_states.q_counts)
        # Between iterations the candidate buffer equals the counts; the
        # evaluator reads it through per-player views built once.
        self._cand = self._counts.copy()
        self._cand_view = self._player_views(self._cand)
        self._flat_cand = self._cand.reshape(-1)
        self._flat_counts = self._counts.reshape(-1)
        self._moved_cells = np.empty(0, dtype=np.int64)
        return np.array(self.evaluator.evaluate_batch(self._state_view), dtype=float)

    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        # One generator call per block: player choice, donor pick and
        # receiver pick for every chain and step.
        self._plan_block(rng.random((3, num_steps, self._batch_size)))

    def propose(self, step: int) -> np.ndarray:
        moves = self._stage_moves(step)
        # Applying the staged move to the candidate buffer makes it the
        # candidates; commit restores the cells it moved.
        at_source = moves.rows * self._counts.shape[1]
        at_target = at_source + moves.target
        at_source += moves.source
        cand = self._flat_cand
        cand[at_source] -= 1
        cand[at_target] += 1
        self._moved_cells = np.concatenate((at_source, at_target))
        return np.asarray(self.evaluator.evaluate_batch(self._cand_view), dtype=float)

    def commit(self, accept: np.ndarray) -> None:
        self._apply_moves(accept)
        cells = self._moved_cells
        self._flat_cand[cells] = self._flat_counts[cells]


class MultiGameFusedProblem(_CountBuffers, MultiFusedBatchProblem[BatchedStrategyState]):
    """Rank-1 delta evaluation for one or many same-shape games.

    One launch per game: launch ``j``'s chains anneal against
    ``evaluators[j]``'s game through a
    :class:`~repro.core.max_qubo.StackedIncrementalState` whose
    per-iteration math gathers each chain's own payoff matrices,
    ``O(B·(n+m))`` per iteration, periodically resynced.  Every launch
    draws from its own generator in the solo order (initial states,
    then per block proposal uniforms followed by acceptance uniforms),
    so each launch's chains are bit-identical to a one-launch run with
    the same seed; a solo delta launch *is* a one-launch run.

    The proposals and uniforms are those of :class:`FusedTwoPhaseProblem`,
    so at exactly representable payoffs the two problems produce
    identical accept/reject sequences.  Only ideal evaluators have the
    incremental caches; callers gate on :func:`fused_multi_supported`.
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
            # The initial draw of FusedTwoPhaseProblem.begin, from this
            # launch's own generator.
            states = BatchedStrategyState.random(
                size, n, m, self.num_intervals, rng, pure_bias=self.pure_start_bias
            )
            p_parts.append(states.p_counts)
            q_parts.append(states.q_counts)
            sizes.append(size)
        self._set_counts(np.concatenate(p_parts, axis=0), np.concatenate(q_parts, axis=0))
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
        self._plan_block(np.concatenate(blocks, axis=2))
        return np.concatenate(accepts, axis=1)

    # ------------------------------------------------------------------
    # FusedBatchProblem interface (shared stage/commit cycle)
    # ------------------------------------------------------------------
    def propose(self, step: int) -> np.ndarray:
        return self._incremental.candidate_energies(self._stage_moves(step))

    def commit(self, accept: np.ndarray) -> None:
        self._incremental.commit(accept, self._apply_moves(accept))

    def resync(self) -> Optional[np.ndarray]:
        return self._incremental.resync(self._state_view)


def fused_multi_supported(config: CNashConfig, shape: Tuple[int, int]) -> bool:
    """Whether chains of ``shape`` games under ``config`` run delta evaluation.

    True exactly when :func:`run_two_phase_sa_batch` would send the
    solver's evaluator to :func:`run_two_phase_sa_multi`: vectorized
    execution with the exact evaluator (the hardware datapath has no
    incremental caches) on games of at least
    :data:`MIN_INCREMENTAL_CELLS` payoff cells.  Same-shape games that
    pass may then share one launch bit-for-bit.
    """
    n, m = shape
    return (
        config.execution == "vectorized"
        and not config.use_hardware
        and n * m >= MIN_INCREMENTAL_CELLS
    )


def _annealing_config(config: CNashConfig) -> AnnealingConfig:
    """The engine-level configuration of a C-Nash run."""
    return AnnealingConfig(
        num_iterations=config.num_iterations,
        schedule=config.schedule(),
        acceptance=config.acceptance,
        record_history=config.record_history,
    )


def run_two_phase_sa_multi(
    evaluators: Sequence[IdealEvaluator],
    config: CNashConfig,
    launches: Sequence[Tuple[int, SeedLike]],
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run one or several games' chain batches as one delta kernel launch.

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
    annealer = FusedAnnealer(problem, _annealing_config(config))
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
        pure_start_bias=config.pure_start_bias,
    )
    annealer = SimulatedAnnealer(problem, _annealing_config(config))
    result = annealer.run(seed=seed, initial_state=initial_state)
    return TwoPhaseSARun(result=result)


def run_two_phase_sa_batch(
    evaluator: ObjectiveEvaluator,
    config: CNashConfig,
    num_runs: int,
    seed: SeedLike = None,
    callback=None,
) -> BatchAnnealingResult[BatchedStrategyState]:
    """Run ``num_runs`` independent Alg.-1 chains in lockstep.

    The vectorized counterpart of calling :func:`run_two_phase_sa`
    ``num_runs`` times: every iteration proposes one move per chain and
    evaluates all objectives as a single stacked computation on the
    fused kernel (:class:`~repro.annealing.vectorized.FusedAnnealer`).
    The whole batch is reproducible from a single ``seed``.

    The evaluation strategy follows from what the evaluator supports:
    an evaluator with incremental caches
    (:meth:`ObjectiveEvaluator.supports_incremental`) on a game of at
    least :data:`MIN_INCREMENTAL_CELLS` payoff cells runs rank-1 delta
    evaluation as a one-launch :func:`run_two_phase_sa_multi`; every
    other case (the hardware evaluator, custom evaluators, small ideal
    games) runs full evaluation on :class:`FusedTwoPhaseProblem`.
    """
    n, m = evaluator.game.shape
    if evaluator.supports_incremental() and n * m >= MIN_INCREMENTAL_CELLS:
        return run_two_phase_sa_multi([evaluator], config, [(num_runs, seed)], callback)
    problem = FusedTwoPhaseProblem(
        evaluator=evaluator,
        num_intervals=config.num_intervals,
        pure_start_bias=config.pure_start_bias,
    )
    annealer = FusedAnnealer(problem, _annealing_config(config))
    return annealer.run(num_runs, seed=seed, callback=callback)

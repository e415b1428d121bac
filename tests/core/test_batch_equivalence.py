"""Vectorized-vs-sequential equivalence of the C-Nash execution engine.

The chain-parallel engine must be a pure execution-strategy change: the
batched evaluators have to agree with the scalar ones on stacked states
(bit-identically for the ideal path and the noise-free hardware path),
and the two ``solve_batch`` executions must produce statistically
matching success rates on the paper's games.
"""

import numpy as np
import pytest

from repro.annealing import AnnealingConfig, FusedAnnealer
from repro.core import (
    BatchedStrategyState,
    CNashConfig,
    CNashSolver,
    FusedTwoPhaseProblem,
    HardwareEvaluator,
    IdealEvaluator,
    QuantizedStrategyPair,
    max_qubo_objective,
    sample_transfer_moves,
)
from repro.games import battle_of_the_sexes, bird_game, matching_pennies
from repro.games.generators import random_game
from repro.hardware import IDEAL_VARIABILITY, BiCrossbar


def random_batch(game, num_intervals, batch_size, seed):
    rng = np.random.default_rng(seed)
    n, m = game.shape
    return BatchedStrategyState.random(batch_size, n, m, num_intervals, rng).validate()


class TestBatchedStrategyState:
    def test_random_batch_stays_on_simplex_grid(self, bos):
        states = random_batch(bos, 8, 64, seed=0)
        assert states.p_counts.shape == (64, 2)
        np.testing.assert_array_equal(states.p_counts.sum(axis=1), 8)
        np.testing.assert_array_equal(states.q_counts.sum(axis=1), 8)

    def test_transfer_moves_preserve_simplex(self, bird):
        """Sampled moves applied for 50 steps keep every row on the simplex."""
        states = random_batch(bird, 6, 128, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(50):
            moves = sample_transfer_moves(states.p_counts, states.q_counts, *rng.random((3, 128)))
            moves.apply(states.p_counts, states.q_counts)
        states.validate()
        assert np.all(states.p_counts >= 0)
        assert np.all(states.q_counts >= 0)

    def test_transfer_moves_change_exactly_one_player_per_chain(self, bos):
        """Each move is a +-1 transfer between two actions of one player."""
        states = random_batch(bos, 8, 100, seed=3)
        moved = BatchedStrategyState(states.p_counts.copy(), states.q_counts.copy(), 8)
        uniforms = np.random.default_rng(4).random((3, 100))
        moves = sample_transfer_moves(moved.p_counts, moved.q_counts, *uniforms)
        # One entry per chain, at row player·B + chain of the stacked counts.
        np.testing.assert_array_equal(moves.rows, np.arange(100) + 100 * (uniforms[0] >= 0.5))
        moves.apply(moved.p_counts, moved.q_counts)
        p_change = np.abs(moved.p_counts - states.p_counts).sum(axis=1)
        q_change = np.abs(moved.q_counts - states.q_counts).sum(axis=1)
        assert np.all((p_change == 0) ^ (q_change == 0))
        assert np.all(p_change + q_change == 2)
        np.testing.assert_array_equal(p_change > 0, uniforms[0] < 0.5)

    def test_from_pairs_and_state_round_trip(self):
        pairs = [
            QuantizedStrategyPair(np.array([3, 1]), np.array([0, 4]), 4),
            QuantizedStrategyPair(np.array([2, 2]), np.array([1, 3]), 4),
        ]
        states = BatchedStrategyState.from_pairs(pairs)
        for index, pair in enumerate(pairs):
            np.testing.assert_array_equal(states.state(index).p_counts, pair.p_counts)
            np.testing.assert_array_equal(states.state(index).q_counts, pair.q_counts)

    def test_broadcast(self):
        pair = QuantizedStrategyPair(np.array([2, 2]), np.array([1, 3]), 4)
        states = BatchedStrategyState.broadcast(pair, 5)
        assert states.batch_size == 5
        states.validate()


class TestBatchedEvaluators:
    @pytest.mark.parametrize(
        "game", [battle_of_the_sexes(), bird_game(), matching_pennies()], ids=lambda g: g.name
    )
    def test_ideal_batch_bit_identical_to_scalar_objective(self, game):
        """The batched exact path must agree with ``max_qubo_objective`` exactly."""
        evaluator = IdealEvaluator(game)
        states = random_batch(game, 8, 256, seed=10)
        batched = evaluator.evaluate_batch(states)
        scalar = np.array(
            [
                max_qubo_objective(game, states.state(i).p, states.state(i).q)
                for i in range(states.batch_size)
            ]
        )
        np.testing.assert_array_equal(batched, scalar)

    def test_default_evaluate_batch_falls_back_to_scalar(self, bos):
        """A custom evaluator without an override still works batched."""
        from repro.core.max_qubo import ObjectiveEvaluator

        class OffsetEvaluator(ObjectiveEvaluator):
            def __init__(self, game):
                self._game = game
                self._ideal = IdealEvaluator(game)

            @property
            def game(self):
                return self._game

            def evaluate(self, state):
                return self._ideal.evaluate(state) + 1.0

        states = random_batch(bos, 4, 16, seed=11)
        values = OffsetEvaluator(bos).evaluate_batch(states)
        reference = IdealEvaluator(bos).evaluate_batch(states)
        np.testing.assert_allclose(values, reference + 1.0)

    def test_hardware_batch_matches_scalar_with_ideal_variability(self, bos):
        """Noise-free hardware: batched datapath must equal per-state reads."""
        bicrossbar = BiCrossbar(bos, num_intervals=4, variability=IDEAL_VARIABILITY, seed=0)
        evaluator = HardwareEvaluator(bos, bicrossbar)
        states = random_batch(bos, 4, 64, seed=12)
        batched = evaluator.evaluate_batch(states)
        scalar = np.array(
            [evaluator.evaluate(states.state(i)) for i in range(states.batch_size)]
        )
        np.testing.assert_array_equal(batched, scalar)

    def test_hardware_batch_breakdown_components(self, bos):
        bicrossbar = BiCrossbar(bos, num_intervals=4, variability=IDEAL_VARIABILITY, seed=0)
        states = random_batch(bos, 4, 8, seed=13)
        breakdown = bicrossbar.evaluate_batch(states.p_counts, states.q_counts)
        assert breakdown.batch_size == 8
        single = breakdown.breakdown(3)
        assert single.objective == pytest.approx(float(breakdown.objective[3]))

    def test_hardware_batch_interval_mismatch_raises(self, bos):
        bicrossbar = BiCrossbar(bos, num_intervals=4, variability=IDEAL_VARIABILITY, seed=0)
        evaluator = HardwareEvaluator(bos, bicrossbar)
        states = random_batch(bos, 8, 4, seed=14)
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(states)


class TestExecutionEquivalence:
    @pytest.mark.parametrize("game", [battle_of_the_sexes(), bird_game()], ids=lambda g: g.name)
    def test_success_rates_statistically_match(self, game):
        """Same protocol, both executions: success rates within 5 points."""
        rates = {}
        for execution in ("vectorized", "sequential"):
            config = CNashConfig(
                num_intervals=6, num_iterations=600, execution=execution
            )
            batch = CNashSolver(game, config).solve_batch(num_runs=120, seed=0)
            rates[execution] = batch.success_rate
        assert rates["vectorized"] == pytest.approx(rates["sequential"], abs=0.05)

    def test_vectorized_batch_reproducible_from_seed(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=300)
        solver = CNashSolver(bos, config)
        a = solver.solve_batch(num_runs=10, seed=3)
        b = solver.solve_batch(num_runs=10, seed=3)
        assert [run.best_objective for run in a.runs] == [
            run.best_objective for run in b.runs
        ]

    def test_vectorized_history_recorded_per_run(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=50, record_history=True)
        batch = CNashSolver(bos, config).solve_batch(num_runs=4, seed=0)
        for run in batch.runs:
            assert len(run.objective_history) == 50

    def test_vectorized_hardware_batch_succeeds(self, bos):
        config = CNashConfig(num_intervals=4, num_iterations=600, use_hardware=True)
        solver = CNashSolver(bos, config, variability=IDEAL_VARIABILITY, seed=5)
        batch = solver.solve_batch(num_runs=10, seed=0)
        assert batch.success_rate >= 0.8

    def test_progress_callback_called(self, bos, fast_config):
        calls = []
        solver = CNashSolver(bos, fast_config)
        solver.solve_batch(num_runs=5, seed=0, progress=lambda done, total: calls.append((done, total)))
        # Progress advances monotonically *during* annealing and ends complete.
        assert len(calls) > 1
        assert calls == sorted(calls)
        assert calls[-1] == (5, 5)

    def test_initial_states_respected_by_batch_runner(self, bos):
        """Seeding every chain at the equilibrium keeps the best there."""
        start = QuantizedStrategyPair(np.array([4, 0]), np.array([4, 0]), 4)
        states = BatchedStrategyState.broadcast(start, 6)
        annealer = FusedAnnealer(
            FusedTwoPhaseProblem(IdealEvaluator(bos), 4), AnnealingConfig(num_iterations=5)
        )
        result = annealer.run(6, seed=0, initial_states=states)
        np.testing.assert_allclose(result.best_energies, 0.0, atol=1e-12)
        np.testing.assert_array_equal(result.best_states.p_counts, states.p_counts)

    @pytest.mark.parametrize(
        "p_counts,q_counts,num_intervals,match",
        [
            # Quantized at a larger I: would overflow the min(n, I) + 1 lists.
            ([[5, 3]], [[8, 0]], 8, "I=8"),
            # Right I, but the rows do not sum to it.
            ([[4, 1]], [[4, 0]], 4, "sum to 4"),
            ([[5, -1]], [[4, 0]], 4, "non-negative"),
            # Right I and simplex, wrong number of row actions.
            ([[2, 1, 1]], [[4, 0]], 4, "3x2 actions"),
        ],
    )
    def test_mismatched_initial_states_are_rejected(
        self, bos, p_counts, q_counts, num_intervals, match
    ):
        states = BatchedStrategyState(
            np.array(p_counts), np.array(q_counts), num_intervals
        )
        annealer = FusedAnnealer(
            FusedTwoPhaseProblem(IdealEvaluator(bos), 4), AnnealingConfig(num_iterations=5)
        )
        with pytest.raises(ValueError, match=match):
            annealer.run(1, seed=0, initial_states=states)

    def test_execution_validation(self):
        with pytest.raises(ValueError):
            CNashConfig(execution="parallel-universe")

    def test_execution_typo_fails_at_construction(self):
        # A typo must fail in __post_init__, not deep inside solve_batch;
        # the message names the valid modes.
        with pytest.raises(ValueError, match="execution must be one of"):
            CNashConfig(execution="vectorised")

    def test_random_game_statistical_equivalence(self):
        game = random_game(3, 3, seed=21)
        rates = {}
        for execution in ("vectorized", "sequential"):
            config = CNashConfig(num_intervals=4, num_iterations=400, execution=execution)
            batch = CNashSolver(game, config).solve_batch(num_runs=60, seed=1)
            rates[execution] = batch.success_rate
        assert rates["vectorized"] == pytest.approx(rates["sequential"], abs=0.1)

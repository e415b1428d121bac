"""Delta-vs-full equivalence of the incremental annealing kernel.

The incremental (rank-1) evaluation path must be a pure cost
optimisation: on the fused kernel both evaluation modes consume
identical randomness, so with exactly representable payoffs (integer
payoffs, power-of-two ``I``) delta and full evaluation must produce
*identical* accept/reject sequences, energies and equilibria.  With
arbitrary float payoffs the delta path may drift by rounding, which the
periodic resync bounds — guarded here over long runs.
"""

import numpy as np
import pytest

from repro.annealing import AnnealingConfig, FusedAnnealer
from repro.core import (
    BatchedStrategyState,
    CNashConfig,
    CNashSolver,
    FusedTwoPhaseProblem,
    IdealEvaluator,
    ObjectiveEvaluator,
    max_qubo_objective,
    run_two_phase_sa_batch,
    sample_transfer_moves,
)
from repro.core.strategy import _batched_transfer
from repro.games.generators import random_game
from repro.hardware import IDEAL_VARIABILITY


def integer_game(n, m, seed):
    return random_game(n, m, integer_payoffs=True, seed=seed)


def run_fused(game, num_intervals, evaluation, batch_size, num_iterations, seed, **kwargs):
    problem = FusedTwoPhaseProblem(
        IdealEvaluator(game),
        num_intervals,
        evaluation=evaluation,
        min_incremental_cells=0,
    )
    annealer = FusedAnnealer(
        problem, AnnealingConfig(num_iterations=num_iterations), **kwargs
    )
    return annealer.run(batch_size, seed=seed)


class TestDeltaFullBitIdentity:
    @pytest.mark.parametrize(
        "n,m,num_intervals,batch_size",
        [(2, 2, 4, 16), (3, 5, 8, 32), (8, 8, 16, 24), (16, 12, 32, 8)],
    )
    def test_identical_accept_reject_and_energies(self, n, m, num_intervals, batch_size):
        """Identical runs at several (n, m, I, B) shapes, incremental forced."""
        game = integer_game(n, m, seed=n * 100 + m)
        delta = run_fused(game, num_intervals, "delta", batch_size, 1500, seed=11)
        full = run_fused(game, num_intervals, "full", batch_size, 1500, seed=11)
        np.testing.assert_array_equal(delta.num_accepted, full.num_accepted)
        np.testing.assert_array_equal(delta.iterations_to_best, full.iterations_to_best)
        np.testing.assert_array_equal(delta.best_energies, full.best_energies)
        np.testing.assert_array_equal(delta.final_energies, full.final_energies)
        np.testing.assert_array_equal(
            delta.final_states.p_counts, full.final_states.p_counts
        )
        np.testing.assert_array_equal(
            delta.final_states.q_counts, full.final_states.q_counts
        )
        np.testing.assert_array_equal(
            delta.best_states.p_counts, full.best_states.p_counts
        )
        np.testing.assert_array_equal(
            delta.best_states.q_counts, full.best_states.q_counts
        )

    def test_identity_survives_every_iteration_resync(self):
        """Resyncing after every iteration must not change a dyadic run."""
        game = integer_game(6, 6, seed=9)
        base = run_fused(game, 8, "delta", 16, 400, seed=3)
        resynced = run_fused(game, 8, "delta", 16, 400, seed=3, resync_interval=1)
        np.testing.assert_array_equal(base.best_energies, resynced.best_energies)
        np.testing.assert_array_equal(base.num_accepted, resynced.num_accepted)

    def test_solver_equilibria_identical_through_config_knob(self):
        """`CNashConfig.evaluation` flips the kernel without changing results."""
        game = integer_game(8, 8, seed=21)
        outcomes = {}
        for evaluation in ("delta", "full"):
            config = CNashConfig(
                num_intervals=8, num_iterations=800, evaluation=evaluation
            )
            batch = CNashSolver(game, config).solve_batch(num_runs=40, seed=5)
            outcomes[evaluation] = batch
        a, b = outcomes["delta"], outcomes["full"]
        assert [run.best_objective for run in a.runs] == [
            run.best_objective for run in b.runs
        ]
        for run_a, run_b in zip(a.runs, b.runs):
            np.testing.assert_array_equal(
                run_a.best_state.p_counts, run_b.best_state.p_counts
            )
            np.testing.assert_array_equal(
                run_a.best_state.q_counts, run_b.best_state.q_counts
            )


class TestDriftGuard:
    def test_long_run_drift_bounded_by_resync(self):
        """Float payoffs, non-dyadic I: cached energies stay honest."""
        game = random_game(7, 9, seed=33)  # non-integer payoffs
        evaluator = IdealEvaluator(game)
        problem = FusedTwoPhaseProblem(
            evaluator, 6, evaluation="delta", min_incremental_cells=0
        )
        annealer = FusedAnnealer(
            problem, AnnealingConfig(num_iterations=6000), resync_interval=512
        )
        result = annealer.run(48, seed=17)
        recomputed = evaluator.evaluate_batch(result.final_states)
        np.testing.assert_allclose(result.final_energies, recomputed, atol=1e-9)

    def test_incremental_cache_resync_restores_exact_energies(self):
        """After arbitrary committed moves, resync equals full evaluation."""
        game = random_game(5, 4, seed=7)
        evaluator = IdealEvaluator(game)
        rng = np.random.default_rng(0)
        states = BatchedStrategyState.random(16, 5, 4, 6, rng)
        incremental = evaluator.incremental_state(states)
        for _ in range(300):
            uniforms = rng.random((3, 16))
            moves = sample_transfer_moves(
                states.p_counts, states.q_counts, uniforms[0], uniforms[1], uniforms[2]
            )
            incremental.candidate_energies(moves)
            accept = rng.random(16) < 0.5
            moves.apply(states.p_counts, states.q_counts, accept=accept)
            incremental.commit(accept)
        full = evaluator.evaluate_batch(states)
        np.testing.assert_allclose(incremental.energies(), full, atol=1e-9)
        np.testing.assert_array_equal(incremental.resync(states), full)


def reference_fused_run(game, num_intervals, batch_size, num_iterations, seed, block_size):
    """Straight-line per-chain replay of the fused kernel's RNG stream.

    Consumes randomness in exactly the engine's documented order —
    initial states, then per block the problem's ``(3, steps, B)``
    proposal uniforms followed by the engine's ``(steps, B)`` acceptance
    uniforms — and evaluates objectives with the scalar reference, so any
    change to the block layout or move semantics shows up as divergence.
    """
    rng = np.random.default_rng(seed)
    n, m = game.shape
    states = BatchedStrategyState.random(batch_size, n, m, num_intervals, rng)
    p_counts = states.p_counts.copy()
    q_counts = states.q_counts.copy()
    schedule = AnnealingConfig(num_iterations=num_iterations).schedule
    temperatures = schedule.temperatures(num_iterations)

    def objective(chain):
        return max_qubo_objective(
            game, p_counts[chain] / num_intervals, q_counts[chain] / num_intervals
        )

    energies = np.array([objective(chain) for chain in range(batch_size)])
    best = energies.copy()
    accepted = np.zeros(batch_size, dtype=int)
    for iteration in range(num_iterations):
        step = iteration % block_size
        if step == 0:
            steps = min(block_size, num_iterations - iteration)
            proposal_uniforms = rng.random((3, steps, batch_size))
            accept_uniforms = rng.random((steps, batch_size))
        for chain in range(batch_size):
            u_player, u_donor, u_receiver = proposal_uniforms[:, step, chain]
            counts = p_counts[chain] if u_player < 0.5 else q_counts[chain]
            k = counts.shape[0]
            source = target = None
            if k >= 2:
                positive = np.flatnonzero(counts > 0)
                pick = min(int(u_donor * positive.size), positive.size - 1)
                source = int(positive[pick])
                target = min(int(u_receiver * (k - 1)), k - 2)
                if target >= source:
                    target += 1
                counts[source] -= 1
                counts[target] += 1
            candidate_energy = objective(chain)
            delta = candidate_energy - energies[chain]
            temperature = temperatures[iteration]
            accept = delta <= 0 or (
                temperature > 0
                and accept_uniforms[step, chain] < np.exp(-delta / temperature)
            )
            if accept:
                energies[chain] = candidate_energy
                accepted[chain] += 1
                if candidate_energy < best[chain]:
                    best[chain] = candidate_energy
            elif source is not None:
                counts[source] += 1
                counts[target] -= 1
    return best, accepted, p_counts, q_counts


class TestBlockRngDeterminism:
    @pytest.mark.parametrize(
        "n,m,num_intervals",
        [
            (4, 3, 8),  # I > n and I > m
            (1, 5, 4),  # the row player has a single action
            (5, 1, 4),  # the column player has a single action
            (40, 3, 4),  # I < n: sparse row support
            (2, 3, 16),  # I far above both action counts
        ],
    )
    def test_fused_kernel_matches_scalar_reference(self, n, m, num_intervals):
        """The block-sampled stream replays chain by chain.

        ``I`` stays a power of two so the integer payoffs keep every
        delta update exact and the scalar objectives compare bit for bit.
        """
        game = integer_game(n, m, seed=2)
        best, accepted, p_counts, q_counts = reference_fused_run(
            game, num_intervals, batch_size=6, num_iterations=150, seed=123, block_size=32
        )
        problem = FusedTwoPhaseProblem(
            IdealEvaluator(game), num_intervals, evaluation="delta", min_incremental_cells=0
        )
        annealer = FusedAnnealer(
            problem, AnnealingConfig(num_iterations=150), block_size=32
        )
        result = annealer.run(6, seed=123)
        np.testing.assert_array_equal(result.best_energies, best)
        np.testing.assert_array_equal(result.num_accepted, accepted)
        np.testing.assert_array_equal(result.final_states.p_counts, p_counts)
        np.testing.assert_array_equal(result.final_states.q_counts, q_counts)

    @pytest.mark.parametrize("num_actions,num_intervals", [(2, 3), (9, 4), (40, 4), (6, 30)])
    def test_batched_transfer_moves_the_pick_th_positive_action(self, num_actions, num_intervals):
        """The legacy sampler's donor is the ``pick``-th action holding an interval."""
        rng = np.random.default_rng(num_actions)
        counts = rng.multinomial(num_intervals, np.full(num_actions, 1.0 / num_actions), size=64)
        move_mask = rng.random(64) < 0.7
        seed_state = rng.bit_generator.state
        moved = counts.copy()
        _batched_transfer(moved, move_mask, rng)
        # Replay the sampler's two draws per chain with np.flatnonzero.
        replay = np.random.default_rng()
        replay.bit_generator.state = seed_state
        u_donor = replay.random(64)
        receivers = replay.integers(0, num_actions - 1, size=64)
        expected = counts.copy()
        for chain in np.flatnonzero(move_mask):
            positive = np.flatnonzero(counts[chain] > 0)
            pick = min(int(u_donor[chain] * positive.size), positive.size - 1)
            donor = positive[pick]
            receiver = receivers[chain] + (receivers[chain] >= donor)
            expected[chain, donor] -= 1
            expected[chain, receiver] += 1
        np.testing.assert_array_equal(moved, expected)

    def test_batch_reproducible_from_seed_through_solver(self):
        game = integer_game(6, 6, seed=4)
        config = CNashConfig(num_intervals=8, num_iterations=300)
        solver = CNashSolver(game, config)
        a = solver.solve_batch(num_runs=12, seed=3)
        b = solver.solve_batch(num_runs=12, seed=3)
        assert [run.best_objective for run in a.runs] == [
            run.best_objective for run in b.runs
        ]


class _OffsetEvaluator(ObjectiveEvaluator):
    """A custom evaluator without incremental support."""

    def __init__(self, game):
        self._game = game
        self._ideal = IdealEvaluator(game)

    @property
    def game(self):
        return self._game

    def evaluate(self, state):
        return self._ideal.evaluate(state) + 1.0


class TestFallbackPaths:
    def test_hardware_solves_unaffected_by_evaluation_knob(self, bos):
        """The hardware path keeps full two-phase reads either way."""
        outcomes = {}
        for evaluation in ("delta", "full"):
            config = CNashConfig(
                num_intervals=4,
                num_iterations=300,
                use_hardware=True,
                evaluation=evaluation,
            )
            solver = CNashSolver(bos, config, variability=IDEAL_VARIABILITY, seed=5)
            assert not solver.evaluator.supports_incremental()
            outcomes[evaluation] = solver.solve_batch(num_runs=8, seed=2)
        assert [run.best_objective for run in outcomes["delta"].runs] == [
            run.best_objective for run in outcomes["full"].runs
        ]

    def test_custom_evaluator_falls_back_to_full_evaluation(self, bos):
        evaluator = _OffsetEvaluator(bos)
        assert not evaluator.supports_incremental()
        config = CNashConfig(num_intervals=4, num_iterations=100, evaluation="delta")
        result = run_two_phase_sa_batch(evaluator, config, num_runs=4, seed=0)
        assert result.best_energies.shape == (4,)
        # The offset shifts every objective by exactly +1.
        assert np.all(result.best_energies >= 1.0 - 1e-9)

    def test_move_both_players_falls_back_to_legacy_engine(self, bos):
        config = CNashConfig(
            num_intervals=4, num_iterations=100, move_both_players=True
        )
        result = run_two_phase_sa_batch(
            IdealEvaluator(bos), config, num_runs=4, seed=0
        )
        assert result.best_energies.shape == (4,)

    def test_incremental_state_rejected_without_support(self, bos):
        with pytest.raises(NotImplementedError):
            _OffsetEvaluator(bos).incremental_state(None)
        with pytest.raises(ValueError, match="does not support incremental"):
            FusedTwoPhaseProblem(_OffsetEvaluator(bos), 4, evaluation="delta")


class TestEvaluationConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="evaluation must be one of"):
            CNashConfig(evaluation="incremental")

    def test_round_trip_and_default(self):
        config = CNashConfig(evaluation="full")
        assert CNashConfig.from_dict(config.to_dict()).evaluation == "full"
        # Wire dicts predating the knob fall back to the default.
        legacy = config.to_dict()
        del legacy["evaluation"]
        assert CNashConfig.from_dict(legacy).evaluation == "delta"

    def test_fingerprint_covers_evaluation(self, bos):
        from repro.service.jobs import SolveRequest

        delta = SolveRequest(game=bos, config=CNashConfig(evaluation="delta"))
        full = SolveRequest(game=bos, config=CNashConfig(evaluation="full"))
        assert delta.fingerprint() != full.fingerprint()

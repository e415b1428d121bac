"""Delta-vs-full equivalence of the fused annealing kernel.

Rank-1 delta evaluation (:class:`MultiGameFusedProblem`) must be a pure
cost optimisation over full evaluation (:class:`FusedTwoPhaseProblem`):
both consume identical randomness, so with exactly representable
payoffs (integer payoffs, power-of-two ``I``) they must produce
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
from repro.core.max_qubo import StackedIncrementalState
from repro.core.two_phase_sa import MultiGameFusedProblem, run_two_phase_sa_multi
from repro.games.generators import random_game


def integer_game(n, m, seed):
    return random_game(n, m, integer_payoffs=True, seed=seed)


def run_fused(game, num_intervals, evaluation, batch_size, num_iterations, seed, **kwargs):
    """One fused launch by rank-1 delta or by full evaluation, at any game size."""
    evaluator = IdealEvaluator(game)
    config = AnnealingConfig(num_iterations=num_iterations)
    if evaluation == "delta":
        problem = MultiGameFusedProblem([evaluator], num_intervals)
        return FusedAnnealer(problem, config, **kwargs).run_multi([(batch_size, seed)])
    problem = FusedTwoPhaseProblem(evaluator, num_intervals)
    return FusedAnnealer(problem, config, **kwargs).run(batch_size, seed=seed)


def assert_same_chains(a, b):
    """Every per-chain array of two stacked results is equal."""
    for name in ("best_energies", "final_energies", "num_accepted", "iterations_to_best"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for states in ("best_states", "final_states"):
        for counts in ("p_counts", "q_counts"):
            np.testing.assert_array_equal(
                getattr(getattr(a, states), counts), getattr(getattr(b, states), counts)
            )


class TestDeltaFullBitIdentity:
    @pytest.mark.parametrize(
        "n,m,num_intervals,batch_size",
        [
            (2, 2, 4, 16),
            (3, 5, 8, 32),
            (8, 8, 16, 24),
            (16, 12, 32, 8),
            (40, 3, 8, 16),  # rectangular: per-player gather passes
            (1, 7, 4, 16),  # the row player has a single action
        ],
    )
    def test_identical_accept_reject_and_energies(self, n, m, num_intervals, batch_size):
        """Identical runs at several (n, m, I, B) shapes, incremental forced."""
        game = integer_game(n, m, seed=n * 100 + m)
        delta = run_fused(game, num_intervals, "delta", batch_size, 1500, seed=11)
        full = run_fused(game, num_intervals, "full", batch_size, 1500, seed=11)
        assert_same_chains(delta, full)

    def test_identity_survives_every_iteration_resync(self):
        """Resyncing after every iteration must not change a dyadic run."""
        game = integer_game(6, 6, seed=9)
        base = run_fused(game, 8, "delta", 16, 400, seed=3)
        resynced = run_fused(game, 8, "delta", 16, 400, seed=3, resync_interval=1)
        np.testing.assert_array_equal(base.best_energies, resynced.best_energies)
        np.testing.assert_array_equal(base.num_accepted, resynced.num_accepted)

    def test_solver_equilibria_identical_to_full_evaluation(self):
        """The solver's delta route reproduces full evaluation run for run."""
        game = integer_game(8, 8, seed=21)
        config = CNashConfig(num_intervals=8, num_iterations=800)
        batch = CNashSolver(game, config).solve_batch(num_runs=40, seed=5)
        full = FusedAnnealer(
            FusedTwoPhaseProblem(IdealEvaluator(game), 8),
            AnnealingConfig(num_iterations=800, schedule=config.schedule()),
        ).run(40, seed=5)
        assert [run.best_objective for run in batch.runs] == full.best_energies.tolist()
        for index, run in enumerate(batch.runs):
            np.testing.assert_array_equal(run.best_state.p_counts, full.best_states.p_counts[index])
            np.testing.assert_array_equal(run.best_state.q_counts, full.best_states.q_counts[index])


class TestDriftGuard:
    def test_long_run_drift_bounded_by_resync(self):
        """Float payoffs, non-dyadic I: cached energies stay honest."""
        game = random_game(7, 9, seed=33)  # non-integer payoffs
        evaluator = IdealEvaluator(game)
        annealer = FusedAnnealer(
            MultiGameFusedProblem([evaluator], 6),
            AnnealingConfig(num_iterations=6000),
            resync_interval=512,
        )
        result = annealer.run_multi([(48, 17)])
        recomputed = evaluator.evaluate_batch(result.final_states)
        np.testing.assert_allclose(result.final_energies, recomputed, atol=1e-9)

    def test_incremental_cache_resync_restores_exact_energies(self):
        """After arbitrary committed moves, resync equals full evaluation.

        Runs a square game (one stacked gather pass for both players), a
        rectangular one (a pass per player) and a 1×n game (no row-player
        moves), and checks every committed cache against a fresh build.
        """
        for n, m in ((5, 4), (5, 5), (1, 5)):
            game = random_game(n, m, seed=7)
            evaluator = IdealEvaluator(game)
            rng = np.random.default_rng(0)
            states = BatchedStrategyState.random(16, n, m, 6, rng)
            incremental = StackedIncrementalState.from_evaluators(
                [evaluator], np.zeros(16, dtype=np.int64), states
            )
            for _ in range(300):
                uniforms = rng.random((3, 16))
                moves = sample_transfer_moves(
                    states.p_counts, states.q_counts, uniforms[0], uniforms[1], uniforms[2]
                )
                incremental.candidate_energies(moves)
                accept = rng.random(16) < 0.5
                kept = moves.accepted(accept)
                kept.apply(states.p_counts, states.q_counts)
                incremental.commit(accept, kept)
            fresh = StackedIncrementalState.from_evaluators(
                [evaluator], np.zeros(16, dtype=np.int64), states
            )
            for name in ("row_values", "col_values", "u", "w", "maxima", "bilinear"):
                np.testing.assert_allclose(
                    getattr(incremental, name), getattr(fresh, name), atol=1e-9
                )
            full = evaluator.evaluate_batch(states)
            np.testing.assert_allclose(incremental.energies(), full, atol=1e-9)
            np.testing.assert_array_equal(incremental.resync(states), full)


def reference_fused_run(
    objective, shape, num_intervals, batch_size, temperatures, seed, block_size
):
    """Straight-line per-chain replay of the fused kernel's RNG stream.

    Consumes randomness in exactly the engine's documented order —
    initial states, then per block the problem's ``(3, steps, B)``
    proposal uniforms followed by the engine's ``(steps, B)`` acceptance
    uniforms — and scores each chain with the scalar
    ``objective(p_counts, q_counts)``, so any change to the block layout
    or move semantics shows up as divergence.
    """
    rng = np.random.default_rng(seed)
    n, m = shape
    num_iterations = len(temperatures)
    states = BatchedStrategyState.random(batch_size, n, m, num_intervals, rng)
    p_counts = states.p_counts.copy()
    q_counts = states.q_counts.copy()
    energies = np.array([objective(p_counts[chain], q_counts[chain]) for chain in range(batch_size)])
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
            candidate_energy = objective(p_counts[chain], q_counts[chain])
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
    @pytest.mark.parametrize("route", ["delta", "full", "batch-ideal", "batch-custom"])
    @pytest.mark.parametrize(
        "n,m,num_intervals",
        [
            (4, 3, 8),  # I > n and I > m
            (1, 5, 4),  # the row player has a single action
            (5, 1, 4),  # the column player has a single action
            (40, 3, 4),  # I < n: sparse row support
            (64, 3, 4),  # I far below n: a 5-slot support list over 64 actions
            (2, 3, 16),  # I far above both action counts
            (300, 2, 4),  # a wide row player against a two-action one
            (300, 2, 8),
            (2, 300, 4),  # the transpose: the column player is the wide one
            (2, 300, 8),
            (7, 9, 16),  # rectangular with I above both action counts
        ],
    )
    def test_fused_kernel_matches_scalar_reference(self, n, m, num_intervals, route):
        """The block-sampled stream replays chain by chain on every route.

        ``delta`` is a one-launch :class:`MultiGameFusedProblem` and
        ``full`` a :class:`FusedTwoPhaseProblem`, both at block size 32;
        the ``batch-*`` routes go through :func:`run_two_phase_sa_batch`
        (block size 128) with the ideal evaluator, which picks delta or
        full by size, and with a custom evaluator, which always runs
        full.  ``I`` stays a power of two so the integer payoffs keep
        every update exact and the scalar objectives compare bit for bit.
        """
        game = integer_game(n, m, seed=2)
        config = CNashConfig(num_intervals=num_intervals, num_iterations=150)
        annealing = AnnealingConfig(num_iterations=150, schedule=config.schedule())
        block_size = 32
        if route == "delta":
            problem = MultiGameFusedProblem([IdealEvaluator(game)], num_intervals)
            result = FusedAnnealer(problem, annealing, block_size=32).run_multi([(6, 123)])
        elif route == "full":
            problem = FusedTwoPhaseProblem(IdealEvaluator(game), num_intervals)
            result = FusedAnnealer(problem, annealing, block_size=32).run(6, seed=123)
        else:
            block_size = 128
            evaluator = IdealEvaluator(game) if route == "batch-ideal" else _OffsetEvaluator(game)
            result = run_two_phase_sa_batch(evaluator, config, num_runs=6, seed=123)
        offset = 1.0 if route == "batch-custom" else 0.0

        def objective(p_counts, q_counts):
            p, q = p_counts / num_intervals, q_counts / num_intervals
            return max_qubo_objective(game, p, q) + offset

        best, accepted, p_counts, q_counts = reference_fused_run(
            objective, (n, m), num_intervals, 6, annealing.schedule.temperatures(150),
            seed=123, block_size=block_size,
        )
        np.testing.assert_array_equal(result.best_energies, best)
        np.testing.assert_array_equal(result.num_accepted, accepted)
        np.testing.assert_array_equal(result.final_states.p_counts, p_counts)
        np.testing.assert_array_equal(result.final_states.q_counts, q_counts)

    @pytest.mark.parametrize(
        "n,m,num_intervals",
        [
            (2, 2, 3),
            (9, 9, 4),
            (40, 40, 4),
            (6, 6, 30),
            (300, 300, 4),
            (300, 2, 4),  # rectangular: each player's own action count
            (2, 9, 5),
            (1, 6, 3),  # one-action players keep the identity move
            (7, 1, 8),
        ],
    )
    def test_batched_transfer_moves_the_pick_th_positive_action(self, n, m, num_intervals):
        """The sampler's donor is the ``pick``-th action holding an interval."""
        rng = np.random.default_rng(n if n == m else (n, m))
        p_counts = rng.multinomial(num_intervals, np.full(n, 1.0 / n), size=64)
        q_counts = rng.multinomial(num_intervals, np.full(m, 1.0 / m), size=64)
        u_player, u_donor, u_receiver = rng.random((3, 64))
        moved_p, moved_q = p_counts.copy(), q_counts.copy()
        sample_transfer_moves(p_counts, q_counts, u_player, u_donor, u_receiver).apply(
            moved_p, moved_q
        )
        # Replay each chain's move with np.flatnonzero.
        expected_p, expected_q = p_counts.copy(), q_counts.copy()
        for chain in range(64):
            counts = expected_p[chain] if u_player[chain] < 0.5 else expected_q[chain]
            k = counts.size
            if k < 2:
                continue
            positive = np.flatnonzero(counts > 0)
            pick = min(int(u_donor[chain] * positive.size), positive.size - 1)
            donor = positive[pick]
            receiver = min(int(u_receiver[chain] * (k - 1)), k - 2)
            receiver += receiver >= donor
            counts[donor] -= 1
            counts[receiver] += 1
        np.testing.assert_array_equal(moved_p, expected_p)
        np.testing.assert_array_equal(moved_q, expected_q)

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


class TestRouting:
    @pytest.mark.parametrize("n,m,route", [(5, 7, "full"), (6, 6, "delta"), (9, 4, "delta")])
    def test_batch_runner_routes_on_the_incremental_crossover(self, n, m, route):
        """Ideal games of at least 36 cells take the one-launch delta run."""
        game = random_game(n, m, seed=n * 10 + m)  # float payoffs
        config = CNashConfig(num_intervals=6, num_iterations=1100, record_history=True)
        routed = run_two_phase_sa_batch(IdealEvaluator(game), config, num_runs=8, seed=4)
        if route == "delta":
            expected = run_two_phase_sa_multi([IdealEvaluator(game)], config, [(8, 4)])
            assert routed.num_resyncs == expected.num_resyncs == 1
        else:
            expected = FusedAnnealer(
                FusedTwoPhaseProblem(IdealEvaluator(game), 6),
                AnnealingConfig(
                    num_iterations=1100, schedule=config.schedule(), record_history=True
                ),
            ).run(8, seed=4)
        assert_same_chains(routed, expected)
        np.testing.assert_array_equal(routed.energy_history, expected.energy_history)

    def test_hardware_route_is_fused_full_evaluation(self, bos):
        """Hardware batches are a FusedTwoPhaseProblem launch, read noise included."""
        config = CNashConfig(num_intervals=4, num_iterations=300, use_hardware=True)
        batch = CNashSolver(bos, config, seed=5).solve_batch(num_runs=8, seed=2)
        evaluator = CNashSolver(bos, config, seed=5).evaluator
        assert not evaluator.supports_incremental()
        direct = FusedAnnealer(
            FusedTwoPhaseProblem(evaluator, 4),
            AnnealingConfig(num_iterations=300, schedule=config.schedule()),
        ).run(8, seed=2)
        assert [run.best_objective for run in batch.runs] == direct.best_energies.tolist()
        assert [run.iterations_to_best for run in batch.runs] == direct.iterations_to_best.tolist()
        for index, run in enumerate(batch.runs):
            np.testing.assert_array_equal(run.best_state.p_counts, direct.best_states.p_counts[index])
            np.testing.assert_array_equal(run.best_state.q_counts, direct.best_states.q_counts[index])


class TestFallbackPaths:
    def test_custom_evaluator_falls_back_to_full_evaluation(self, bos):
        evaluator = _OffsetEvaluator(bos)
        assert not evaluator.supports_incremental()
        config = CNashConfig(num_intervals=4, num_iterations=100)
        result = run_two_phase_sa_batch(evaluator, config, num_runs=4, seed=0)
        assert result.best_energies.shape == (4,)
        # The offset shifts every objective by exactly +1.
        assert np.all(result.best_energies >= 1.0 - 1e-9)

    def test_incremental_state_rejected_without_support(self, bos):
        """Delta evaluation refuses an evaluator without incremental caches."""
        with pytest.raises(ValueError, match="does not support incremental"):
            MultiGameFusedProblem([_OffsetEvaluator(bos)], 4)

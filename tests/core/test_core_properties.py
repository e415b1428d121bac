"""Property-based tests for the C-Nash core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    BatchedStrategyState,
    FusedTwoPhaseProblem,
    IdealEvaluator,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    max_qubo_objective,
)
from repro.games import BimatrixGame

payoffs = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def small_games(max_actions: int = 4):
    return st.integers(2, max_actions).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, n), elements=payoffs),
            arrays(np.float64, (n, n), elements=payoffs),
        )
    ).map(lambda ms: BimatrixGame(ms[0], ms[1]))


def probability(size: int):
    return arrays(
        np.float64, (size,), elements=st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
    ).map(lambda values: values / values.sum())


@given(data=st.data(), game=small_games())
@settings(max_examples=40, deadline=None)
def test_max_qubo_objective_is_non_negative(data, game):
    """The MAX-QUBO objective is non-negative for every strategy pair."""
    p = data.draw(probability(game.num_row_actions))
    q = data.draw(probability(game.num_col_actions))
    assert max_qubo_objective(game, p, q) >= -1e-9


@given(data=st.data(), game=small_games())
@settings(max_examples=40, deadline=None)
def test_max_qubo_objective_equals_total_regret(data, game):
    """f(p, q) = max(Mq) + max(N^T p) - p^T(M+N)q equals the total regret."""
    p = data.draw(probability(game.num_row_actions))
    q = data.draw(probability(game.num_col_actions))
    assert np.isclose(max_qubo_objective(game, p, q), game.total_regret(p, q), atol=1e-9)


@given(
    num_actions=st.integers(2, 6),
    num_intervals=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
    num_moves=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None)
def test_random_walk_of_moves_stays_valid(num_actions, num_intervals, seed, num_moves):
    """Any sequence of SA moves keeps both strategies on the simplex grid."""
    rng = np.random.default_rng(seed)
    generator = StrategyMoveGenerator()
    state = generator.random_state(num_actions, num_actions, num_intervals, rng)
    for _ in range(num_moves):
        state = generator.propose(state, rng)
    assert state.p_counts.sum() == num_intervals
    assert state.q_counts.sum() == num_intervals
    assert np.all(state.p_counts >= 0)
    assert np.all(state.q_counts >= 0)


@given(
    counts=st.lists(st.integers(0, 8), min_size=2, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_quantized_pair_probabilities_sum_to_one(counts):
    """A valid counts vector always decodes to a probability distribution."""
    total = sum(counts)
    if total == 0:
        counts = [1] + counts[1:]
        total = sum(counts)
    state = QuantizedStrategyPair(
        np.array(counts), np.array([total] + [0] * (len(counts) - 1)), total
    )
    assert np.isclose(state.p.sum(), 1.0)
    assert np.isclose(state.q.sum(), 1.0)


@given(
    shape=st.one_of(
        st.sampled_from([(1, 4), (4, 1), (1, 1)]),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ),
    num_intervals=st.integers(1, 9),
    num_chains=st.integers(1, 8),
    num_steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fused_candidates_track_a_copy_and_apply_replay(
    shape, num_intervals, num_chains, num_steps, seed
):
    """Full evaluation's candidate buffers equal a copy-and-apply replay.

    The problem moves single candidate cells and restores them on commit;
    the replay copies the counts and applies each staged move whole.
    Between iterations the candidates must equal the counts.
    """
    n, m = shape
    rng = np.random.default_rng(seed)
    game = BimatrixGame(
        rng.integers(0, 5, (n, m)).astype(float), rng.integers(0, 5, (n, m)).astype(float)
    )
    evaluator = IdealEvaluator(game)
    problem = FusedTwoPhaseProblem(evaluator, num_intervals)
    problem.begin(num_chains, rng)
    problem.draw_block(num_steps, rng)
    states = problem.export_states()
    p_counts, q_counts = states.p_counts, states.q_counts
    for step in range(num_steps):
        energies = problem.propose(step)
        moves = problem._moves
        cand_p, cand_q = p_counts.copy(), q_counts.copy()
        moves.apply(cand_p, cand_q)
        candidates = problem._cand_view
        np.testing.assert_array_equal(candidates.p_counts, cand_p)
        np.testing.assert_array_equal(candidates.q_counts, cand_q)
        np.testing.assert_array_equal(
            energies, evaluator.evaluate_batch(BatchedStrategyState(cand_p, cand_q, num_intervals))
        )
        accept = rng.random(num_chains) < 0.5
        problem.commit(accept)
        moves.accepted(accept).apply(p_counts, q_counts)
        counts = problem.current_states()
        np.testing.assert_array_equal(counts.p_counts, p_counts)
        np.testing.assert_array_equal(counts.q_counts, q_counts)
        np.testing.assert_array_equal(candidates.p_counts, counts.p_counts)
        np.testing.assert_array_equal(candidates.q_counts, counts.q_counts)

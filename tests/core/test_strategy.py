"""Tests for the quantised strategy representation and the SA move generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FusedTwoPhaseProblem,
    IdealEvaluator,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    sample_transfer_moves,
)
from repro.games.generators import random_game


class TestQuantizedStrategyPair:
    def test_probabilities(self):
        state = QuantizedStrategyPair(np.array([2, 2]), np.array([1, 3]), 4)
        np.testing.assert_allclose(state.p, [0.5, 0.5])
        np.testing.assert_allclose(state.q, [0.25, 0.75])

    def test_counts_must_sum_to_intervals(self):
        with pytest.raises(ValueError):
            QuantizedStrategyPair(np.array([2, 1]), np.array([2, 2]), 4)

    def test_counts_must_be_non_negative(self):
        with pytest.raises(ValueError):
            QuantizedStrategyPair(np.array([5, -1]), np.array([2, 2]), 4)

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            QuantizedStrategyPair(np.array([0]), np.array([0]), 0)

    def test_is_pure(self):
        pure = QuantizedStrategyPair(np.array([4, 0]), np.array([0, 4]), 4)
        mixed = QuantizedStrategyPair(np.array([2, 2]), np.array([0, 4]), 4)
        assert pure.is_pure()
        assert not mixed.is_pure()

    def test_to_profile(self):
        state = QuantizedStrategyPair(np.array([1, 3]), np.array([2, 2]), 4)
        profile = state.to_profile()
        np.testing.assert_allclose(profile.p, [0.25, 0.75])

    def test_key_is_hashable_and_stable(self):
        a = QuantizedStrategyPair(np.array([1, 3]), np.array([2, 2]), 4)
        b = QuantizedStrategyPair(np.array([1, 3]), np.array([2, 2]), 4)
        assert a.key() == b.key()
        assert hash(a.key()) == hash(b.key())

    def test_from_probabilities(self):
        state = QuantizedStrategyPair.from_probabilities(
            np.array([1 / 3, 2 / 3]), np.array([0.5, 0.5]), 6
        )
        assert state.p_counts.sum() == 6
        np.testing.assert_array_equal(state.p_counts, [2, 4])

    def test_uniform(self):
        state = QuantizedStrategyPair.uniform(2, 4, 8)
        assert state.p_counts.sum() == 8
        assert state.q_counts.sum() == 8
        np.testing.assert_array_equal(state.p_counts, [4, 4])
        np.testing.assert_array_equal(state.q_counts, [2, 2, 2, 2])


class TestStrategyMoveGenerator:
    def test_moves_stay_on_simplex_grid(self, rng):
        generator = StrategyMoveGenerator()
        state = QuantizedStrategyPair(np.array([2, 2]), np.array([4, 0]), 4)
        for _ in range(200):
            state = generator.propose(state, rng)
            assert state.p_counts.sum() == 4
            assert state.q_counts.sum() == 4
            assert np.all(state.p_counts >= 0)
            assert np.all(state.q_counts >= 0)

    def test_single_move_changes_one_player(self, rng):
        generator = StrategyMoveGenerator()
        state = QuantizedStrategyPair(np.array([2, 2]), np.array([2, 2]), 4)
        proposal = generator.propose(state, rng)
        p_changed = not np.array_equal(proposal.p_counts, state.p_counts)
        q_changed = not np.array_equal(proposal.q_counts, state.q_counts)
        assert p_changed != q_changed  # exactly one player moves

    def test_move_transfers_exactly_one_interval(self, rng):
        generator = StrategyMoveGenerator()
        state = QuantizedStrategyPair(np.array([2, 2]), np.array([2, 2]), 4)
        proposal = generator.propose(state, rng)
        total_change = np.abs(proposal.p_counts - state.p_counts).sum() + np.abs(
            proposal.q_counts - state.q_counts
        ).sum()
        assert total_change == 2  # one interval removed, one added

    def test_single_action_player_is_a_fixed_point(self, rng):
        """A one-action player never moves, in the scalar or the batched sampler."""
        generator = StrategyMoveGenerator()
        state = QuantizedStrategyPair(np.array([4]), np.array([2, 2]), 4)
        for _ in range(20):
            np.testing.assert_array_equal(generator.propose(state, rng).p_counts, [4])
        p_counts = np.full((32, 1), 4)
        q_counts = np.tile([2, 2], (32, 1))
        u_player = np.linspace(0.0, 0.99, 32)
        moves = sample_transfer_moves(p_counts, q_counts, u_player, rng.random(32), rng.random(32))
        # Only column-player rows (32 + chain) move; no row-player row does.
        np.testing.assert_array_equal(moves.rows, 32 + np.flatnonzero(u_player >= 0.5))
        moves.apply(p_counts, q_counts)
        np.testing.assert_array_equal(p_counts, 4)

    def test_random_state_valid(self, rng):
        generator = StrategyMoveGenerator()
        for _ in range(50):
            state = generator.random_state(3, 5, 8, rng, pure_bias=0.5)
            assert state.p_counts.sum() == 8
            assert state.q_counts.sum() == 8

    def test_random_state_pure_bias_one_gives_pure_states(self, rng):
        generator = StrategyMoveGenerator()
        for _ in range(20):
            state = generator.random_state(3, 3, 8, rng, pure_bias=1.0)
            assert state.is_pure()

    def test_random_state_invalid_bias(self, rng):
        generator = StrategyMoveGenerator()
        with pytest.raises(ValueError):
            generator.random_state(2, 2, 4, rng, pure_bias=1.5)


def assert_support_matches_scan(support, counts, num_intervals):
    """Every chain's support row is its positive actions, ascending, padded with ``n``."""
    num_actions = counts.shape[1]
    assert support.actions.shape == (counts.shape[0], min(num_actions, num_intervals) + 1)
    for chain, row in enumerate(counts):
        positive = np.flatnonzero(row > 0)
        expected = np.full(support.actions.shape[1], num_actions)
        expected[: positive.size] = positive
        np.testing.assert_array_equal(support.actions[chain], expected)
        assert support.size[chain] == positive.size


class TestActionSupport:
    @given(
        num_rows=st.integers(1, 300),
        num_cols=st.integers(1, 300),
        num_intervals=st.integers(1, 40),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_support_lists_match_a_scan_after_every_commit(
        self, num_rows, num_cols, num_intervals, batch_size, seed
    ):
        """The fused problems' support list tracks their counts through random commits.

        One list covers both players' ``2B`` rows of the stacked
        ``(2B, max(n, m))`` counts.  Covers ``I`` below and above ``n``,
        one-action players, rectangular games whose narrower player is
        padded and, through the pure starts and ``I = 1``, all intervals
        on one action.
        """
        game = random_game(num_rows, num_cols, seed=0)
        problem = FusedTwoPhaseProblem(IdealEvaluator(game), num_intervals)
        rng = np.random.default_rng(seed)
        problem.begin(batch_size, rng)
        problem.draw_block(30, rng)
        support, counts = problem._support, problem._counts
        assert support.counts is counts
        assert counts.shape == (2 * batch_size, max(num_rows, num_cols))
        for step in range(30):
            problem._stage_moves(step)
            problem._apply_moves(rng.random(batch_size) < rng.random())
            np.testing.assert_array_equal(counts.sum(axis=1), num_intervals)
            # The narrower player's extra columns never receive an interval.
            np.testing.assert_array_equal(counts[:batch_size, num_rows:], 0)
            np.testing.assert_array_equal(counts[batch_size:, num_cols:], 0)
            assert_support_matches_scan(support, counts, num_intervals)

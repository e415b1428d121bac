"""Metamorphic relations of the solver that need no reference implementation.

The MAX-QUBO objective ``f = max(Mq) + max(N^T p) - p^T (M + N) q``
scales with the payoffs and ignores a common shift of them, so two
transformations of a game predict the solver's output on the transformed
game from its output on the original:

* *power-of-two scaling* — multiplying both payoff matrices and both
  temperatures by ``2^k`` scales every objective, difference and
  temperature exactly, so each run visits the same states, accepts the
  same moves and keeps its classification, and its best objective scales
  by exactly ``2^k``;
* *integer shift* — adding an integer ``c`` to every payoff of an
  integer game adds ``c`` to both maxima and ``2c`` to the bilinear term
  (each strategy sums to one), so at a power-of-two ``I``, where every
  step is exact dyadic arithmetic, every objective is the same float.
  Classification is not compared here: ``effective_epsilon`` follows the
  payoff scale, which a shift changes.

Both relations hold on the ideal evaluator only; the hardware model maps
payoffs to cell levels and an ADC range.  The properties run
``solve_batch`` on both evaluation routes (full evaluation under 36
payoff cells, rank-1 delta evaluation from 36 up) and
``solve_shards_fused``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CNashConfig, CNashSolver
from repro.core.solver import solve_shards_fused
from repro.core.two_phase_sa import MIN_INCREMENTAL_CELLS
from repro.games import BimatrixGame
from repro.games.generators import random_game

#: Shapes under and over the 36-cell crossover, 1×n and n×1 included.
FULL_SHAPES = [(2, 2), (3, 3), (1, 5), (5, 1), (4, 7), (5, 7)]
DELTA_SHAPES = [(6, 6), (7, 9), (1, 40), (40, 1), (40, 3), (9, 5)]
SCALES = [-40, -10, 10, 40]
NUM_RUNS = 6
NUM_ITERATIONS = 200  # two 128-step proposal blocks


def make_game(shape, kind, seed):
    """A game of ``shape`` with float, tied-integer or all-equal payoffs."""
    rng = np.random.default_rng(seed)
    if kind == "float":
        payoffs = rng.uniform(-5.0, 5.0, (2, *shape))
    elif kind == "ties":
        payoffs = rng.integers(-3, 4, (2, *shape)).astype(float)
    else:
        payoffs = np.full((2, *shape), float(rng.integers(-5, 6)))
    return BimatrixGame(payoffs[0], payoffs[1])


def transformed(game, scale=1.0, shift=0.0):
    return BimatrixGame(game.payoff_row * scale + shift, game.payoff_col * scale + shift)


def scaled_config(config, scale):
    return CNashConfig(
        num_intervals=config.num_intervals,
        num_iterations=config.num_iterations,
        initial_temperature=config.initial_temperature * scale,
        final_temperature=config.final_temperature * scale,
    )


def assert_runs_related(base, moved, scale=1.0, classification=True):
    """Run by run: same states, timing and acceptance; objective times ``scale``."""
    assert len(base.runs) == len(moved.runs)
    for a, b in zip(base.runs, moved.runs):
        np.testing.assert_array_equal(a.best_state.p_counts, b.best_state.p_counts)
        np.testing.assert_array_equal(a.best_state.q_counts, b.best_state.q_counts)
        assert a.iterations_to_best == b.iterations_to_best
        assert a.acceptance_rate == b.acceptance_rate
        assert b.best_objective == a.best_objective * scale
        if classification:
            assert a.classification == b.classification


games = st.builds(
    make_game,
    shape=st.sampled_from(FULL_SHAPES + DELTA_SHAPES),
    kind=st.sampled_from(["float", "ties", "equal"]),
    seed=st.integers(0, 2**32 - 1),
)
integer_games = st.builds(
    make_game,
    shape=st.sampled_from(FULL_SHAPES + DELTA_SHAPES),
    kind=st.sampled_from(["ties", "equal"]),
    seed=st.integers(0, 2**32 - 1),
)


@given(
    game=games,
    power=st.sampled_from(SCALES),
    num_intervals=st.sampled_from([3, 4, 6, 8]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_power_of_two_scaling_scales_every_run(game, power, num_intervals, seed):
    """``solve_batch`` on ``2^k·(M, N)`` at ``2^k·T`` is the original run, scaled."""
    scale = 2.0**power
    config = CNashConfig(num_intervals=num_intervals, num_iterations=NUM_ITERATIONS)
    base = CNashSolver(game, config).solve_batch(num_runs=NUM_RUNS, seed=seed)
    moved = CNashSolver(transformed(game, scale=scale), scaled_config(config, scale)).solve_batch(
        num_runs=NUM_RUNS, seed=seed
    )
    assert_runs_related(base, moved, scale=scale)


@given(
    game=integer_games,
    shift=st.integers(-64, 1000),
    num_intervals=st.sampled_from([2, 4, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_integer_shift_leaves_every_run_unchanged(game, shift, num_intervals, seed):
    """``solve_batch`` on ``(M + c, N + c)`` repeats the original run, objective included."""
    config = CNashConfig(num_intervals=num_intervals, num_iterations=NUM_ITERATIONS)
    base = CNashSolver(game, config).solve_batch(num_runs=NUM_RUNS, seed=seed)
    moved = CNashSolver(transformed(game, shift=float(shift)), config).solve_batch(
        num_runs=NUM_RUNS, seed=seed
    )
    assert_runs_related(base, moved, classification=False)


@given(
    shape=st.sampled_from(DELTA_SHAPES),
    kinds=st.lists(st.sampled_from(["ties", "equal"]), min_size=1, max_size=3),
    power=st.sampled_from(SCALES),
    shift=st.integers(-64, 1000),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_fused_shards_follow_both_relations(shape, kinds, power, shift, seed):
    """Each shard of a ``solve_shards_fused`` launch scales and ignores a shift."""
    scale = 2.0**power
    config = CNashConfig(num_intervals=8, num_iterations=NUM_ITERATIONS)
    originals = [make_game(shape, kind, seed + index) for index, kind in enumerate(kinds)]

    def launch(games, launch_config):
        shards = [(game, 3 + index, seed + index) for index, game in enumerate(games)]
        return solve_shards_fused(shards, launch_config)

    base = launch(originals, config)
    scaled = launch([transformed(game, scale=scale) for game in originals],
                    scaled_config(config, scale))
    shifted = launch([transformed(game, shift=float(shift)) for game in originals], config)
    for original, bigger, moved in zip(base, scaled, shifted):
        assert_runs_related(original, bigger, scale=scale)
        assert_runs_related(original, moved, classification=False)


@pytest.mark.parametrize("power,shift", [(-40, 1000), (40, -37)])
def test_relations_hold_on_a_64x64_game_across_a_resync(power, shift):
    """A delta launch long enough to rebuild its caches keeps both relations."""
    game = random_game(64, 64, integer_payoffs=True, seed=5)
    assert game.shape[0] * game.shape[1] >= MIN_INCREMENTAL_CELLS
    config = CNashConfig(num_intervals=8, num_iterations=1100)
    scale = 2.0**power
    base = CNashSolver(game, config).solve_batch(num_runs=4, seed=9)
    scaled = CNashSolver(transformed(game, scale=scale), scaled_config(config, scale))
    assert_runs_related(base, scaled.solve_batch(num_runs=4, seed=9), scale=scale)
    shifted = CNashSolver(transformed(game, shift=float(shift)), config)
    assert_runs_related(base, shifted.solve_batch(num_runs=4, seed=9), classification=False)

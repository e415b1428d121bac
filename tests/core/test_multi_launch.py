"""Multi-game fused launches against the solo launches they fuse.

A multi-game launch (``run_two_phase_sa_multi`` / ``solve_shards_fused``)
is a pure throughput optimisation: every launch keeps its own RNG stream
and per-chain arithmetic, so each launch's slice of the stacked result
must equal the solo run of that launch — a one-launch run — exactly,
array for array, on float (non-dyadic) payoffs and across
incremental-cache resyncs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import AnnealingConfig, FusedAnnealer
from repro.core import CNashConfig, CNashSolver, IdealEvaluator
from repro.core.solver import solve_shards_fused
from repro.core.two_phase_sa import (
    MultiGameFusedProblem,
    run_two_phase_sa_batch,
    run_two_phase_sa_multi,
)
from repro.games.generators import random_game


@st.composite
def multi_launches(draw):
    """A delta-eligible shape (n·m >= 36, n != m allowed) and 1-4 launches."""
    n = draw(st.integers(2, 12))
    low = math.ceil(36 / n)
    m = draw(st.integers(low, low + 6))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    game_seeds = draw(st.lists(st.integers(0, 10**6), min_size=len(sizes), max_size=len(sizes)))
    run_seeds = draw(st.lists(st.integers(0, 10**6), min_size=len(sizes), max_size=len(sizes)))
    games = [random_game(n, m, seed=seed) for seed in game_seeds]
    launches = list(zip(sizes, run_seeds))
    return games, launches


def assert_launch_slice_equal(multi, solo, start):
    """Every per-chain array of ``multi[start:start + B]`` equals ``solo``'s."""
    stop = start + solo.batch_size
    for name in ("best_energies", "final_energies", "num_accepted", "iterations_to_best"):
        np.testing.assert_array_equal(getattr(multi, name)[start:stop], getattr(solo, name))
    for states in ("best_states", "final_states"):
        for counts in ("p_counts", "q_counts"):
            np.testing.assert_array_equal(
                getattr(getattr(multi, states), counts)[start:stop],
                getattr(getattr(solo, states), counts),
            )
    if solo.energy_history is None:
        assert multi.energy_history is None
    else:
        np.testing.assert_array_equal(multi.energy_history[:, start:stop], solo.energy_history)
    assert multi.num_iterations == solo.num_iterations


@given(
    case=multi_launches(),
    num_intervals=st.sampled_from([3, 5, 6, 8]),
    num_iterations=st.integers(1, 120),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_multi_launch_equals_solo_launches(case, num_intervals, num_iterations):
    """``run_two_phase_sa_multi`` slices equal each launch's solo batch run."""
    games, launches = case
    config = CNashConfig(
        num_intervals=num_intervals, num_iterations=num_iterations, record_history=True
    )
    evaluators = [IdealEvaluator(game) for game in games]
    multi = run_two_phase_sa_multi(evaluators, config, launches)
    start = 0
    for evaluator, (size, seed) in zip(evaluators, launches):
        solo = run_two_phase_sa_batch(evaluator, config, size, seed=seed)
        assert_launch_slice_equal(multi, solo, start)
        start += size
    assert start == multi.batch_size


@given(
    case=multi_launches(),
    num_intervals=st.sampled_from([3, 5, 7]),
    resync_interval=st.integers(1, 40),
    block_size=st.integers(1, 50),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_multi_launch_equals_solo_across_resyncs(case, num_intervals, resync_interval, block_size):
    """The stacked cache rebuilds per game block exactly as a solo launch does."""
    games, launches = case
    num_iterations = 3 * resync_interval + 5
    config = AnnealingConfig(num_iterations=num_iterations)
    multi_problem = MultiGameFusedProblem([IdealEvaluator(game) for game in games], num_intervals)
    multi = FusedAnnealer(
        multi_problem, config, block_size=block_size, resync_interval=resync_interval
    ).run_multi(launches)
    assert multi.num_resyncs == (num_iterations - 1) // resync_interval
    start = 0
    for game, (size, seed) in zip(games, launches):
        solo_problem = MultiGameFusedProblem([IdealEvaluator(game)], num_intervals)
        solo = FusedAnnealer(
            solo_problem, config, block_size=block_size, resync_interval=resync_interval
        ).run_multi([(size, seed)])
        assert_launch_slice_equal(multi, solo, start)
        start += size


def without_wall_clock(batch_dict):
    return {key: value for key, value in batch_dict.items() if key != "wall_clock_seconds"}


@given(case=multi_launches(), num_iterations=st.integers(1, 80))
@settings(max_examples=15, deadline=None, derandomize=True)
def test_solve_shards_fused_equals_solver_batches(case, num_iterations):
    """Fused shard batches serialise exactly as per-shard ``solve_batch`` output."""
    games, launches = case
    config = CNashConfig(num_intervals=6, num_iterations=num_iterations)
    fused = solve_shards_fused(
        [(game, size, seed) for game, (size, seed) in zip(games, launches)], config
    )
    assert len(fused) == len(games)
    for batch, game, (size, seed) in zip(fused, games, launches):
        solo = CNashSolver(game, config).solve_batch(num_runs=size, seed=seed)
        assert without_wall_clock(batch.to_dict()) == without_wall_clock(solo.to_dict())


@pytest.mark.parametrize("shape", [(40, 3), (3, 40), (1, 40), (40, 1), (300, 2)])
def test_rectangular_multi_launch_equals_solo_launches(shape):
    """Rectangular games keep a gather pass per player; slices still equal solo runs.

    The resync interval falls inside the run, so the per-player caches are
    rebuilt per game block as well.
    """
    games = [random_game(*shape, seed=seed) for seed in range(3)]
    launches = [(5, 11), (1, 12), (7, 13)]
    annealing = AnnealingConfig(num_iterations=300)
    multi = FusedAnnealer(
        MultiGameFusedProblem([IdealEvaluator(game) for game in games], 6),
        annealing,
        resync_interval=100,
    ).run_multi(launches)
    start = 0
    for game, launch in zip(games, launches):
        solo = FusedAnnealer(
            MultiGameFusedProblem([IdealEvaluator(game)], 6), annealing, resync_interval=100
        ).run_multi([launch])
        assert_launch_slice_equal(multi, solo, start)
        start += launch[0]
    assert multi.num_resyncs == 2

"""Tests for shared-memory payoff transfer (repro.service.shm)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import CNashConfig
from repro.games.generators import get_generator
from repro.games.spec import GameSpec
from repro.service.jobs import SolveRequest
from repro.service.scheduler import SolveScheduler
from repro.service.shm import (
    SHM_MIN_CELLS,
    read_shared_game,
    release_segments,
    share_game,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def dense_game(seed: int = 0, size: int = 64):
    return get_generator("random")(num_row_actions=size, seed=seed)


class TestRoundTrip:
    def test_shared_game_round_trips_exactly(self):
        game = dense_game()
        descriptor, segment = share_game(game)
        try:
            rebuilt = read_shared_game(descriptor)
        finally:
            release_segments([segment])
        assert rebuilt.name == game.name
        np.testing.assert_array_equal(rebuilt.payoff_row, game.payoff_row)
        np.testing.assert_array_equal(rebuilt.payoff_col, game.payoff_col)

    def test_reader_owns_private_copies(self):
        # The parent may unlink the segment the moment the batch future
        # resolves; the rebuilt game must not alias the shared buffer.
        game = dense_game(seed=1)
        descriptor, segment = share_game(game)
        rebuilt = read_shared_game(descriptor)
        release_segments([segment])
        np.testing.assert_array_equal(rebuilt.payoff_row, game.payoff_row)
        assert rebuilt.payoff_row.flags["OWNDATA"] or rebuilt.payoff_row.base is None

    def test_descriptor_is_json_small(self):
        import json

        game = dense_game(seed=2)
        descriptor, segment = share_game(game)
        release_segments([segment])
        assert len(json.dumps(descriptor)) < 256
        assert descriptor["shape"] == [64, 64]

    def test_release_is_idempotent(self):
        _, segment = share_game(dense_game(seed=3))
        release_segments([segment])
        release_segments([segment])  # second release must not raise


class TestSchedulerIntegration:
    def test_process_batch_ships_dense_games_via_shm(self, counts):
        # Dense 64x64 games on the process executor: the coalesced batch
        # must ship payoffs through shared memory (counter observable)
        # and still produce bit-identical results to per-job dispatch.
        config = CNashConfig(num_intervals=4, num_iterations=250)
        games = [dense_game(seed=seed) for seed in range(4)]
        assert games[0].payoff_row.size >= SHM_MIN_CELLS
        requests = [
            SolveRequest(game=game, policy="cnash", num_runs=2, seed=seed, config=config)
            for seed, game in enumerate(games)
        ]

        async def solve_with(executor, max_batch_jobs):
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor=executor,
                max_batch_jobs=max_batch_jobs,
                max_batch_linger_ms=200.0,
            ) as sched:
                records = [await sched.submit(request) for request in requests]
                return [await sched.wait(record.job_id) for record in records]

        batched = asyncio.run(solve_with("process", 16))
        solo = asyncio.run(solve_with("thread", 1))
        assert counts("repro_scheduler_shm_games_shared_total") >= 1
        assert counts("repro_scheduler_batches_dispatched_total") >= 1

        def canon(outcome):
            # Strip measured timings (wall clocks, trace): they describe
            # the execution, not the result under bit-identity test.
            data = outcome.to_dict()
            data.pop("wall_clock_seconds", None)
            data.pop("trace", None)
            if data.get("batch"):
                data["batch"] = {
                    key: value
                    for key, value in data["batch"].items()
                    if key != "wall_clock_seconds"
                }
            return data

        assert [canon(o) for o in batched] == [canon(o) for o in solo]

    def test_spec_requests_never_use_shm(self, counts):
        # Spec wire forms are already ~100 bytes; sharing would only add
        # segment churn.
        config = CNashConfig(num_intervals=4, num_iterations=250)
        requests = [
            SolveRequest(
                game=GameSpec.generator("random", num_row_actions=64, seed=seed),
                policy="cnash",
                num_runs=2,
                seed=seed,
                config=config,
            )
            for seed in range(3)
        ]

        async def body():
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="process",
                max_batch_jobs=16,
                max_batch_linger_ms=200.0,
            ) as sched:
                records = [await sched.submit(request) for request in requests]
                for record in records:
                    await sched.wait(record.job_id)

        asyncio.run(body())
        assert counts("repro_scheduler_batches_dispatched_total") >= 1
        assert counts("repro_scheduler_shm_games_shared_total") == 0

"""Batch-coalescing dispatch: keys, bit-identity, stats, failure isolation.

The PR-6 acceptance surface: compatible queued jobs ride one worker
dispatch (and, when fused-eligible, one multi-game kernel launch) with
results byte-identical to the per-job path, batching counted by the
``repro_scheduler_*`` telemetry families, spec materialisation amortised
per worker, and per-job failure isolation inside a coalesced batch.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import CNashConfig
from repro.games.library import battle_of_the_sexes, stag_hunt
from repro.games.spec import GameSpec
from repro.service.batching import compute_batch_key
from repro.service.jobs import JobStatus, SolveRequest
from repro.service.scheduler import SolveScheduler

FAST = CNashConfig(num_intervals=4, num_iterations=250)


def run(coro):
    return asyncio.run(coro)


def spec_request(seed: int, *, size: int = 8, config: CNashConfig = FAST, **overrides):
    params = dict(
        game=GameSpec.generator("random", num_row_actions=size, seed=seed),
        policy="cnash",
        num_runs=4,
        seed=seed,
        config=config,
    )
    params.update(overrides)
    return SolveRequest(**params)


def canon(outcome) -> dict:
    """Outcome wire dict minus measured timings (the only wart allowed).

    Wall clocks and trace timelines describe the *execution*, not the
    result, so bit-identity is asserted on everything but them.
    """
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


async def solve_all(scheduler: SolveScheduler, requests):
    """Submit everything up front, then wait — the coalescible pattern."""
    records = [await scheduler.submit(request) for request in requests]
    return [await scheduler.wait(record.job_id) for record in records]


class TestBatchKeys:
    def test_portfolio_never_batches(self):
        request = SolveRequest(
            game=battle_of_the_sexes(), policy="portfolio", num_runs=4, seed=0, config=FAST
        )
        assert compute_batch_key(request, shard_size=8) is None

    def test_multi_shard_cnash_never_batches(self):
        request = spec_request(0, num_runs=32)
        assert compute_batch_key(request, shard_size=8) is None

    def test_same_config_shares_a_key(self):
        key_a = compute_batch_key(spec_request(0), shard_size=8)
        key_b = compute_batch_key(spec_request(1, size=16), shard_size=8)
        assert key_a is not None
        assert key_a == key_b  # the game does not enter the key, the config does

    def test_different_config_splits_the_key(self):
        other = CNashConfig(num_intervals=6, num_iterations=250)
        assert compute_batch_key(spec_request(0), 8) != compute_batch_key(
            spec_request(0, config=other), 8
        )

    def test_epsilon_splits_the_key(self):
        assert compute_batch_key(spec_request(0), 8) != compute_batch_key(
            spec_request(0, epsilon=0.05), 8
        )

    def test_generic_policies_batch_per_policy(self):
        request = SolveRequest(
            game=battle_of_the_sexes(), policy="exact", num_runs=4, seed=0, config=FAST
        )
        assert compute_batch_key(request, shard_size=8) == "generic:exact"


class TestBatchedDispatch:
    def test_batched_results_bit_identical_to_per_job(self, counts):
        requests = [spec_request(seed) for seed in range(10)]

        async def solve_with(max_batch_jobs, linger):
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="thread",
                max_batch_jobs=max_batch_jobs,
                max_batch_linger_ms=linger,
            ) as sched:
                return await solve_all(sched, requests)

        batched = run(solve_with(16, 100.0))
        batches = counts("repro_scheduler_batches_dispatched_total")
        solo = run(solve_with(1, 0.0))
        assert batches >= 1
        assert counts("repro_scheduler_batches_dispatched_total") == batches  # solo: none
        assert [canon(o) for o in batched] == [canon(o) for o in solo]

    def test_mixed_policy_batch_matches_per_job(self):
        # exact jobs coalesce per policy; cnash jobs fuse; everything
        # must match the per-job dispatch bit for bit.
        requests = [spec_request(seed) for seed in range(4)] + [
            spec_request(seed, policy="exact") for seed in range(4)
        ]

        async def solve_with(max_batch_jobs):
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="thread",
                max_batch_jobs=max_batch_jobs,
                max_batch_linger_ms=100.0,
            ) as sched:
                return await solve_all(sched, requests)

        batched = run(solve_with(16))
        solo = run(solve_with(1))
        assert [canon(o) for o in batched] == [canon(o) for o in solo]

    def test_batching_stats_reported(self, counts):
        async def body():
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="thread",
                max_batch_jobs=16,
                max_batch_linger_ms=100.0,
            ) as sched:
                await solve_all(sched, [spec_request(seed) for seed in range(6)])
                return sched.telemetry()["families"]

        families = run(body())
        batches = counts("repro_scheduler_batches_dispatched_total")
        batched_jobs = counts("repro_scheduler_batched_jobs_total")
        assert batches >= 1
        assert batched_jobs >= 2
        assert batched_jobs / batches >= 2.0
        sizes = families["repro_scheduler_batch_jobs"]["samples"][0]
        assert sizes["count"] == batches and sizes["sum"] == batched_jobs
        # Every batchable leader lingers, including those left alone.
        linger = families["repro_scheduler_batch_linger_seconds"]["samples"][0]
        assert linger["count"] >= batches and linger["sum"] >= 0.0

    def test_single_job_uses_solo_path(self, counts):
        async def body():
            async with SolveScheduler(
                max_workers=2, shard_size=8, executor="thread", max_batch_jobs=16
            ) as sched:
                return await sched.solve(spec_request(3))

        outcome = run(body())
        assert outcome.batch["runs"]
        assert counts("repro_scheduler_batches_dispatched_total") == 0

    def test_worker_executions_count_alike_coalesced_and_alone(self, counts):
        # Every job or shard a worker ran counts once, however it was
        # dispatched: four exact jobs count 4 coalesced and 4 one by one.
        requests = [spec_request(seed, size=3, policy="exact") for seed in range(4)]

        async def solve_with(max_batch_jobs):
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="thread",
                max_batch_jobs=max_batch_jobs,
                max_batch_linger_ms=100.0,
            ) as sched:
                return await solve_all(sched, requests)

        run(solve_with(16))
        coalesced = counts("repro_scheduler_shards_executed_total")
        assert counts("repro_scheduler_batches_dispatched_total") >= 1
        run(solve_with(1))
        alone = counts("repro_scheduler_shards_executed_total") - coalesced
        assert coalesced == alone == len(requests)

    def test_batching_disabled_by_knob(self):
        with pytest.raises(ValueError, match="max_batch_jobs"):
            SolveScheduler(executor="thread", max_batch_jobs=0)
        with pytest.raises(ValueError, match="max_batch_linger_ms"):
            SolveScheduler(executor="thread", max_batch_linger_ms=-1.0)

    def test_repeated_spec_materialises_once_per_worker(self, counts):
        # Eight distinct (different solve seed) jobs over ONE 64x64 spec:
        # the worker-side materialisation cache must build the dense
        # matrices exactly once for the whole batch run.
        spec = GameSpec.generator("random", num_row_actions=64, seed=123456)
        requests = [
            spec_request(seed, game=spec) for seed in range(8)
        ]

        async def body():
            # One worker: concurrent first-builders of the same spec would
            # each count a miss (the build happens outside the cache lock).
            async with SolveScheduler(
                max_workers=1,
                shard_size=8,
                executor="thread",
                max_batch_jobs=16,
                max_batch_linger_ms=100.0,
            ) as sched:
                return await solve_all(sched, requests)

        outcomes = run(body())
        assert len(outcomes) == 8
        assert counts("repro_matcache_misses_total") == 1
        assert counts("repro_matcache_hits_total") >= 7


class TestBatchFailureIsolation:
    def test_failing_job_inside_a_batch_fails_alone(self, counts):
        # A cnash request whose spec cannot materialise shares the batch
        # key with healthy jobs (the key hashes config, not the game),
        # so it rides the same coalesced dispatch — and must fail alone.
        poisoned_spec = GameSpec.library("chicken")
        object.__setattr__(poisoned_spec, "name", "no_such_game")
        poisoned = spec_request(99, game=poisoned_spec)
        healthy = [spec_request(seed) for seed in range(4)]

        async def solve_batched():
            async with SolveScheduler(
                max_workers=2,
                shard_size=8,
                executor="thread",
                max_batch_jobs=16,
                max_batch_linger_ms=100.0,
            ) as sched:
                records = [
                    await sched.submit(request)
                    for request in healthy[:2] + [poisoned] + healthy[2:]
                ]
                outcomes = {}
                for record in records:
                    try:
                        outcomes[record.job_id] = await sched.wait(record.job_id)
                    except RuntimeError:
                        outcomes[record.job_id] = None
                jobs = [sched.job(record.job_id) for record in records]
                return jobs, outcomes

        jobs, outcomes = run(solve_batched())
        assert counts("repro_scheduler_batches_dispatched_total") >= 1
        statuses = [job.status for job in jobs]
        assert statuses == [
            JobStatus.DONE, JobStatus.DONE, JobStatus.FAILED,
            JobStatus.DONE, JobStatus.DONE,
        ]
        assert "no_such_game" in jobs[2].error

        # The healthy members' results are bit-identical to solo runs.
        async def solve_solo():
            async with SolveScheduler(
                max_workers=2, shard_size=8, executor="thread", max_batch_jobs=1
            ) as sched:
                return await solve_all(sched, healthy)

        solo = run(solve_solo())
        batched_healthy = [
            outcomes[job.job_id] for job in (jobs[0], jobs[1], jobs[3], jobs[4])
        ]
        assert [canon(o) for o in batched_healthy] == [canon(o) for o in solo]

    def test_deadline_expiry_mid_batch_marks_only_that_job(self, counts):
        slow = CNashConfig(num_intervals=6, num_iterations=4000)
        doomed = SolveRequest.from_dict(
            {**spec_request(50, size=16, config=slow).to_dict(), "deadline_s": 0.05}
        )
        healthy = [spec_request(seed, size=16, config=slow) for seed in range(3)]

        async def body():
            async with SolveScheduler(
                max_workers=1,
                shard_size=8,
                executor="thread",
                max_batch_jobs=16,
                max_batch_linger_ms=100.0,
            ) as sched:
                records = [
                    await sched.submit(request) for request in healthy + [doomed]
                ]
                with pytest.raises(RuntimeError, match="expired"):
                    await sched.wait(records[-1].job_id)
                for record in records[:-1]:
                    await sched.wait(record.job_id)
                return [sched.job(record.job_id) for record in records]

        jobs = run(body())
        assert [job.status for job in jobs[:-1]] == [JobStatus.DONE] * 3
        assert jobs[-1].status == JobStatus.EXPIRED
        assert counts("repro_scheduler_jobs_expired_total") == 1

    def test_batch_of_expired_members_is_released_at_the_last_deadline(self, counts):
        # Every member has a deadline, so the batch is awaited only until
        # the latest one: both members expire while the worker still
        # runs their fused launch.
        slow = CNashConfig(num_intervals=6, num_iterations=6000)
        doomed = [
            SolveRequest.from_dict(
                {**spec_request(seed, size=16, config=slow).to_dict(),
                 "deadline_s": deadline}
            )
            for seed, deadline in ((60, 0.05), (61, 0.1))
        ]

        async def body():
            async with SolveScheduler(
                max_workers=1,
                shard_size=8,
                executor="thread",
                max_batch_jobs=16,
            ) as sched:
                records = [await sched.submit(request) for request in doomed]
                for record in records:
                    with pytest.raises(RuntimeError, match="expired while running"):
                        await sched.wait(record.job_id)
                launches_at_release = counts("repro_kernel_launches_total")
                # The one worker finishes the abandoned launch before this
                # job, so nothing outlives the test.
                await sched.solve(spec_request(62, policy="exact", size=3))
                return launches_at_release

        assert run(body()) == 0  # released while the fused launch still ran
        assert counts("repro_kernel_launches_total") == 1
        assert counts("repro_scheduler_batches_dispatched_total") == 1
        assert counts("repro_scheduler_jobs_expired_total") == 2

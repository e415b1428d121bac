"""Tests for the async scheduler: sharding, caching, priorities, deadlines.

The suite runs the scheduler on the thread executor (cheap startup,
identical code path) except for one process-pool smoke test; shard
determinism is asserted by comparing full run-level JSON across worker
counts, which is the contract the vectorized engine + fixed shard plan
guarantees for noise-free evaluation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.backends import profiles_from_wire
from repro.core.config import CNashConfig
from repro.games.equilibrium import is_epsilon_equilibrium
from repro.games.library import (
    battle_of_the_sexes,
    bird_game,
    matching_pennies,
    paper_benchmark_games,
    stag_hunt,
)
from repro.service.cache import ResultCache
from repro.service.jobs import JobStatus, SolveRequest
from repro.service.scheduler import SolveScheduler

FAST = CNashConfig(num_intervals=4, num_iterations=250)


def run(coro):
    return asyncio.run(coro)


def request_for(game, policy="cnash", **overrides) -> SolveRequest:
    params = dict(game=game, policy=policy, num_runs=8, seed=0, config=FAST)
    params.update(overrides)
    return SolveRequest(**params)


def result_dict(outcome) -> dict:
    """Outcome wire dict minus the per-execution trace timeline.

    Cache-served outcomes carry no trace (nothing executed), so result
    identity between computed and cached is asserted modulo it.
    """
    data = outcome.to_dict()
    data.pop("trace", None)
    return data


class TestBasics:
    def test_solve_round_trip(self, counts):
        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                return await sched.solve(request_for(battle_of_the_sexes()))

        outcome = run(body())
        assert outcome.shards == 2
        assert outcome.batch_result().num_runs == 8
        assert counts("repro_scheduler_jobs_completed_total") == 1
        assert counts("repro_scheduler_shards_executed_total") == 2

    def test_submit_before_start_raises(self):
        async def body():
            scheduler = SolveScheduler(executor="thread")
            with pytest.raises(RuntimeError, match="not running"):
                await scheduler.submit(request_for(battle_of_the_sexes()))

        run(body())

    def test_invalid_executor_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="executor"):
            SolveScheduler(executor="gpu")

    def test_unknown_job_id_raises(self):
        async def body():
            async with SolveScheduler(executor="thread") as sched:
                with pytest.raises(KeyError):
                    sched.job("nope")

        run(body())

    def test_failed_job_reports_the_error(self):
        # A request whose execution raises: hardware path with an
        # impossible config is hard to fabricate, so use a game/config
        # mismatch — num_intervals=1 cannot represent mixed equilibria
        # but still runs; instead force failure via a bogus policy
        # injected after validation.
        async def body():
            async with SolveScheduler(executor="thread") as sched:
                request = request_for(battle_of_the_sexes())
                object.__setattr__(request, "policy", "broken")  # bypass frozen validation
                record = await sched.submit(request)
                with pytest.raises(RuntimeError, match="failed"):
                    await sched.wait(record.job_id)
                return sched.job(record.job_id)

        record = run(body())
        assert record.status == JobStatus.FAILED
        assert "broken" in record.error


class TestShardDeterminism:
    def test_worker_count_does_not_change_results(self):
        """workers=4 must be result-identical to workers=1 (ideal evaluation)."""

        async def solve_with(workers):
            async with SolveScheduler(
                max_workers=workers, shard_size=5, executor="thread"
            ) as sched:
                return await sched.solve(request_for(bird_game(), num_runs=12, seed=11))

        one = run(solve_with(1))
        four = run(solve_with(4))
        assert len(one.batch["runs"]) == 12
        # Full run-level identity, not just aggregate statistics.
        assert one.batch["runs"] == four.batch["runs"]
        assert one.equilibria == four.equilibria
        assert one.success_rate == four.success_rate

    def test_sharded_success_rate_matches_across_worker_counts(self):
        async def solve_with(workers):
            async with SolveScheduler(
                max_workers=workers, shard_size=4, executor="thread"
            ) as sched:
                return await sched.solve(request_for(stag_hunt(), num_runs=10, seed=5))

        one = run(solve_with(1))
        four = run(solve_with(4))
        assert one.success_rate == four.success_rate
        assert one.batch["runs"] == four.batch["runs"]


class TestCache:
    def test_resubmission_is_served_from_cache(self, counts):
        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                request = request_for(battle_of_the_sexes())
                first = await sched.submit(request)
                await sched.wait(first.job_id)
                second = await sched.submit(request)
                outcome = await sched.wait(second.job_id)
                return first, second, outcome

        first, second, outcome = run(body())
        assert not first.cache_hit
        assert second.cache_hit
        assert second.status == JobStatus.DONE
        assert counts("repro_scheduler_cache_hits_total") == 1
        assert counts("repro_cache_hits_total") == 1
        # No recomputation: only the first job's shards executed.  The
        # cache-served repeat carries no trace (a trace describes an
        # execution), so identity is asserted modulo it.
        assert counts("repro_scheduler_shards_executed_total") == 2
        cached, computed = outcome.to_dict(), first.outcome.to_dict()
        assert "trace" not in cached
        computed.pop("trace", None)
        assert cached == computed

    def test_unseeded_requests_are_not_cached(self, counts):
        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                request = request_for(battle_of_the_sexes(), seed=None, num_runs=4)
                await sched.solve(request)
                record = await sched.submit(request)
                await sched.wait(record.job_id)
                return record

        record = run(body())
        assert not record.cache_hit
        assert counts("repro_scheduler_cache_hits_total") == 0

    def test_disk_cache_survives_scheduler_restart(self, tmp_path):
        request = request_for(battle_of_the_sexes())

        async def solve_once():
            cache = ResultCache(capacity=8, directory=tmp_path)
            async with SolveScheduler(
                max_workers=1, shard_size=4, executor="thread", cache=cache
            ) as sched:
                record = await sched.submit(request)
                outcome = await sched.wait(record.job_id)
                return record, outcome

        first_record, first_outcome = run(solve_once())
        second_record, second_outcome = run(solve_once())
        assert not first_record.cache_hit
        assert second_record.cache_hit
        assert result_dict(second_outcome) == result_dict(first_outcome)


class TestCacheKeying:
    def test_different_shard_size_does_not_cross_hit(self, tmp_path):
        """A cnash cache entry is only valid under the shard plan that made it."""
        request = request_for(battle_of_the_sexes())

        async def solve_with_shard_size(shard_size):
            cache = ResultCache(capacity=8, directory=tmp_path)
            async with SolveScheduler(
                max_workers=1, shard_size=shard_size, executor="thread", cache=cache
            ) as sched:
                record = await sched.submit(request)
                await sched.wait(record.job_id)
                return record

        first = run(solve_with_shard_size(4))
        other_plan = run(solve_with_shard_size(2))
        same_plan = run(solve_with_shard_size(4))
        assert not first.cache_hit
        assert not other_plan.cache_hit  # different shard plan -> recompute
        assert same_plan.cache_hit

    def test_exact_policy_key_ignores_shard_size(self, tmp_path):
        request = request_for(battle_of_the_sexes(), policy="exact")

        async def solve_with_shard_size(shard_size):
            cache = ResultCache(capacity=8, directory=tmp_path)
            async with SolveScheduler(
                max_workers=1, shard_size=shard_size, executor="thread", cache=cache
            ) as sched:
                record = await sched.submit(request)
                await sched.wait(record.job_id)
                return record

        assert not run(solve_with_shard_size(4)).cache_hit
        # Unsharded policies are shard-plan independent: still a hit.
        assert run(solve_with_shard_size(2)).cache_hit


class TestCoalescing:
    def test_concurrent_identical_requests_compute_once(self, counts):
        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                request = request_for(battle_of_the_sexes(), num_runs=8, seed=42)
                duplicates = [SolveRequest.from_dict(request.to_dict()) for _ in range(5)]
                return await asyncio.gather(
                    *(sched.solve(r) for r in [request] + duplicates)
                )

        outcomes = run(body())
        first = outcomes[0].to_dict()
        assert all(outcome.to_dict() == first for outcome in outcomes)
        # One leader computed (2 shards); five duplicates coalesced onto it.
        assert counts("repro_scheduler_shards_executed_total") == 2
        assert counts("repro_scheduler_jobs_coalesced_total") == 5
        assert counts("repro_scheduler_jobs_completed_total") == 1

    def test_follower_deadline_still_enforced(self, counts):
        """A coalesced duplicate's own deadline expires it, leader or not."""

        async def body():
            async with SolveScheduler(max_workers=1, shard_size=2, executor="thread") as sched:
                slow = CNashConfig(num_intervals=6, num_iterations=4000)
                leader_request = SolveRequest(
                    game=bird_game(), policy="cnash", num_runs=8, seed=30, config=slow
                )
                leader = await sched.submit(leader_request)
                follower = await sched.submit(
                    SolveRequest.from_dict(
                        {**leader_request.to_dict(), "deadline_s": 0.05}
                    )
                )
                with pytest.raises(RuntimeError, match="expired"):
                    await sched.wait(follower.job_id)
                await sched.wait(leader.job_id)
                return follower

        follower = run(body())
        assert follower.status == JobStatus.EXPIRED
        assert counts("repro_scheduler_jobs_coalesced_total") == 1
        assert counts("repro_scheduler_jobs_expired_total") == 1

    def test_followers_of_failed_leader_recompute_once(self, counts):
        """When a leader expires, its followers elect one new leader, not N."""

        async def body():
            async with SolveScheduler(max_workers=1, shard_size=2, executor="thread") as sched:
                slow = CNashConfig(num_intervals=6, num_iterations=3000)
                doomed_leader = SolveRequest(
                    game=bird_game(), policy="cnash", num_runs=8, seed=31,
                    config=slow, deadline_s=0.05,
                )
                # Followers share the leader's fingerprint but have no deadline.
                follower_request = SolveRequest.from_dict(
                    {**doomed_leader.to_dict(), "deadline_s": None}
                )
                leader = await sched.submit(doomed_leader)
                followers = [
                    await sched.submit(SolveRequest.from_dict(follower_request.to_dict()))
                    for _ in range(3)
                ]
                with pytest.raises(RuntimeError, match="expired"):
                    await sched.wait(leader.job_id)
                return await asyncio.gather(
                    *(sched.wait(f.job_id) for f in followers)
                )

        outcomes = run(body())
        first = outcomes[0].to_dict()
        assert all(outcome.to_dict() == first for outcome in outcomes)
        # Exactly one follower recomputed (4 shards for 8 runs at size 2);
        # the rest re-coalesced onto it or hit the cache it filled.
        assert counts("repro_scheduler_jobs_completed_total") == 1
        assert counts("repro_scheduler_shards_executed_total") <= 8

    def test_uncacheable_requests_are_never_coalesced(self, counts):
        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                request = request_for(
                    battle_of_the_sexes(), num_runs=4, seed=None, use_cache=False
                )
                duplicates = [SolveRequest.from_dict(request.to_dict()) for _ in range(2)]
                await asyncio.gather(*(sched.solve(r) for r in [request] + duplicates))

        run(body())
        assert counts("repro_scheduler_jobs_coalesced_total") == 0
        assert counts("repro_scheduler_jobs_completed_total") == 3


class TestJobTableBound:
    def test_finished_jobs_are_evicted_beyond_the_limit(self):
        async def body():
            async with SolveScheduler(
                max_workers=2,
                shard_size=4,
                executor="thread",
                finished_job_limit=3,
            ) as sched:
                records = []
                for seed in range(6):
                    record = await sched.submit(
                        request_for(battle_of_the_sexes(), seed=seed, num_runs=2,
                                    use_cache=False)
                    )
                    records.append(record)
                    await sched.wait(record.job_id)
                return records, sched

        records, sched = run(body())
        retained = [r.job_id for r in records if r.job_id in sched._jobs]
        assert len(retained) == 3
        assert retained == [r.job_id for r in records[-3:]]
        # Held references are unaffected by eviction.
        assert all(r.status == JobStatus.DONE for r in records)

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="finished_job_limit"):
            SolveScheduler(finished_job_limit=0)

    def test_dispatcher_survives_cancelled_then_evicted_job(self):
        """A queued entry whose record was evicted must not kill the dispatcher."""

        async def body():
            async with SolveScheduler(
                max_workers=1, shard_size=4, executor="thread", finished_job_limit=1
            ) as sched:
                # Occupy the single dispatcher, then cancel a queued job so
                # its (terminal) record can be evicted before its queue
                # entry is ever popped.
                blocker = await sched.submit(
                    request_for(bird_game(), num_runs=12, seed=20, use_cache=False)
                )
                doomed = await sched.submit(request_for(stag_hunt(), seed=21))
                sched.cancel(doomed.job_id)
                await sched.wait(blocker.job_id)  # eviction pushes doomed out
                assert doomed.job_id not in sched._jobs
                # The dispatcher must still be alive to serve new work.
                outcome = await asyncio.wait_for(
                    sched.solve(
                        request_for(battle_of_the_sexes(), num_runs=2, seed=22,
                                    use_cache=False)
                    ),
                    timeout=60,
                )
                return outcome

        assert run(body()).batch_result().num_runs == 2


class TestPortfolioSharding:
    def test_portfolio_cnash_fallback_is_sharded(self, monkeypatch):
        """A portfolio job whose exact member fails must shard its C-Nash run."""
        import repro.service.portfolio as portfolio_module

        # Force the exact/squbo members to verify nothing so the portfolio
        # falls through to (sharded) C-Nash.
        real_verifier = portfolio_module.has_verified_equilibrium

        def only_cnash_verifies(request, outcome):
            if outcome.backend.startswith(("exact/", "squbo/")):
                return False
            return real_verifier(request, outcome)

        monkeypatch.setattr(
            portfolio_module, "has_verified_equilibrium", only_cnash_verifies
        )

        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                return await sched.solve(
                    request_for(battle_of_the_sexes(), policy="portfolio",
                                num_runs=8, seed=13)
                )

        outcome = run(body())
        assert outcome.backend == "cnash"
        assert outcome.policy == "portfolio"
        assert outcome.shards == 2  # the fallback fanned out across the pool
        assert outcome.batch_result().num_runs == 8

    def test_portfolio_winner_matches_in_worker_portfolio(self):
        """Scheduler-routed portfolio selects like the in-worker portfolio backend."""
        from repro.service.portfolio import execute_request

        request = request_for(battle_of_the_sexes(), policy="portfolio", num_runs=4, seed=2)

        async def body():
            async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
                return await sched.solve(request)

        via_scheduler = run(body())
        in_worker = execute_request(request)
        assert via_scheduler.backend == in_worker.backend
        assert via_scheduler.equilibria == in_worker.equilibria


class TestQueueSemantics:
    def test_cancel_pending_job(self, counts):
        async def body():
            async with SolveScheduler(max_workers=1, executor="thread") as sched:
                # Occupy the single dispatcher with a slow job, then queue
                # a second one and cancel it while it is still pending.
                slow = await sched.submit(
                    request_for(bird_game(), num_runs=16, seed=1, use_cache=False)
                )
                pending = await sched.submit(request_for(stag_hunt(), seed=2))
                cancelled = sched.cancel(pending.job_id)
                with pytest.raises(RuntimeError, match="cancelled"):
                    await sched.wait(pending.job_id)
                await sched.wait(slow.job_id)
                return cancelled, pending

        cancelled, pending = run(body())
        assert cancelled
        assert pending.status == JobStatus.CANCELLED
        assert counts("repro_scheduler_jobs_cancelled_total") == 1

    def test_cancel_finished_job_returns_false(self):
        async def body():
            async with SolveScheduler(max_workers=1, executor="thread") as sched:
                record = await sched.submit(request_for(battle_of_the_sexes()))
                await sched.wait(record.job_id)
                return sched.cancel(record.job_id)

        assert run(body()) is False

    def test_expired_deadline_in_queue(self, counts):
        async def body():
            async with SolveScheduler(max_workers=1, executor="thread") as sched:
                slow = await sched.submit(
                    request_for(bird_game(), num_runs=16, seed=3, use_cache=False)
                )
                doomed = await sched.submit(
                    request_for(stag_hunt(), seed=4, deadline_s=1e-6)
                )
                with pytest.raises(RuntimeError, match="expired"):
                    await sched.wait(doomed.job_id)
                await sched.wait(slow.job_id)
                return sched.job(doomed.job_id)

        record = run(body())
        assert record.status == JobStatus.EXPIRED
        assert counts("repro_scheduler_jobs_expired_total") == 1

    def test_expired_deadline_cancels_pending_shards(self):
        """Deadline expiry must not leave queued shards hogging the pool."""
        import time as _time

        async def body():
            big = CNashConfig(num_intervals=6, num_iterations=4000)
            async with SolveScheduler(max_workers=1, shard_size=2, executor="thread") as sched:
                doomed = await sched.submit(
                    SolveRequest(
                        game=bird_game(), policy="cnash", num_runs=40, seed=0,
                        config=big, deadline_s=0.2, use_cache=False,
                    )
                )
                with pytest.raises(RuntimeError, match="expired"):
                    await sched.wait(doomed.job_id)
                # If the 20 pending shards were still queued, this tiny job
                # would wait tens of seconds for them to drain first.
                start = _time.perf_counter()
                await sched.solve(
                    request_for(stag_hunt(), num_runs=2, seed=1, use_cache=False)
                )
                return _time.perf_counter() - start

        follow_up_latency = run(body())
        assert follow_up_latency < 5.0

    def test_priority_orders_pending_jobs(self):
        async def body():
            order = []
            async with SolveScheduler(max_workers=1, executor="thread") as sched:
                # Head-of-line blocker so the queue actually holds jobs.
                blocker = await sched.submit(
                    request_for(bird_game(), num_runs=16, seed=6, use_cache=False)
                )
                low = await sched.submit(request_for(stag_hunt(), seed=7), priority=5)
                high = await sched.submit(request_for(matching_pennies(), seed=8), priority=-5)
                for record in (blocker, low, high):
                    await sched.wait(record.job_id)
                for record in (low, high):
                    order.append((record.job_id, sched.job(record.job_id).started_at))
                return dict(order), low.job_id, high.job_id

        started, low_id, high_id = run(body())
        assert started[high_id] <= started[low_id]


class TestEndToEnd:
    def test_twenty_mixed_policy_jobs(self, counts):
        """The ISSUE's acceptance scenario: >= 20 mixed-policy jobs.

        Cached resubmissions must be served without recomputation, the
        sharded results must merge to the single-worker success rate,
        and portfolio jobs must return a verified equilibrium for every
        paper benchmark game.
        """
        games = paper_benchmark_games()
        requests = []
        for index, game in enumerate(games):
            requests.append(request_for(game, policy="portfolio", seed=index, num_runs=6))
            requests.append(request_for(game, policy="exact", seed=index))
            requests.append(request_for(game, policy="cnash", seed=index, num_runs=10))
        requests.extend(
            request_for(stag_hunt(), policy="cnash", seed=100 + i, num_runs=6)
            for i in range(5)
        )
        # Resubmissions of the first six (identical content -> cache hits).
        resubmissions = [SolveRequest.from_dict(r.to_dict()) for r in requests[:6]]
        assert len(requests) + len(resubmissions) >= 20

        async def body():
            async with SolveScheduler(max_workers=4, shard_size=4, executor="thread") as sched:
                first_wave = await asyncio.gather(
                    *(sched.solve(request) for request in requests)
                )
                baseline_shards = counts("repro_scheduler_shards_executed_total")
                records = await asyncio.gather(
                    *(sched.submit(request) for request in resubmissions)
                )
                second_wave = await asyncio.gather(
                    *(sched.wait(record.job_id) for record in records)
                )
                return first_wave, second_wave, records, baseline_shards

        first_wave, second_wave, records, baseline_shards = run(body())

        # Cache: every resubmission was a hit and executed zero new shards.
        assert all(record.cache_hit for record in records)
        assert counts("repro_scheduler_cache_hits_total") == len(records)
        assert counts("repro_scheduler_shards_executed_total") == baseline_shards
        for original, repeat in zip(first_wave[:6], second_wave):
            assert result_dict(repeat) == result_dict(original)

        # Sharding: merged batches carry the full run budget.
        for request_obj, outcome in zip(requests, first_wave):
            if request_obj.policy == "cnash":
                assert outcome.batch_result().num_runs == request_obj.num_runs
                assert outcome.shards == -(-request_obj.num_runs // 4)

        # Portfolio: a verified equilibrium for every paper benchmark game.
        for game, outcome in zip(games, first_wave[0::3]):
            profiles = profiles_from_wire(outcome.equilibria)
            assert profiles, f"no equilibrium for {game.name}"
            epsilon = 1e-6 if outcome.backend.startswith("exact/") else 2.0
            assert any(
                is_epsilon_equilibrium(game, profile.p, profile.q, epsilon)
                for profile in profiles
            ), f"no verified equilibrium for {game.name}"

        assert counts("repro_scheduler_jobs_completed_total") == len(requests)
        assert counts("repro_scheduler_jobs_failed_total") == 0


class TestProcessPool:
    def test_process_executor_smoke(self):
        """One small sharded solve through real worker processes."""

        async def body():
            async with SolveScheduler(max_workers=2, shard_size=3, executor="process") as sched:
                return await sched.solve(
                    request_for(battle_of_the_sexes(), num_runs=6, seed=9)
                )

        outcome = run(body())
        assert outcome.shards == 2
        assert outcome.batch_result().num_runs == 6

    def test_process_results_match_thread_results(self):
        request = request_for(battle_of_the_sexes(), num_runs=6, seed=9)

        async def solve_with(executor):
            async with SolveScheduler(max_workers=2, shard_size=3, executor=executor) as sched:
                return await sched.solve(request)

        thread_outcome = run(solve_with("thread"))
        process_outcome = run(solve_with("process"))
        assert thread_outcome.batch["runs"] == process_outcome.batch["runs"]

    def test_per_shard_workers_ship_their_metrics_home(self, counts):
        """Each shard's worker process returns its kernel launch to the parent."""
        request = request_for(bird_game(), num_runs=128, seed=4)

        async def body():
            async with SolveScheduler(max_workers=2, executor="process") as sched:
                return await sched.solve(request)

        outcome = run(body())
        assert outcome.shards == 2  # 128 runs at the default 64-run shards
        assert counts("repro_scheduler_shards_executed_total") == 2
        assert counts("repro_kernel_launches_total") == 2

"""Resilience subsystem: retry policy, breakers, shedding, supervision, chaos.

The PR-8 acceptance surface: injected worker crashes (thread surrogate
and real process death) are absorbed with bit-identical results,
poison pills are quarantined instead of crash-looping the pool, circuit
breakers open/half-open/close, admission control sheds typed
``Overloaded`` errors, clients surface typed ``ServiceUnavailable``,
the disk cache honours its byte budget, and ``api.sweep`` reports
attempt counts plus a ``failed`` bucket instead of dying with the first
poisoned job.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CNashConfig
from repro.games.spec import GameSpec
from repro.service.cache import ResultCache
from repro.service.jobs import JobStatus, SolveRequest
from repro.service.resilience import (
    PERMANENT,
    SOLVER_MISS,
    TRANSIENT,
    WORKER_DEATH,
    AdmissionController,
    CircuitBreaker,
    CircuitOpen,
    FaultPlan,
    FaultRule,
    InjectedFault,
    Overloaded,
    RetryPolicy,
    RetryRule,
    ServiceUnavailable,
    WorkerCrash,
    WorkerDeath,
    WorkerHang,
    WorkerPoolSupervisor,
    classify_failure,
    install_fault_plan,
    retry_seed,
)
from repro.service.scheduler import SolveScheduler
from repro.telemetry import family_total, temporary_registry

FAST = CNashConfig(num_intervals=4, num_iterations=250)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_plan():
    install_fault_plan(None)
    yield
    install_fault_plan(None)


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
    """Result bytes only: strip execution metadata (timings, trace, attempts)."""
    data = outcome.to_dict()
    data.pop("wall_clock_seconds", None)
    data.pop("trace", None)
    data.pop("attempts", None)
    if data.get("batch"):
        data["batch"] = {
            key: value
            for key, value in data["batch"].items()
            if key != "wall_clock_seconds"
        }
    return data


# ----------------------------------------------------------------------
# Failure classification and retry policy
# ----------------------------------------------------------------------
class TestClassification:
    def test_live_exception_types(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_failure(WorkerCrash("x")) == WORKER_DEATH
        assert classify_failure(WorkerDeath("x")) == WORKER_DEATH
        assert classify_failure(WorkerHang("x")) == WORKER_DEATH
        assert classify_failure(BrokenProcessPool("x")) == WORKER_DEATH
        assert classify_failure(InjectedFault("x")) == TRANSIENT
        assert classify_failure(ValueError("bad spec")) == PERMANENT

    def test_flattened_worker_strings(self):
        # Worker error entries travel as "TypeName: text" strings.
        assert classify_failure(RuntimeError("WorkerCrash: injected")) == WORKER_DEATH
        assert classify_failure(
            RuntimeError("InjectedFault: kernel fault")) == TRANSIENT
        assert classify_failure(
            RuntimeError("corrupt result payload: fingerprint mismatch")
        ) == TRANSIENT
        assert classify_failure(RuntimeError("ValueError: nope")) == PERMANENT


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.should_retry(WORKER_DEATH, 1)
        assert not policy.should_retry(WORKER_DEATH, 2)
        assert policy.should_retry(TRANSIENT, 1)
        assert not policy.should_retry(PERMANENT, 1)
        assert not policy.should_retry(SOLVER_MISS, 1)
        assert not policy.escalation_enabled()
        assert policy.fingerprint_token() is None

    def test_escalation_opt_in(self):
        policy = RetryPolicy.with_escalation(solver_attempts=3)
        assert policy.escalation_enabled()
        assert policy.should_retry(SOLVER_MISS, 2)
        assert not policy.should_retry(SOLVER_MISS, 3)
        assert policy.fingerprint_token() == "esc3"

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(transient=RetryRule(
            max_attempts=5, base_backoff_s=0.1, max_backoff_s=0.4, jitter=0.5))
        fp = "a" * 64
        first = policy.backoff_s(TRANSIENT, 1, fp)
        assert first == policy.backoff_s(TRANSIENT, 1, fp)  # deterministic
        assert first != policy.backoff_s(TRANSIENT, 1, "b" * 64)  # jitter varies
        # Exponential up to the cap (jitter adds at most 50%).
        assert 0.1 <= first <= 0.15
        assert policy.backoff_s(TRANSIENT, 4, fp) <= 0.4 * 1.5

    def test_retry_seed_reproducible_and_fresh(self):
        assert retry_seed(7, 1) == 7  # first execution keeps the seed
        assert retry_seed(7, 2) != 7
        assert retry_seed(7, 2) == retry_seed(7, 2)
        assert retry_seed(7, 2) != retry_seed(7, 3)


# ----------------------------------------------------------------------
# Circuit breaker and admission control (unit level)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker(
            backend="cnash", failure_threshold=3, cooldown_s=10.0,
            clock=clock, **kwargs)
        return breaker, clock

    def test_opens_at_threshold_and_fast_fails(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.on_failure()
            breaker.admit()  # still closed
        breaker.on_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen) as excinfo:
            breaker.admit()
        assert excinfo.value.retry_after_s is not None

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.on_failure()
        clock.now = 11.0
        assert breaker.state == "half_open"
        breaker.admit()  # the single probe is admitted
        with pytest.raises(CircuitOpen):
            breaker.admit()  # second concurrent probe is not
        breaker.on_success()
        assert breaker.state == "closed"
        breaker.admit()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.on_failure()
        clock.now = 11.0
        breaker.admit()
        breaker.on_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpen):
            breaker.admit()
        clock.now = 22.0
        assert breaker.state == "half_open"

    def test_success_resets_failure_streak(self):
        breaker, _ = self.make()
        breaker.on_failure()
        breaker.on_failure()
        breaker.on_success()
        breaker.on_failure()
        assert breaker.state == "closed"


class TestAdmissionController:
    def test_disabled_by_default(self):
        controller = AdmissionController()
        controller.admit(10**9, priority=5)  # unbounded: anything goes

    def test_full_queue_sheds_everyone(self, counts):
        controller = AdmissionController(max_queue_depth=4)
        controller.admit(3, priority=0)
        with pytest.raises(Overloaded) as excinfo:
            controller.admit(4, priority=0)
        assert excinfo.value.queue_depth == 4
        assert excinfo.value.capacity == 4
        assert excinfo.value.retry_after_s > 0
        assert counts("repro_resilience_shed_total", reason="full") == 1

    def test_background_shed_before_full(self, counts):
        controller = AdmissionController(max_queue_depth=4)
        controller.admit(3, priority=0)  # interactive rides to the brim
        with pytest.raises(Overloaded):
            controller.admit(3, priority=1)  # background shed at 75%
        assert counts("repro_resilience_shed_total", reason="background") == 1


# ----------------------------------------------------------------------
# Worker-pool supervision (unit level)
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_broken_pool_rebuilds_and_raises_worker_death(self, counts):
        from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

        supervisor = WorkerPoolSupervisor(lambda: ThreadPoolExecutor(max_workers=1))
        first_pool = supervisor.executor

        def boom():
            raise BrokenExecutor("worker died")

        async def body():
            with pytest.raises(WorkerDeath):
                await supervisor.run(boom)

        run(body())
        assert supervisor.executor is not first_pool
        assert supervisor.generation == 1
        assert counts("repro_resilience_worker_restarts_total", cause="death") == 1
        supervisor.shutdown()

    def test_hang_detection_rebuilds_and_raises_worker_hang(self, counts):
        import time
        from concurrent.futures import ThreadPoolExecutor

        supervisor = WorkerPoolSupervisor(lambda: ThreadPoolExecutor(max_workers=1))
        first_pool = supervisor.executor

        async def body():
            with pytest.raises(WorkerHang):
                await supervisor.run(time.sleep, 5.0, timeout_s=0.05)

        run(body())
        assert supervisor.executor is not first_pool
        assert counts("repro_resilience_worker_restarts_total", cause="hang") == 1
        supervisor.shutdown()

    def test_inline_execution_unsupervised(self):
        supervisor = WorkerPoolSupervisor(lambda: None)

        async def body():
            return await supervisor.run(lambda: 42)

        assert run(body()) == 42
        supervisor.shutdown()


# ----------------------------------------------------------------------
# Scheduler-level chaos: crashes, retries, quarantine, escalation
# ----------------------------------------------------------------------
def sweep(scheduler_kwargs, requests):
    """Solve ``requests`` on a fresh scheduler under its own registry.

    Returns the outcomes and ``counts(name, **labels)`` over the events
    that sweep alone caused.
    """
    with temporary_registry() as registry:
        async def body():
            async with SolveScheduler(**scheduler_kwargs) as scheduler:
                records = [await scheduler.submit(r) for r in requests]
                return [await scheduler.wait(rec.job_id) for rec in records]

        outcomes = run(body())
    return outcomes, lambda name, **labels: family_total(registry.snapshot(), name, **labels)


class TestSchedulerChaos:
    def test_worker_crash_mid_batch_is_bit_identical(self):
        # A worker crash (thread surrogate) mid-coalesced-batch: every
        # job completes, results match the fault-free run byte for byte,
        # and the retries are visible in the attempt counts.
        requests = [spec_request(seed) for seed in range(8)]
        base_kwargs = dict(
            max_workers=2, executor="thread", shard_size=8,
            max_batch_linger_ms=25.0,
        )
        baseline, base_counts = sweep(base_kwargs, requests)
        plan = FaultPlan(rules=(
            FaultRule(point="worker_entry", action="crash", times=1),
        ))
        chaotic, counts = sweep({**base_kwargs, "fault_plan": plan}, requests)
        plan.reset()
        assert [canon(o) for o in chaotic] == [canon(o) for o in baseline]
        assert counts("repro_resilience_retries_total") >= 1
        assert counts("repro_scheduler_jobs_completed_total") == len(requests)
        assert any(o.attempts > 1 for o in chaotic)
        assert all(o.attempts == 1 for o in baseline)
        assert base_counts("repro_resilience_retries_total") == 0

    def test_transient_kernel_fault_and_corrupt_payload_recover(self):
        requests = [spec_request(seed) for seed in range(4)]
        base_kwargs = dict(
            max_workers=2, executor="thread", shard_size=8,
            max_batch_linger_ms=25.0,
        )
        baseline, _ = sweep(base_kwargs, requests)
        # One kernel fault aborts the whole fused group, so a job can
        # eat both injections back to back — give the transient rule
        # headroom beyond the default two attempts.
        roomy = RetryPolicy(transient=RetryRule(
            max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05))
        plan = FaultPlan(rules=(
            FaultRule(point="kernel", action="error", times=1),
            FaultRule(point="settle", action="corrupt", times=1),
        ))
        chaotic, counts = sweep(
            {**base_kwargs, "fault_plan": plan, "retry_policy": roomy}, requests)
        plan.reset()
        assert [canon(o) for o in chaotic] == [canon(o) for o in baseline]
        assert counts("repro_resilience_retries_total") >= 2  # one per injected fault

    def test_poison_pill_is_quarantined_and_companions_survive(self, counts):
        # The poison job kills its worker twice (match pins the fault to
        # its fingerprint); after the second death it is quarantined —
        # batch companions complete normally.
        requests = [spec_request(seed) for seed in range(4)]
        poison = requests[0]
        plan = FaultPlan(rules=(
            FaultRule(point="kernel", action="crash", times=2,
                      match=poison.fingerprint()),
        ))

        async def body():
            async with SolveScheduler(
                max_workers=2, executor="thread", shard_size=8,
                max_batch_linger_ms=25.0, fault_plan=plan,
            ) as scheduler:
                records = [await scheduler.submit(r) for r in requests]
                results = await asyncio.gather(
                    *(scheduler.wait(rec.job_id) for rec in records),
                    return_exceptions=True,
                )
                statuses = [rec.status for rec in records]
                return results, statuses

        results, statuses = run(body())
        plan.reset()
        assert statuses[0] == JobStatus.QUARANTINED
        assert isinstance(results[0], RuntimeError)
        assert "quarantined" in str(results[0])
        for outcome, status in zip(results[1:], statuses[1:]):
            assert status == JobStatus.DONE
            assert not isinstance(outcome, BaseException)
        assert counts("repro_resilience_quarantined_total") == 1
        assert counts("repro_scheduler_jobs_completed_total") == len(requests) - 1

    def test_retry_exhaustion_fails_the_job(self, counts):
        # More faults than the transient budget (max_attempts=2): the
        # job retries once, then fails terminally with its attempt
        # count intact.
        plan = FaultPlan(rules=(
            FaultRule(point="worker_entry", action="error", times=3),
        ))

        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
                fault_plan=plan,
            ) as scheduler:
                record = await scheduler.submit(spec_request(1))
                with pytest.raises(RuntimeError):
                    await scheduler.wait(record.job_id)
                return record.attempts

        attempts = run(body())
        plan.reset()
        assert attempts == 2
        assert counts("repro_resilience_retries_total", fault_class=TRANSIENT) == 1
        assert counts("repro_scheduler_jobs_failed_total") == 1

    def test_solver_miss_escalation_retries_with_fresh_seed(self, monkeypatch, counts):
        # Deterministic miss: the verifier says "no" to the first
        # attempt and "yes" afterwards.  Escalation is opt-in; the
        # retried outcome answers the *original* request fingerprint.
        import repro.service.scheduler as scheduler_module

        verdicts = iter([False])
        monkeypatch.setattr(
            scheduler_module, "has_verified_equilibrium",
            lambda request, outcome: next(verdicts, True),
        )
        request = spec_request(3)

        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
                retry_policy=RetryPolicy.with_escalation(solver_attempts=3),
            ) as scheduler:
                record = await scheduler.submit(request)
                return await scheduler.wait(record.job_id)

        outcome = run(body())
        assert outcome.attempts == 2
        assert counts("repro_resilience_retries_total", fault_class=SOLVER_MISS) == 1
        assert outcome.fingerprint == request.fingerprint()
        assert outcome.policy == request.policy

    def test_escalation_off_by_default_never_reruns(self, monkeypatch):
        import repro.service.scheduler as scheduler_module

        monkeypatch.setattr(
            scheduler_module, "has_verified_equilibrium",
            lambda request, outcome: False,
        )

        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
            ) as scheduler:
                record = await scheduler.submit(spec_request(4))
                outcome = await scheduler.wait(record.job_id)
                return outcome

        assert run(body()).attempts == 1

    def test_open_breaker_rejects_submissions(self, counts):
        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
                breaker_threshold=2,
            ) as scheduler:
                scheduler._breakers.on_failure("cnash")
                scheduler._breakers.on_failure("cnash")
                with pytest.raises(CircuitOpen):
                    await scheduler.submit(spec_request(5))

        run(body())
        assert counts("repro_scheduler_jobs_failed_total") == 1  # a FAILED record
        assert counts("repro_resilience_breaker_opens_total", backend="cnash") == 1

    def test_admission_sheds_when_queue_is_full(self):
        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
                max_queue_depth=1,
            ) as scheduler:
                # Stuff the queue directly (dispatchers race real submits).
                await scheduler._queue.put((0, 10**9, "phantom"))
                with pytest.raises(Overloaded):
                    await scheduler.submit(spec_request(6))

        run(body())

    def test_lone_job_settle_fault_is_rejected_and_retried(self):
        # A job dispatched alone settles in the worker like a coalesced
        # one, so a corrupted settle payload fails the fingerprint gate
        # and is retried once; the outcome and its cached repeat both
        # equal the fault-free run.
        request = spec_request(7, size=3, policy="exact")
        alone = dict(max_workers=1, executor="thread", max_batch_jobs=1)
        (baseline,), _ = sweep(alone, [request])
        plan = FaultPlan(rules=(FaultRule(point="settle", action="corrupt", times=1),))
        with temporary_registry() as registry:
            async def body():
                async with SolveScheduler(**alone, fault_plan=plan) as scheduler:
                    first = await scheduler.solve(request)
                    repeat = await scheduler.submit(request)
                    return first, repeat.cache_hit, await scheduler.wait(repeat.job_id)

            outcome, cache_hit, repeat = run(body())
            retries = family_total(
                registry.snapshot(), "repro_resilience_retries_total", fault_class=TRANSIENT
            )
        fired = plan.fired(0)
        plan.reset()
        assert fired == 1
        assert retries == 1
        assert outcome.attempts == 2
        assert cache_hit
        assert canon(outcome) == canon(baseline)
        assert canon(repeat) == canon(baseline)


# ----------------------------------------------------------------------
# Retried vs fault-free, as a property over dispatch shapes
# ----------------------------------------------------------------------
#: One fault of each kind the serving path absorbs, keyed by its point.
ONE_FAULT = {
    "worker_entry": FaultRule(point="worker_entry", action="crash", times=1),
    "kernel": FaultRule(point="kernel", action="error", times=1),
    "materialize": FaultRule(point="materialize", action="delay", times=1, delay_s=0.01),
    "settle": FaultRule(point="settle", action="corrupt", times=1),
}
#: Budgets that absorb one fault per job, with short backoffs.
QUICK_RETRIES = RetryPolicy(
    worker_death=RetryRule(max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.05),
    transient=RetryRule(max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.05),
)
#: At shard size 4: single-shard C-Nash jobs coalesce, the 8-run job
#: fans out two shards, and the exact and portfolio jobs use 3x3 games.
SHAPE_KWARGS = dict(
    max_workers=2, executor="thread", shard_size=4, max_batch_linger_ms=10.0,
    retry_policy=QUICK_RETRIES,
)
SINGLE_SHARD = [spec_request(seed) for seed in range(3)]
TWO_SHARD = spec_request(10, num_runs=8)
EXACT = [spec_request(20 + seed, size=3, policy="exact") for seed in range(2)]
PORTFOLIO = spec_request(30, size=3, policy="portfolio")
SHAPE_POOL = SINGLE_SHARD + [TWO_SHARD] + EXACT + [PORTFOLIO]


@pytest.fixture(scope="module")
def fault_free():
    """Each pool request's fault-free outcome, by fingerprint."""
    outcomes, _ = sweep(SHAPE_KWARGS, SHAPE_POOL)
    return {r.fingerprint(): canon(o) for r, o in zip(SHAPE_POOL, outcomes)}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    single=st.integers(1, len(SINGLE_SHARD)),
    exact=st.integers(0, len(EXACT)),
    two_shard=st.booleans(),
    portfolio=st.booleans(),
    point=st.sampled_from(sorted(ONE_FAULT)),
)
def test_retried_dispatch_equals_fault_free(
    fault_free, single, exact, two_shard, portfolio, point
):
    # Every shape holds a coalescible single-shard job, which reaches
    # all four points, so the drawn fault always fires somewhere.
    requests = (
        SINGLE_SHARD[:single] + EXACT[:exact]
        + [TWO_SHARD] * two_shard + [PORTFOLIO] * portfolio
    )
    plan = FaultPlan(rules=(ONE_FAULT[point],))
    try:
        outcomes, counts = sweep({**SHAPE_KWARGS, "fault_plan": plan}, requests)
        fired = plan.fired(0)
    finally:
        plan.reset()
    assert fired == 1
    assert [canon(o) for o in outcomes] == [fault_free[r.fingerprint()] for r in requests]
    retried = counts("repro_resilience_retries_total") >= 1
    assert retried == (point != "materialize")  # a delay is no failure
    assert counts("repro_scheduler_jobs_completed_total") == len(requests)


# ----------------------------------------------------------------------
# Real process death: the acceptance-scale sweep
# ----------------------------------------------------------------------
class TestProcessCrashSweep:
    @pytest.mark.slow
    def test_200_job_sweep_with_process_crash_is_bit_identical(self):
        # The ISSUE acceptance: a 200-job spec-shipped sweep survives a
        # real worker-process death (os._exit in the worker, the parent
        # sees BrokenProcessPool, the supervisor rebuilds the pool) and
        # its merged results are bit-identical to a fault-free run.
        tiny = CNashConfig(num_intervals=4, num_iterations=120)
        requests = [spec_request(seed, config=tiny) for seed in range(200)]
        base_kwargs = dict(
            max_workers=2, executor="process", shard_size=8,
            max_batch_linger_ms=10.0,
        )

        baseline, _ = sweep(base_kwargs, requests)
        plan = FaultPlan(rules=(
            FaultRule(point="worker_entry", action="crash", times=1),
        ))
        chaotic, counts = sweep({**base_kwargs, "fault_plan": plan}, requests)
        plan.reset()
        assert [canon(o) for o in chaotic] == [canon(o) for o in baseline]
        assert counts("repro_scheduler_jobs_completed_total") == len(requests)
        assert counts("repro_resilience_retries_total") >= 1
        assert any(o.attempts > 1 for o in chaotic)
        assert counts("repro_resilience_worker_restarts_total", cause="death") >= 1


# ----------------------------------------------------------------------
# Typed client errors, cache bounding, sweep failure bucket
# ----------------------------------------------------------------------
class TestTypedClientErrors:
    def test_sync_client_connect_exhaustion_is_service_unavailable(self):
        from repro.service.client import ReconnectPolicy, SyncServiceClient

        client = SyncServiceClient(
            host="127.0.0.1", port=1,  # nothing listens on port 1
            reconnect=ReconnectPolicy(max_attempts=2, base_backoff_s=0.01),
        )
        with pytest.raises(ServiceUnavailable, match="cannot connect"):
            client.ping()

    def test_wire_round_trip_of_typed_errors(self):
        # An open breaker surfaces to the TCP client as the typed
        # CircuitOpen (not a stringly ServiceError).
        from repro.service.client import ServiceClient
        from repro.service.server import NashServer

        async def body():
            async with SolveScheduler(
                max_workers=1, executor="inline", max_batch_jobs=1,
                breaker_threshold=1,
            ) as scheduler:
                scheduler._breakers.on_failure("cnash")
                server = NashServer(scheduler, port=0)
                await server.start()
                serve_task = asyncio.get_running_loop().create_task(
                    server.serve_until_shutdown())
                client = await ServiceClient.connect(server.host, server.port)
                try:
                    with pytest.raises(CircuitOpen) as excinfo:
                        await client.solve(spec_request(7))
                    assert excinfo.value.retry_after_s is not None
                    await client.shutdown()
                finally:
                    await client.close()
                await asyncio.wait_for(serve_task, timeout=5)
                await server.close()

        run(body())


class TestBoundedDiskCache:
    def test_disk_tier_evicts_oldest_mtime_first(self, tmp_path, counts):
        cache = ResultCache(capacity=8, directory=tmp_path, max_disk_bytes=1)
        entry = {"fingerprint": "a" * 64, "policy": "cnash"}
        cache.put("a" * 64, entry)
        path_a = tmp_path / ("a" * 64 + ".json")
        assert path_a.exists()  # the freshly written entry survives its own pass
        # Age the first entry, then write a second: the budget (smaller
        # than one entry) forces the oldest out.
        old = os.stat(path_a).st_mtime - 1000
        os.utime(path_a, (old, old))
        cache.put("b" * 64, dict(entry, fingerprint="b" * 64))
        assert not path_a.exists()
        assert (tmp_path / ("b" * 64 + ".json")).exists()
        assert counts("repro_cache_disk_evictions_total") >= 1

    def test_unbounded_by_default(self, tmp_path, counts):
        cache = ResultCache(capacity=8, directory=tmp_path)
        for index in range(4):
            key = f"{index:064x}"
            cache.put(key, {"fingerprint": key})
        assert len(list(tmp_path.glob("*.json"))) == 4
        assert counts("repro_cache_disk_evictions_total") == 0

    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_disk_bytes"):
            ResultCache(directory=tmp_path, max_disk_bytes=-1)

    def test_disk_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(capacity=0, directory=tmp_path, max_disk_bytes=10**9)
        key = "c" * 64
        cache.put(key, {"fingerprint": key})
        path = tmp_path / (key + ".json")
        old = os.stat(path).st_mtime - 1000
        os.utime(path, (old, old))
        assert cache.get(key) is not None
        assert os.stat(path).st_mtime > old + 500  # promoted to "recent"


class TestSweepResilience:
    def test_sweep_reports_attempts_and_failed_bucket(self):
        # One poisoned spec job dies twice and is quarantined; the sweep
        # still returns every other report, lists the casualty in
        # ``failed``, and carries per-job attempt counts.
        from repro.api import sweep
        from repro.service.client import InProcessClient

        specs = [
            GameSpec.generator("random", num_row_actions=8, seed=seed)
            for seed in range(6)
        ]
        # Build the poison fingerprint exactly as the sweep will: same
        # spec, backend and SolveSpec fields.
        from repro.api import _request_from_spec
        from repro.backends.base import SolveSpec

        solve_spec = SolveSpec(num_runs=4, seed=1, options={"config": FAST})
        poison_fp = _request_from_spec(specs[0], "cnash", solve_spec).fingerprint()
        plan = FaultPlan(rules=(
            FaultRule(point="kernel", action="crash", times=2, match=poison_fp),
        ))
        client = InProcessClient(
            executor="thread", max_workers=2, max_batch_linger_ms=25.0,
            fault_plan=plan,
        )
        try:
            result = sweep(specs, backends="cnash", spec=solve_spec, client=client)
        finally:
            client.close()
            plan.reset()
        assert len(result.failed) == 1
        assert result.failed[0]["backend"] == "cnash"
        assert "quarantined" in result.failed[0]["error"]
        assert len(result.reports) == len(specs) - 1
        assert len(result.attempts) == len(result.reports)
        assert all(count >= 1 for count in result.attempts)
        assert "failed" in result.summary()

    def test_in_process_client_results_return_exceptions(self):
        from repro.service.client import InProcessClient

        bad = spec_request(12)
        plan = FaultPlan(rules=(
            FaultRule(point="kernel", action="error", times=1,
                      match=bad.fingerprint()),
        ))
        client = InProcessClient(
            executor="thread", max_workers=2, max_batch_linger_ms=25.0,
            retry_policy=RetryPolicy.disabled(), fault_plan=plan,
        )
        try:
            good = client.submit(spec_request(11))
            bad_id = client.submit(bad)
            outcomes = client.results([good, bad_id], return_exceptions=True)
        finally:
            client.close()
            plan.reset()
        assert not isinstance(outcomes[0], BaseException)
        assert isinstance(outcomes[1], RuntimeError)

"""Async job scheduler with sharded worker-pool execution.

:class:`SolveScheduler` is the service's execution core:

* an :class:`asyncio.PriorityQueue` orders submitted jobs by (priority,
  arrival); cancellation and relative deadlines are honoured both while
  queued and (for deadlines) while running;
* every dispatch is a batch, run and settled by one path: a lone job is
  a batch of one, compatible queued jobs coalesce into larger ones (see
  :mod:`repro.service.batching`), and crash retries and escalated
  attempts dispatch as batches of one;
* a ``concurrent.futures`` worker pool executes the actual solves.  A
  batch of single-shard jobs is one worker call.  A ``"cnash"`` request
  of more than ``shard_size`` runs is *sharded*: the run budget is split
  into fixed-size sub-batches whose seeds derive from the request seed
  and the shard index alone (:func:`repro.utils.rng.shard_seeds`), one
  call per shard runs concurrently across the pool, and the per-shard
  batches are merged back into one :class:`SolverBatchResult` in shard
  order — so the merged result is bit-identical for any worker count;
* a content-addressed :class:`~repro.service.cache.ResultCache` serves
  repeat requests without recomputation (seeded requests only).

The scheduler is transport-agnostic: the TCP server
(:mod:`repro.service.server`), the in-process client
(:mod:`repro.service.client`) and the experiment runner's ``--service``
path all sit on top of exactly this class.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import itertools
import os
import time
import uuid
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.result import SolverBatchResult
from repro.games.bimatrix import BimatrixGame
from repro.service.batching import (
    DEFAULT_MAX_BATCH_JOBS,
    DEFAULT_MAX_BATCH_LINGER_MS,
    compute_batch_key,
    execute_job_batch_payload,
)
from repro.service.cache import ResultCache
from repro.service.jobs import JobRecord, JobStatus, SolveOutcome, SolveRequest
from repro.service.portfolio import (
    adopt_portfolio_attempt,
    cnash_is_builtin,
    has_verified_equilibrium,
    member_request,
    outcome_from_batch,
    portfolio_order,
    shard_payloads,
    solve_shard_payload,
)
from repro.service.resilience import (
    PERMANENT,
    SOLVER_MISS,
    TRANSIENT,
    WORKER_DEATH,
    AdmissionController,
    BreakerBoard,
    CircuitOpen,
    FaultPlan,
    RetryPolicy,
    WorkerPoolSupervisor,
    active_fault_plan,
    classify_failure,
    install_fault_plan,
    retry_seed,
)
from repro.telemetry import Timeline, get_logger
from repro.telemetry import registry as telemetry_registry
from repro.utils.blas import set_blas_threads

#: Executor kinds accepted by :class:`SolveScheduler`.
EXECUTOR_KINDS = ("process", "thread", "inline")

#: Default number of runs per shard of a sharded C-Nash batch.
DEFAULT_SHARD_SIZE = 64

#: Default number of *finished* job records retained for status lookups.
DEFAULT_FINISHED_JOB_LIMIT = 1024

logger = get_logger("repro.service.scheduler")


def _scheduler_metrics() -> Dict[str, Any]:
    """Declare the scheduler's metric families on the current registry.

    Resolved once per scheduler at construction, so a test wrapping
    scheduler creation in :func:`repro.telemetry.temporary_registry`
    observes that scheduler alone.  Label-less entries are resolved to
    their child time series here — ``child.inc()`` skips the per-call
    label-key build, which matters at several increments per job on the
    dispatch loop thread.
    """
    reg = telemetry_registry()

    def counter(name: str, help: str):
        return reg.counter(name, help).labels()

    return {
        "submitted": counter("repro_scheduler_jobs_submitted_total",
                             "Jobs accepted by submit()"),
        "completed": counter("repro_scheduler_jobs_completed_total",
                             "Jobs finished with a computed outcome"),
        "failed": counter("repro_scheduler_jobs_failed_total",
                          "Jobs that raised in a worker or transport"),
        "cancelled": counter("repro_scheduler_jobs_cancelled_total",
                             "Jobs cancelled before execution"),
        "expired": counter("repro_scheduler_jobs_expired_total",
                           "Jobs whose deadline passed before completion"),
        "cache_hits": counter("repro_scheduler_cache_hits_total",
                              "Jobs served from the result cache at submit"),
        "coalesced": counter("repro_scheduler_jobs_coalesced_total",
                             "Duplicate jobs that adopted an in-flight leader"),
        "shards_executed": counter("repro_scheduler_shards_executed_total",
                                   "Jobs and shards run by workers"),
        "batches_dispatched": counter("repro_scheduler_batches_dispatched_total",
                                      "Coalesced batches shipped to workers"),
        "batched_jobs": counter("repro_scheduler_batched_jobs_total",
                                "Jobs that rode a coalesced batch dispatch"),
        "shm_games_shared": counter("repro_scheduler_shm_games_shared_total",
                                    "Dense games moved via shared memory"),
        "quarantined": counter("repro_resilience_quarantined_total",
                               "Jobs quarantined as poison pills after repeated worker deaths"),
        # Kept as the family: incremented with a fault_class label.
        "retries": reg.counter("repro_resilience_retries_total",
                               "Retry attempts scheduled, by fault class"),
        "queue_depth": reg.gauge("repro_scheduler_queue_depth",
                                 "Jobs waiting in the priority queue").labels(),
        "inflight": reg.gauge("repro_scheduler_jobs_inflight",
                              "Jobs currently in the running state").labels(),
        # Kept as the family: observed with policy/status labels.
        "latency": reg.histogram(
            "repro_scheduler_job_latency_seconds",
            "Submit-to-terminal latency per job, by policy and status"),
        "batch_jobs": reg.histogram(
            "repro_scheduler_batch_jobs",
            "Jobs per coalesced batch dispatch",
            boundaries=(1, 2, 4, 8, 16, 32, 64, 128)).labels(),
        "batch_linger": reg.histogram(
            "repro_scheduler_batch_linger_seconds",
            "Time a batch leader lingered for companions",
            boundaries=(0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                        0.025, 0.05, 0.1, 0.25)).labels(),
    }


#: The process executor's refusals of a replaced built-in backend.
_PROCESS_REFUSALS = {
    "cnash": (
        "a replaced 'cnash' backend cannot be served by the process "
        "executor: worker processes may resolve the name to the "
        "built-in solver instead; use executor='thread' or 'inline'"
    ),
    "portfolio": (
        "a custom (non-chain) 'portfolio' backend cannot be served "
        "by the process executor: worker processes may resolve the "
        "name to the built-in portfolio chain instead; use "
        "executor='thread' or 'inline'"
    ),
}


def _make_executor(kind: str, max_workers: Optional[int]) -> Optional[Executor]:
    """The worker pool for ``kind``; ``None`` runs each call inline."""
    if kind == "process":
        # The pool spreads jobs over the cores, so each worker runs its
        # matrix products on one BLAS thread instead of one per CPU.
        # Thread and inline executors share the caller's process, whose
        # BLAS setting is not theirs to change.
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=set_blas_threads, initargs=(1,)
        )
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=max_workers)
    return None  # "inline" (SolveScheduler validated the kind)


def _checked_outcome(result: Dict[str, Any], request: SolveRequest) -> SolveOutcome:
    """Decode a worker-built outcome, which must answer ``request``.

    Integrity gate: a mismatched fingerprint means the payload was
    corrupted in flight, an infrastructure fault.
    """
    outcome = SolveOutcome.from_dict(result)
    if outcome.fingerprint != request.fingerprint():
        raise RuntimeError(
            "corrupt result payload: worker outcome fingerprint "
            f"{outcome.fingerprint[:12]}... does not match the request"
        )
    return outcome


class SolveScheduler:
    """Priority job queue + sharded worker-pool execution + result cache.

    Parameters
    ----------
    max_workers:
        Worker-pool size (``None`` = the executor's default).  Also the
        number of batches in flight at once (4 when ``None``); the
        shards of one C-Nash job already fan out across the pool.
    shard_size:
        Runs per shard for ``"cnash"`` batches.  Part of the *result
        contract*: the shard plan (and therefore every derived shard
        seed) depends only on the request and this value, never on
        ``max_workers``.
    cache:
        Result cache; ``None`` builds a default in-memory LRU.  Pass a
        cache with a ``directory`` for the persistent tier.
    executor:
        ``"process"`` (default — true parallelism across cores),
        ``"thread"`` (cheap startup; fine for small jobs and tests) or
        ``"inline"`` (synchronous, single-threaded debugging).
    finished_job_limit:
        How many terminal job records to keep for ``status`` lookups.
        Oldest finished records (and their events) are evicted beyond
        this bound so a long-running server does not grow without
        limit; clients that hold a :class:`JobRecord` reference keep it
        regardless.
    max_batch_jobs:
        Ceiling on compatible queued jobs coalesced into one worker
        dispatch (see :mod:`repro.service.batching`).  ``1`` dispatches
        every job as a batch of one.  Coalesced results are
        bit-identical to batches of one — same shard seeds, same cache
        keys — so this is purely a throughput knob.
    max_batch_linger_ms:
        How long (milliseconds) a dispatcher holding a batchable job
        may wait for more compatible arrivals before dispatching a
        partial batch.  The default ``0`` coalesces opportunistically —
        only jobs *already queued* join, adding no latency; raise it on
        throughput-bound sweeps where a fuller batch is worth a bounded
        wait.
    retry_policy:
        Per-fault-class retry rules
        (:class:`~repro.service.resilience.RetryPolicy`).  The default
        retries infrastructure faults (worker deaths, transient errors)
        once with bit-identical seeds and leaves solver-miss escalation
        off; ``RetryPolicy.disabled()`` turns all retrying off.
    max_queue_depth:
        Admission-control bound on the dispatch queue.  ``None`` (the
        default) keeps the queue unbounded; with a bound set, submits
        past capacity are shed with a typed
        :class:`~repro.service.resilience.Overloaded` (background
        priorities are shed earlier than interactive ones).
    worker_timeout_s:
        Heartbeat deadline for a single worker-pool call.  ``None``
        (the default) never times a worker out; with a deadline set, a
        hung worker is detected, the pool is rebuilt, and the affected
        jobs retry under the ``worker_death`` rules.
    breaker_threshold / breaker_cooldown_s:
        Per-backend circuit breaker tuning: consecutive infrastructure
        failures before a backend's breaker opens, and how long it stays
        open before admitting a half-open probe.
    fault_plan:
        Optional :class:`~repro.service.resilience.FaultPlan` injected
        into every worker dispatch (chaos testing only).

    Use as an async context manager::

        async with SolveScheduler(max_workers=4) as scheduler:
            record = await scheduler.submit(request)
            outcome = await scheduler.wait(record.job_id)
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        cache: Optional[ResultCache] = None,
        executor: str = "process",
        finished_job_limit: int = DEFAULT_FINISHED_JOB_LIMIT,
        max_batch_jobs: int = DEFAULT_MAX_BATCH_JOBS,
        max_batch_linger_ms: float = DEFAULT_MAX_BATCH_LINGER_MS,
        retry_policy: Optional[RetryPolicy] = None,
        max_queue_depth: Optional[int] = None,
        worker_timeout_s: Optional[float] = None,
        breaker_threshold: int = 8,
        breaker_cooldown_s: float = 30.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise ValueError(f"worker_timeout_s must be positive, got {worker_timeout_s}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if max_batch_jobs < 1:
            raise ValueError(f"max_batch_jobs must be >= 1, got {max_batch_jobs}")
        if max_batch_linger_ms < 0:
            raise ValueError(
                f"max_batch_linger_ms must be >= 0, got {max_batch_linger_ms}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if finished_job_limit < 1:
            raise ValueError(f"finished_job_limit must be >= 1, got {finished_job_limit}")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}")
        self.max_workers = max_workers
        self.shard_size = shard_size
        self.max_batch_jobs = max_batch_jobs
        self.max_batch_linger_ms = max_batch_linger_ms
        self.cache = cache if cache is not None else ResultCache()
        self.executor_kind = executor
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.worker_timeout_s = worker_timeout_s
        self.fault_plan = fault_plan
        self._admission = AdmissionController(max_queue_depth=max_queue_depth)
        self._breakers = BreakerBoard(
            failure_threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self._supervisor: Optional[WorkerPoolSupervisor] = None
        self._retry_tasks: set = set()
        # Created in start(): asyncio.Queue binds the running loop on
        # construction on older Pythons, and start() runs on the loop
        # that will serve the queue (__init__ may run on another thread).
        self._queue: Optional["asyncio.PriorityQueue"] = None
        self._sequence = itertools.count()
        self._jobs: Dict[str, JobRecord] = {}
        self._events: Dict[str, asyncio.Event] = {}
        self._inflight: Dict[str, JobRecord] = {}
        self._batch_keys: Dict[str, Optional[str]] = {}
        self._followers: set = set()
        self.finished_job_limit = finished_job_limit
        self._finished_order: Deque[str] = deque()
        self._dispatchers: List[asyncio.Task] = []
        self._started = False
        self._closed = False
        self._registry = telemetry_registry()
        self._metrics = _scheduler_metrics()
        # (policy, status) -> latency histogram child, so the per-job
        # observation skips the label-key build on the dispatch thread.
        self._latency_children: Dict[Tuple[str, str], Any] = {}
        self._running_jobs = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SolveScheduler":
        """Create the worker pool and the dispatch tasks."""
        if self._started:
            return self
        self._supervisor = WorkerPoolSupervisor(
            lambda: _make_executor(self.executor_kind, self.max_workers)
        )
        if self.fault_plan is not None:
            # Thread/inline workers share this process's globals; process
            # workers additionally get the plan on every payload.
            install_fault_plan(self.fault_plan)
        self._queue = asyncio.PriorityQueue()
        self._dispatchers = [
            asyncio.get_running_loop().create_task(self._dispatch_loop())
            for _ in range(self.max_workers or 4)
        ]
        # Live-state gauges are computed at scrape time; with several
        # schedulers on one registry the most recently started wins.
        self._metrics["queue_depth"].set_function(
            lambda: self._queue.qsize() if self._queue is not None else 0
        )
        self._metrics["inflight"].set_function(lambda: self._running_jobs)
        self._started = True
        return self

    async def close(self) -> None:
        """Stop dispatching and shut the worker pool down."""
        if self._closed:
            return
        self._closed = True
        pending = list(self._dispatchers) + list(self._followers) + list(self._retry_tasks)
        for task in pending:
            task.cancel()
        for task in pending:
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._supervisor is not None:
            self._supervisor.shutdown(wait=False)
        if self.fault_plan is not None and active_fault_plan() is self.fault_plan:
            install_fault_plan(None)
        self._metrics["queue_depth"].set_function(None)
        self._metrics["inflight"].set_function(None)
        # Anything still queued will never run.  (Snapshot: _finish may
        # evict old records from the job table as it marks these.)
        for record in list(self._jobs.values()):
            if not record.done:
                self._finish(record, JobStatus.CANCELLED, error="scheduler closed")

    async def __aenter__(self) -> "SolveScheduler":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    async def submit(self, request: SolveRequest, priority: Optional[int] = None) -> JobRecord:
        """Queue a request; returns its job record immediately.

        ``priority`` overrides ``request.priority`` (lower runs first).
        Cache hits resolve synchronously — the returned record is
        already ``done`` with ``cache_hit=True`` and nothing is queued.
        A cacheable request identical to one already queued or running
        is *coalesced* onto the in-flight job instead of computing the
        same work twice; it resolves when the leader does.

        With admission control enabled (``max_queue_depth``), an
        over-capacity submit raises a typed
        :class:`~repro.service.resilience.Overloaded` before any state
        is created; a job whose backend breaker is open raises
        :class:`~repro.service.resilience.CircuitOpen` (after the cache
        and coalescing checks — neither touches the backend).
        """
        if not self._started or self._closed:
            raise RuntimeError("scheduler is not running (use 'async with' or call start())")
        effective_priority = request.priority if priority is None else priority
        self._admission.admit(self._queue.qsize(), priority=effective_priority)
        record = JobRecord(request=request)
        self._jobs[record.job_id] = record
        self._events[record.job_id] = asyncio.Event()
        self._count("submitted")

        if request.cacheable:
            key = self._cache_key(request)
            cached = await self._cache_get(key)
            if cached is not None:
                record.cache_hit = True
                record.outcome = SolveOutcome.from_dict(cached)
                self._count("cache_hits")
                self._finish(record, JobStatus.DONE)
                return record
            leader = self._inflight.get(key)
            if leader is not None and not leader.done:
                self._count("coalesced")
                follower = asyncio.get_running_loop().create_task(
                    self._follow(
                        leader, self._events[leader.job_id], record, effective_priority
                    )
                )
                self._followers.add(follower)
                follower.add_done_callback(self._followers.discard)
                return record
            self._admit_backend(record)
            self._inflight[key] = record
        else:
            self._admit_backend(record)

        await self._queue.put((effective_priority, next(self._sequence), record.job_id))
        return record

    def _admit_backend(self, record: JobRecord) -> None:
        """Gate a job on its backend's circuit breaker before it queues.

        Runs after the cache/coalescing checks — a cache hit touches no
        backend, so an open breaker must not reject it.  A rejected job
        is finished ``FAILED`` (so its record and completion event stay
        consistent) before the :class:`CircuitOpen` propagates to the
        submitter.
        """
        try:
            self._breakers.admit(record.request.policy)
        except CircuitOpen as exc:
            self._finish(record, JobStatus.FAILED, error=str(exc))
            raise

    async def _follow(
        self,
        leader: JobRecord,
        leader_event: asyncio.Event,
        record: JobRecord,
        priority: int,
    ) -> None:
        """Resolve a coalesced duplicate when its in-flight leader finishes.

        The follower's own deadline keeps ticking while it waits.  If
        the leader fails (or is cancelled/expired) the follower does not
        inherit the failure: it retries through the cache, follows a new
        in-flight leader if one appeared, or becomes the leader itself —
        so a burst of duplicates behind a failed leader still computes
        the work at most once at a time.
        """
        while True:
            remaining = record.deadline_remaining()
            try:
                if remaining is None:
                    await leader_event.wait()
                else:
                    await asyncio.wait_for(leader_event.wait(), remaining)
            except asyncio.TimeoutError:
                if not record.done:
                    self._finish(
                        record, JobStatus.EXPIRED, error="deadline expired while coalesced"
                    )
                return
            if record.done:  # cancelled while following
                return
            if leader.status == JobStatus.DONE and leader.outcome is not None:
                record.outcome = leader.outcome
                record.cache_hit = True
                self._finish(record, JobStatus.DONE)
                return
            # Leader failed/cancelled/expired: re-enter the coalescing path.
            key = self._cache_key(record.request)
            cached = await self._cache_get(key)
            if record.done:  # cancelled during the cache lookup
                return
            if cached is not None:
                record.cache_hit = True
                record.outcome = SolveOutcome.from_dict(cached)
                self._count("cache_hits")
                self._finish(record, JobStatus.DONE)
                return
            new_leader = self._inflight.get(key)
            if new_leader is not None and not new_leader.done:
                leader = new_leader
                leader_event = self._events[new_leader.job_id]
                continue
            self._inflight[key] = record
            await self._queue.put((priority, next(self._sequence), record.job_id))
            return

    async def solve(self, request: SolveRequest, priority: Optional[int] = None) -> SolveOutcome:
        """Submit and wait; raises on failure/cancellation/expiry."""
        record = await self.submit(request, priority=priority)
        return await self.wait(record.job_id)

    async def wait(self, job_id: str) -> SolveOutcome:
        """Wait for a job to reach a terminal state; return its outcome."""
        record = self.job(job_id)
        await self._events[job_id].wait()
        if record.status == JobStatus.DONE and record.outcome is not None:
            return record.outcome
        raise RuntimeError(f"job {job_id} {record.status}: {record.error or 'no outcome'}")

    def job(self, job_id: str) -> JobRecord:
        """Look up a job record (raises ``KeyError`` for unknown ids).

        Finished records are retained up to ``finished_job_limit`` and
        then evicted, so a very late lookup of an old job can miss.
        """
        if job_id not in self._jobs:
            raise KeyError(
                f"unknown job id {job_id!r} (finished jobs are retained up to "
                f"finished_job_limit={self.finished_job_limit}, then evicted)"
            )
        return self._jobs[job_id]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started yet.

        Returns ``True`` when the job was cancelled; ``False`` when it
        is already running or finished (running jobs are not killed —
        worker processes complete their shards, but the result is
        discarded only in the sense that the job already resolved).
        """
        record = self.job(job_id)
        if record.status != JobStatus.PENDING:
            return False
        self._finish(record, JobStatus.CANCELLED, error="cancelled by client")
        return True

    def _count(self, key: str, amount: int = 1) -> None:
        """Increment one of the scheduler's registry counters."""
        self._metrics[key].inc(amount)

    def telemetry(self) -> Dict[str, Any]:
        """Snapshot of the telemetry registry this scheduler reports to.

        Every scheduler, cache and resilience count is a
        ``repro_<subsystem>_<metric>`` family here, next to the latency
        and batch-size histograms and live gauges — aggregated
        process-wide, worker-process deltas included.
        """
        return self._registry.snapshot()

    # ------------------------------------------------------------------
    # Dispatch: every job runs in a batch, settled in one place
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            record = self._take(await self._queue.get())
            if record is None:
                continue
            record.timeline.cut("queue")
            batch = [record]
            if self.max_batch_jobs > 1 and self._batch_key_for(record) is not None:
                batch = await self._drain_batch(record)
            if batch:  # empty when the leader was cancelled while lingering
                await self._dispatch(batch)

    def _take(self, item: tuple) -> Optional[JobRecord]:
        """The live job behind a popped queue item, or ``None``.

        A job cancelled while queued (and possibly already evicted from
        the bounded job table) is skipped; one whose deadline passed in
        the queue is expired here.
        """
        record = self._jobs.get(item[2])
        if record is None or record.done:
            return None
        remaining = record.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self._finish(record, JobStatus.EXPIRED, error="deadline expired in queue")
            return None
        return record

    def _batch_key_for(self, record: JobRecord) -> Optional[str]:
        """The record's coalescing key (memoised; ``None`` = never batched)."""
        if record.no_batch:
            # Worker-death retries and escalated attempts dispatch as
            # batches of one: a repeat crash must uniquely identify the
            # poison job, and escalated requests differ from the
            # record's own request.
            return None
        job_id = record.job_id
        if job_id not in self._batch_keys:
            self._batch_keys[job_id] = compute_batch_key(record.request, self.shard_size)
        return self._batch_keys[job_id]

    async def _drain_batch(self, leader: JobRecord) -> List[JobRecord]:
        """Coalesce queued jobs compatible with ``leader`` into one batch.

        Opportunistically drains the queue for jobs sharing the leader's
        batch key; incompatible jobs are re-queued with their original
        (priority, sequence) so their heap position is unchanged.  With
        ``max_batch_linger_ms > 0`` a partial batch then waits (bounded)
        for more compatible arrivals — incompatible jobs that arrive
        during the linger are held and re-queued when it ends, so the
        linger trades *everyone's* latency for batch fullness; that is
        why it defaults to off.  Cancelled jobs are dropped and expired
        deadlines are honoured exactly as the leader's pop does.
        """
        key = self._batch_key_for(leader)
        batch = [leader]
        requeue: List[tuple] = []
        while len(batch) < self.max_batch_jobs:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._consider_queue_item(item, key, batch, requeue)
        if self.max_batch_linger_ms > 0 and len(batch) < self.max_batch_jobs:
            loop = asyncio.get_running_loop()
            linger_start = loop.time()
            deadline = linger_start + self.max_batch_linger_ms / 1000.0
            while len(batch) < self.max_batch_jobs:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                self._consider_queue_item(item, key, batch, requeue)
            self._metrics["batch_linger"].observe(loop.time() - linger_start)
        for item in requeue:
            self._queue.put_nowait(item)
        # Drop members cancelled while the batch was forming.
        return [record for record in batch if not record.done]

    def _consider_queue_item(
        self,
        item: tuple,
        key: str,
        batch: List[JobRecord],
        requeue: List[tuple],
    ) -> None:
        """Route one popped queue item: join the batch, re-queue, or drop."""
        record = self._take(item)
        if record is None:
            return
        if self._batch_key_for(record) == key:
            record.timeline.cut("queue")
            batch.append(record)
        else:
            requeue.append(item)

    async def _dispatch(self, batch: List[JobRecord]) -> None:
        """Run one batch on the worker pool and settle every member.

        The worker calls are awaited until the latest deadline of the
        members, or without limit if any member has none; by then every
        member has expired, and cancelling the calls drops those that
        have not started.  A transport-level failure (a worker call
        itself raises) is one backend failure that fails every live
        member, unless the retry policy absorbs it (worker deaths
        re-enqueue each member alone with bit-identical seeds).
        Otherwise each member settles alone: deadline, fault class and
        retry policy, relabel of an escalated attempt, solver-miss
        escalation, breaker — then one cache write for the batch, and
        only after it the completions.
        """
        if len(batch) > 1:
            self._count("batches_dispatched")
            self._count("batched_jobs", len(batch))
            self._metrics["batch_jobs"].observe(len(batch))
        batch_id = uuid.uuid4().hex[:12]
        for record in batch:
            record.status = JobStatus.RUNNING
            record.started_at = time.time()
            self._running_jobs += 1
            record.timeline.cut("coalesce", batch_jobs=len(batch))
        requests = [self._effective_request(record) for record in batch]
        remaining = [record.deadline_remaining() for record in batch]
        timeout = None if None in remaining else max(remaining)
        try:
            results = await asyncio.wait_for(
                self._solve(requests, batch_id, [record.timeline for record in batch]),
                timeout,
            )
        except asyncio.TimeoutError:
            for record in batch:
                if not record.done:
                    self._finish(
                        record, JobStatus.EXPIRED, error="deadline expired while running"
                    )
            return
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - transport-level failure
            error = f"{type(exc).__name__}: {exc}"
            fault_class = classify_failure(exc)
            logger.error(
                "batch dispatch failed at the transport level",
                extra={
                    "batch_id": batch_id, "jobs": len(batch), "err": error,
                    "fault_class": fault_class,
                },
            )
            # One transport event is one backend failure, not one per
            # member (the batch shares a policy by construction).
            if fault_class != PERMANENT:
                self._breakers.on_failure(batch[0].request.policy)
            for record in batch:
                if not record.done and not self._apply_failure_policy(
                    record, fault_class, error,
                    stage="batch transport", batch_id=batch_id, count_breaker=False,
                ):
                    self._finish(record, JobStatus.FAILED, error=error)
            return
        cache_entries: List[tuple] = []
        settled: List[JobRecord] = []
        for record, request, result in zip(batch, requests, results):
            if record.done:
                continue
            # Splice the worker's materialise/kernel/settle spans under
            # this job's run window, then close the window.
            record.timeline.splice(result.get("trace"), record.timeline.cursor_ms())
            record.timeline.cut("run", batch_id=batch_id, worker_span=result.get("span_id"))
            remaining = record.deadline_remaining()
            if remaining is not None and remaining <= 0:
                self._finish(record, JobStatus.EXPIRED, error="deadline expired while running")
                continue
            error = None if result["ok"] else result["error"]
            if error is None:
                try:
                    outcome = _checked_outcome(result["result"], request)
                except Exception as exc:  # noqa: BLE001 - job isolation boundary
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                fault_class = result.get("fault_class") or classify_failure(RuntimeError(error))
                if not self._apply_failure_policy(
                    record, fault_class, error, stage="batch member", batch_id=batch_id
                ):
                    self._log_job_failure(
                        record, error, stage="batch member", batch_id=batch_id
                    )
                    self._finish(record, JobStatus.FAILED, error=error)
                continue
            # The worker's dict is exactly outcome.to_dict(); cache it
            # rather than re-serialising, unless the outcome is relabelled.
            wire = result["result"]
            if request is not record.request:
                # An escalated attempt answers the request the client
                # asked; ``backend`` keeps naming the solver that did.
                outcome.fingerprint = record.request.fingerprint()
                outcome.policy = record.request.policy
                wire = outcome.to_dict()
            if self._maybe_escalate_solver_miss(record, outcome):
                continue
            self._breakers.on_success(record.request.policy)
            record.outcome = outcome
            if record.request.cacheable:
                cache_entries.append((self._cache_key(record.request), wire))
            settled.append(record)
        # One cache hop for the whole batch, written before any member's
        # completion event fires.
        await self._cache_put_many(cache_entries)
        for record in settled:
            self._finish(record, JobStatus.DONE)

    async def _solve(
        self,
        requests: List[SolveRequest],
        batch_id: str,
        timelines: Sequence[Timeline] = (),
    ) -> List[Dict[str, Any]]:
        """The worker calls of one batch: one result entry per request.

        Entries take the worker's form (see
        :func:`~repro.service.batching.execute_job_batch_payload`):
        ``{"ok": True, "result": <outcome dict>}`` or
        ``{"ok": False, "error": str}``.  Single-shard and generic jobs
        are one ``execute_job_batch_payload`` call.  A lone built-in
        C-Nash job of more than ``shard_size`` runs fans out one call
        per shard, and a lone chain portfolio solves its members in
        order.
        """
        if len(requests) == 1 and requests[0].policy in ("cnash", "portfolio"):
            request = requests[0]
            order = portfolio_order() if request.policy == "portfolio" else None
            if order is not None:
                return [await self._run_portfolio(request, order, batch_id)]
            builtin = request.policy == "cnash" and cnash_is_builtin()
            if builtin and request.num_runs > self.shard_size:
                return [await self._run_shards(request)]
            if not builtin and self.executor_kind == "process":
                # A replaced built-in runs through the registry, which a
                # worker process may resolve to the built-in instead.
                raise RuntimeError(_PROCESS_REFUSALS[request.policy])
        return await self._run_job_batch(requests, batch_id, timelines)

    async def _run_job_batch(
        self,
        requests: List[SolveRequest],
        batch_id: str,
        timelines: Sequence[Timeline],
    ) -> List[Dict[str, Any]]:
        """Single-shard and generic jobs in one ``execute_job_batch_payload`` call.

        On the process executor a dense game of at least
        ``SHM_MIN_CELLS`` cells travels through shared memory (see
        :mod:`repro.service.shm`); the segments are released when the
        call returns or fails.
        """
        builtin_cnash = cnash_is_builtin()
        share_dense = self.executor_kind == "process"
        if share_dense:
            from repro.service.shm import SHM_MIN_CELLS, share_game, shm_available

            share_dense = shm_available()
        jobs: List[Dict[str, Any]] = []
        segments: List[Any] = []
        for request in requests:
            if request.policy == "cnash" and builtin_cnash:
                # One shard, seeded as shard 0 of the standard plan.
                job = {"kind": "cnash_shard", **shard_payloads(request, self.shard_size)[0]}
            else:
                job = {"kind": "generic", "request": request.to_dict()}
            if (
                share_dense
                and isinstance(request.game, BimatrixGame)
                and request.game.payoff_row.size >= SHM_MIN_CELLS
            ):
                try:
                    descriptor, segment = share_game(request.game)
                except OSError:
                    pass  # fall back to the in-payload dense matrices
                else:
                    segments.append(segment)
                    self._count("shm_games_shared")
                    job["request"].pop("game", None)
                    job["game_shm"] = descriptor
            jobs.append(job)
        for timeline in timelines:
            timeline.cut("shm", segments=len(segments))
        try:
            response = await self._run_worker(
                execute_job_batch_payload, {"jobs": jobs, "batch_id": batch_id}
            )
        finally:
            if segments:
                from repro.service.shm import release_segments

                release_segments(segments)
        self._count("shards_executed", len(jobs))
        return response["jobs"]

    async def _run_shards(self, request: SolveRequest) -> Dict[str, Any]:
        """A multi-shard C-Nash job: one call per shard, merged in shard order.

        The shards run concurrently across the pool, so their worker
        traces overlap; none is spliced into the job's timeline.
        """
        payloads = shard_payloads(request, self.shard_size)
        shards = await asyncio.gather(
            *(self._run_worker(solve_shard_payload, payload) for payload in payloads)
        )
        self._count("shards_executed", len(payloads))
        merged = SolverBatchResult.merge([SolverBatchResult.from_dict(shard) for shard in shards])
        outcome = outcome_from_batch(request, merged, backend="cnash", shards=len(payloads))
        return {"ok": True, "result": outcome.to_dict()}

    async def _run_portfolio(
        self, request: SolveRequest, order: Sequence[str], batch_id: str
    ) -> Dict[str, Any]:
        """A chain portfolio: its members in order, first verified answer kept.

        Same selection semantics as the registered
        :class:`~repro.backends.PortfolioBackend` (shared via
        :func:`~repro.service.portfolio.adopt_portfolio_attempt`), but
        each member is solved like a lone job, so the C-Nash fallback is
        *sharded* across the worker pool instead of running its whole
        batch inside one worker.  The member order is data on the
        registered portfolio backend: re-registering it with a different
        order re-routes this path too, with no scheduler change.
        """
        start = time.perf_counter()
        for member in order:
            attempt_request = member_request(request, member)
            (entry,) = await self._solve([attempt_request], batch_id)
            if not entry["ok"]:
                return entry
            attempt = _checked_outcome(entry["result"], attempt_request)
            if adopt_portfolio_attempt(request, attempt):
                break
        attempt.wall_clock_seconds = time.perf_counter() - start
        return {"ok": True, "result": attempt.to_dict()}

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    async def _cache_put_many(self, entries: List[tuple]) -> None:
        """Batched cache store; disk-tier writes run off the loop in one hop."""
        if not entries:
            return
        if self.cache.directory is None:
            self.cache.put_many(entries)
            return
        await asyncio.get_running_loop().run_in_executor(
            None, self.cache.put_many, entries
        )

    async def _cache_get(self, key: str):
        """Cache lookup; disk-tier reads run off the event loop."""
        if self.cache.directory is None:
            return self.cache.get(key)
        return await asyncio.get_running_loop().run_in_executor(None, self.cache.get, key)

    def _cache_key(self, request: SolveRequest) -> str:
        """Cache key for a request under *this* scheduler's shard plan.

        A sharded ``"cnash"`` batch's runs depend on the shard plan (each
        shard's seed derives from its index), so the same request solved
        under a different ``shard_size`` yields a statistically
        equivalent but not bit-identical batch.  Folding the shard size
        into the key keeps the cache's promise — a hit is exactly what
        this configuration would compute — including across schedulers
        sharing a disk tier.  ``"portfolio"`` outcomes may embed a
        sharded C-Nash batch (the fallback member), so they are keyed
        the same way; the exact/S-QUBO policies skip the shard suffix.

        The registry fingerprint is folded into every key because a
        request's fingerprint names backends, not implementations:
        re-registering a backend (or re-ordering the portfolio) must not
        serve outcomes the previous implementation computed.  With only
        the built-ins registered the digest is a deterministic constant,
        so keys stay stable across restarts sharing a disk tier.
        """
        from repro.backends import registry_fingerprint

        fingerprint = request.fingerprint()
        suffix = f":registry={registry_fingerprint()}"
        if request.policy in ("cnash", "portfolio"):
            suffix += f":shard_size={self.shard_size}"
        retry_token = self.retry_policy.fingerprint_token()
        if retry_token is not None:
            # Solver-miss escalation can change which bytes a request
            # returns (fresh seeds, stronger backends), so escalated
            # configurations get their own cache namespace.
            suffix += f":retry={retry_token}"
        return hashlib.sha256(f"{fingerprint}{suffix}".encode("ascii")).hexdigest()

    # ------------------------------------------------------------------
    # Resilience: supervised execution, retry, escalation, quarantine
    # ------------------------------------------------------------------
    async def _run_worker(self, fn: Callable, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One worker-pool call under supervision; returns the worker's result.

        The payload is stamped with this pid, which tells a worker
        whether it runs in a separate process (that decides how injected
        crashes behave and whether it ships its metrics delta home), and
        with the chaos plan, if any.  A worker process's metrics delta
        is folded into the registry and stripped from the result (see
        :func:`~repro.service.portfolio.ship_worker_telemetry`).

        The supervisor converts a broken pool into
        :class:`~repro.service.resilience.WorkerDeath` and a missed
        ``worker_timeout_s`` heartbeat into
        :class:`~repro.service.resilience.WorkerHang` — rebuilding the
        pool in both cases so the retry lands on healthy workers.
        """
        assert self._supervisor is not None
        payload["parent_pid"] = os.getpid()
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        result = await self._supervisor.run(fn, payload, timeout_s=self.worker_timeout_s)
        delta = result.pop("telemetry", None)
        if delta:
            self._registry.merge(delta)
        return result

    def _effective_request(self, record: JobRecord) -> SolveRequest:
        """The request to actually execute for the record's current attempt.

        Attempt 1 — and every *infrastructure-fault* retry — is the
        original request, so retried results are bit-identical to a
        fault-free run.  Solver-miss escalation rungs derive a fresh
        (but reproducible) seed via :func:`retry_seed`; from the second
        rung the policy additionally walks the registry portfolio order
        past the original backend, so a stochastic miss gets both new
        randomness and stronger solvers.
        """
        stage = record.escalation_stage
        if stage <= 0:
            return record.request
        request = record.request
        seed = request.seed if request.seed is None else retry_seed(request.seed, record.attempts)
        policy = request.policy
        if stage >= 2:
            order = portfolio_order() or ()
            ladder = [name for name in order if name != request.policy]
            if ladder:
                policy = ladder[min(stage - 2, len(ladder) - 1)]
        return dataclasses.replace(request, seed=seed, policy=policy)

    def _apply_failure_policy(
        self,
        record: JobRecord,
        fault_class: str,
        error_text: str,
        stage: str,
        batch_id: Optional[str] = None,
        count_breaker: bool = True,
    ) -> bool:
        """Route one classified failure: quarantine, retry, or decline.

        Returns ``True`` when the failure was fully handled here (a
        retry was scheduled or the job was quarantined); the caller must
        not mark the job ``FAILED`` in that case.  Permanent job errors
        never touch the breaker — a bad spec says nothing about backend
        health.
        """
        policy = record.request.policy
        if count_breaker and fault_class in (WORKER_DEATH, TRANSIENT):
            self._breakers.on_failure(policy)
        if fault_class == WORKER_DEATH:
            record.worker_deaths += 1
            if record.worker_deaths >= self.retry_policy.quarantine_after:
                self._log_job_failure(
                    record, error_text, stage=f"{stage} (quarantined)", batch_id=batch_id
                )
                self._finish(
                    record,
                    JobStatus.QUARANTINED,
                    error=(
                        f"quarantined after {record.worker_deaths} worker deaths "
                        f"(poison pill): {error_text}"
                    ),
                )
                return True
        if not self.retry_policy.should_retry(fault_class, record.attempts):
            return False
        # Re-enqueue the job after its deterministic backoff.
        attempt = record.attempts
        delay = self.retry_policy.backoff_s(fault_class, attempt, record.request.fingerprint())
        record.attempts = attempt + 1
        if record.status == JobStatus.RUNNING:
            self._running_jobs -= 1
        record.status = JobStatus.PENDING
        record.started_at = None
        record.error = None
        if fault_class == WORKER_DEATH:
            # Crash retries dispatch as batches of one: if the job kills
            # its worker again, it is uniquely identified as the poison
            # pill instead of dragging batch companions toward quarantine.
            record.no_batch = True
        elif fault_class == SOLVER_MISS:
            record.escalation_stage += 1
            record.no_batch = True  # escalated attempts differ from the batch key
        self._batch_keys.pop(record.job_id, None)
        record.timeline.cut(
            "retry", fault_class=fault_class, attempt=attempt,
            backoff_ms=round(delay * 1000.0, 3),
        )
        self._metrics["retries"].labels(fault_class=fault_class).inc()
        logger.warning(
            "retrying job after %s failure", fault_class,
            extra={
                "job": record.request.fingerprint(),
                "job_id": record.job_id,
                "batch_id": batch_id,
                "stage": stage,
                "attempt": attempt,
                "next_attempt": record.attempts,
                "backoff_s": delay,
                "escalation_stage": record.escalation_stage,
                "err": error_text,
            },
        )
        task = asyncio.get_running_loop().create_task(self._requeue_after(record, delay))
        self._retry_tasks.add(task)
        task.add_done_callback(self._retry_tasks.discard)
        return True

    async def _requeue_after(self, record: JobRecord, delay: float) -> None:
        """Sleep out the backoff, then put the job back on the queue."""
        if delay > 0:
            await asyncio.sleep(delay)
        if record.done or self._closed:
            return
        await self._queue.put(
            (record.request.priority, next(self._sequence), record.job_id)
        )

    def _maybe_escalate_solver_miss(self, record: JobRecord, outcome: SolveOutcome) -> bool:
        """Escalate a completed-but-unverified solve when policy allows.

        C-Nash is a stochastic annealer with per-run success rate below
        one; when escalation is enabled (it is off by default — it can
        change which bytes a request returns) an outcome with no
        verified ε-equilibrium re-runs with a fresh derived seed and,
        past the first rung, through the registry portfolio order.
        ``"exact"`` is deterministic and ``"portfolio"`` escalates
        internally, so neither re-enters here.
        """
        if not self.retry_policy.escalation_enabled():
            return False
        request = record.request
        if request.policy in ("exact", "portfolio"):
            return False
        if has_verified_equilibrium(request, outcome):
            return False
        return self._apply_failure_policy(
            record, SOLVER_MISS,
            "no verified equilibrium (solver miss)", stage="verification",
        )

    def _log_job_failure(
        self,
        record: JobRecord,
        error: Any,
        stage: str,
        batch_id: Optional[str] = None,
    ) -> None:
        """Correlated failure log: job fingerprint + span id + stage."""
        logger.warning(
            "job failed in %s", stage,
            extra={
                "job": record.request.fingerprint(),
                "job_id": record.job_id,
                "batch_id": batch_id,
                "span_id": record.timeline.span_id,
                "policy": record.request.policy,
                "err": str(error),
            },
        )

    def _finish(self, record: JobRecord, status: str, error: Optional[str] = None) -> None:
        """Mark a job terminal, count it, and wake its waiters."""
        if record.status == JobStatus.RUNNING:
            self._running_jobs -= 1
        record.status = status
        record.error = error
        record.finished_at = time.time()
        latency_key = (record.request.policy, status)
        latency = self._latency_children.get(latency_key)
        if latency is None:
            latency = self._latency_children[latency_key] = self._metrics[
                "latency"
            ].labels(policy=record.request.policy, status=status)
        latency.observe(record.elapsed())
        if status != JobStatus.DONE:
            # The failed/cancelled/expired/quarantined counters are keyed
            # by the status they count.
            self._count(status)
        elif not record.cache_hit:
            self._count("completed")
            # Attempt count is execution metadata (like the trace): it is
            # stamped after cache writes, so cached bytes stay identical
            # whether or not the computing run needed retries.
            record.outcome.attempts = record.attempts
            # Close the timeline so the contiguous top-level phases span
            # submit-to-finish exactly, then publish it on the outcome.
            # Cache hits and coalesced followers are skipped: their
            # outcome object is shared (the leader's) or deserialised
            # from a cache entry that carries no trace.
            record.timeline.cut("settle", status=status)
            record.outcome.trace = record.timeline.to_wire()
        # Spec-backed requests may have materialised their dense game in
        # this process (outcome merging, verification); the record stays
        # in the retained job table, so drop the matrices now — a cold
        # thousand-game sweep must never pin every dense game at once.
        record.request.release_materialization()
        self._batch_keys.pop(record.job_id, None)
        if record.request.cacheable:
            key = self._cache_key(record.request)
            if self._inflight.get(key) is record:
                del self._inflight[key]
        event = self._events.get(record.job_id)
        if event is not None:
            event.set()
        # Bound the job table: evict the oldest finished records beyond
        # the limit so a long-running server's memory stays flat.
        self._finished_order.append(record.job_id)
        while len(self._finished_order) > self.finished_job_limit:
            evicted = self._finished_order.popleft()
            self._jobs.pop(evicted, None)
            self._events.pop(evicted, None)

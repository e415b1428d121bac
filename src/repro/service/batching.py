"""Batch-coalescing dispatch: many compatible jobs, one worker round-trip.

PR 4's fused kernel proposes ~700k moves/sec on 64x64 games, yet the
serving layer moved ~70 jobs/sec: at sweep-sized run budgets (a couple
of chains per job) every job paid its own executor round-trip, payload
serialisation, RNG/temperature setup and — worst — a full fused-kernel
launch whose per-iteration Python overhead dwarfs the arithmetic at
``B=2`` chains.  This module closes that gap:

* :func:`compute_batch_key` decides which queued jobs may share one
  dispatch (same backend policy; for built-in C-Nash additionally the
  same solver config + epsilon, so fused groups are config-uniform);
* :func:`execute_job_batch_payload` is the worker-pool entry point for
  every batch of single-shard and generic jobs, a lone job being a
  batch of one: it materialises each job's game (through the
  process-wide :mod:`repro.games.matcache` LRU for specs), groups
  same-shape eligible C-Nash shards into **one** multi-game fused
  kernel launch (:func:`repro.core.solver.solve_shards_fused`), runs
  the rest one by one, and returns per-job results with per-job error
  isolation — one failing job marks only itself failed.

The scheduler dispatches every job through this path except a built-in
C-Nash job of more than ``shard_size`` runs, which fans out one
:func:`~repro.service.portfolio.solve_shard_payload` call per shard.

Bit-identity contract: a job's result is byte-identical whether it rides
a coalesced batch or a batch of one.  C-Nash jobs enter a batch only
when they fit a single shard (``num_runs <= shard_size``), keep their
exact shard seed (derived by :func:`~repro.service.portfolio.shard_payloads`
as always), and the fused multi-launch replays each shard's solo RNG
stream (see :class:`repro.annealing.vectorized.MultiFusedBatchProblem`).
Batching is therefore purely a throughput knob.
"""

from __future__ import annotations

import hashlib
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from repro.core.result import SolverBatchResult
from repro.core.solver import fused_shards_supported, solve_shards_fused
from repro.games.bimatrix import BimatrixGame
from repro.games.matcache import global_materialization_cache
from repro.service.jobs import SolveRequest
from repro.service.portfolio import (
    cnash_is_builtin,
    effective_config,
    execute_request,
    in_worker_process,
    outcome_from_batch,
    ship_worker_telemetry,
    solve_cnash,
)
from repro.service.resilience.faults import (
    InjectedFault,
    WorkerCrash,
    fault_point,
    installed_fault_plan,
)
from repro.telemetry import Timeline, get_logger
from repro.utils.serialization import canonical_json

logger = get_logger("repro.service.batching")

#: Default ceiling on jobs drained into one dispatch batch.
DEFAULT_MAX_BATCH_JOBS = 16

#: Default linger budget (milliseconds) a leader waits for companions.
#: Zero keeps dispatch opportunistic — only *already queued* jobs are
#: coalesced, adding no latency; raise it on throughput-bound sweeps.
DEFAULT_MAX_BATCH_LINGER_MS = 0.0


def compute_batch_key(request: SolveRequest, shard_size: int) -> Optional[str]:
    """The coalescing key of a request, or ``None`` when never batched.

    Jobs sharing a key may ride one worker dispatch; a job without one
    dispatches as a batch of one:

    * built-in ``"cnash"`` requests that fit a single shard share a key
      per (config, epsilon) — the uniformity the worker's fused
      multi-game launch requires.  A multi-shard job fans out one call
      per shard across the pool instead, and a *substituted*
      ``"cnash"`` backend stays alone (the scheduler's executor-kind
      guard must see it individually);
    * ``"portfolio"`` never batches — the scheduler routes its members
      itself with early-exit semantics;
    * every other policy batches per policy name, which amortises the
      executor round-trip even though execution stays per-job.
    """
    if request.policy == "portfolio":
        return None
    if request.policy == "cnash":
        if not cnash_is_builtin() or request.num_runs > shard_size:
            return None
        payload = canonical_json(
            {
                "config": request.config.to_dict(),
                "epsilon": None if request.epsilon is None else float(request.epsilon),
            }
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return f"cnash:{digest}"
    return f"generic:{request.policy}"


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def _job_request(job: Dict[str, Any]) -> SolveRequest:
    """Rebuild a job's request, resolving an out-of-band shared game."""
    descriptor = job.get("game_shm")
    if descriptor is not None:
        from repro.service.shm import read_shared_game

        return SolveRequest.from_dict(job["request"], game=read_shared_game(descriptor))
    return SolveRequest.from_dict(job["request"])


def _error_entry(exc: BaseException) -> Dict[str, Any]:
    """Per-job failure entry, formatted like a transport-level failure."""
    entry: Dict[str, Any] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, InjectedFault):
        # A live class hint survives the wire; the parent's marker-based
        # fallback classification would reach the same verdict.
        entry["fault_class"] = "transient"
    return entry


def _maybe_corrupt(result: Dict[str, Any], request: SolveRequest,
                   in_subprocess: bool) -> None:
    """Chaos hook: the ``settle``-point ``corrupt`` action mangles the
    outcome fingerprint, which the parent's integrity gate rejects."""
    action = fault_point("settle", key=request.fingerprint(),
                         in_subprocess=in_subprocess)
    if action == "corrupt":
        result["fingerprint"] = "0" * 64


def _shard_outcome(request: SolveRequest, batch: SolverBatchResult) -> Dict[str, Any]:
    """The finished outcome of a single-shard C-Nash job, worker-side.

    Exactly the parent's settle of a multi-shard job — ``merge`` then
    :func:`outcome_from_batch` — for one shard, run where the
    materialised game already lives, so the parent never rebuilds spec
    games or re-validates run profiles just to deduplicate equilibria.
    """
    merged = SolverBatchResult.merge([batch])
    return outcome_from_batch(request, merged, backend="cnash", shards=1).to_dict()


def execute_job_batch_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-pool entry point for one coalesced job batch.

    ``payload["jobs"]`` holds one entry per job, in dispatch order:
    ``{"kind": "cnash_shard", "request": <dict>, "shard_runs": n,
    "shard_seed": s}`` or ``{"kind": "generic", "request": <dict>}``,
    optionally with ``"game_shm"`` (see :mod:`repro.service.shm`).
    Returns ``{"jobs": [...]}`` aligned with the input: each entry is
    ``{"ok": True, "kind": ..., "result": <outcome dict>}`` or
    ``{"ok": False, "error": str}``.  C-Nash jobs are settled to full
    outcomes *in the worker* (see :func:`_shard_outcome`) so the parent
    only deserialises.  Failures are isolated per job; a fused group
    that fails as a whole (it is one kernel launch) fails only its own
    members.

    Telemetry: each job entry additionally carries a ``"trace"`` phase
    list (materialise / kernel / settle spans relative to the worker's
    batch-handling start — the parent splices them into the job's
    timeline), and a worker *process* attaches its metrics delta under
    ``"telemetry"`` (:func:`~repro.service.portfolio.ship_worker_telemetry`).

    Chaos: when the payload ships a ``"fault_plan"`` (see
    :mod:`repro.service.resilience.faults`) it is installed for the
    duration of the call and the named injection points fire —
    ``worker_entry`` before any work, ``materialize`` per job,
    ``kernel`` before each solve, ``settle`` after each result (the
    ``corrupt`` action mangles the outcome fingerprint).  ``crash``
    actions hard-exit real worker processes and raise
    :class:`WorkerCrash` on thread/inline executors, which deliberately
    escapes the per-job isolation boundaries below — a dying worker
    takes its whole batch, exactly like a real crash.
    """
    with installed_fault_plan(payload.get("fault_plan")):
        return _execute_job_batch(payload)


def _execute_job_batch(payload: Dict[str, Any]) -> Dict[str, Any]:
    jobs = payload["jobs"]
    results: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    batch_id = payload.get("batch_id")
    in_subprocess = in_worker_process(payload)
    fault_point("worker_entry", key=str(batch_id), in_subprocess=in_subprocess)
    timelines = [Timeline() for _ in jobs]
    matcache = global_materialization_cache()

    def _fail(index: int, exc: BaseException, request: Optional[SolveRequest],
              stage: str) -> None:
        results[index] = _error_entry(exc)
        logger.warning(
            "batch member failed in %s", stage,
            extra={
                "batch_id": batch_id,
                "job_index": index,
                "job": request.fingerprint() if request is not None else None,
                "span_id": timelines[index].span_id,
                "err": f"{type(exc).__name__}: {exc}",
            },
        )

    # Parse + materialise first so a bad spec fails its own job before
    # any solve work starts.  Spec materialisation routes through the
    # process-wide LRU via SolveRequest.resolved_game, so a batch of
    # jobs over one spec builds the dense matrices once.
    ParsedJob = Tuple[int, str, SolveRequest, int, Optional[int], Optional[BimatrixGame]]
    solo: List[ParsedJob] = []
    fusable: Dict[Tuple[int, int], List[ParsedJob]] = {}
    for index, job in enumerate(jobs):
        request = None
        try:
            request = _job_request(job)
            fault_point("materialize", key=request.fingerprint(),
                        in_subprocess=in_subprocess)
            if job["kind"] == "cnash_shard":
                spec = request.game_spec
                cached = spec is not None and matcache.contains(spec)
                with timelines[index].span(
                    "materialize", matcache_hit=cached, spec=spec is not None
                ):
                    game = request.resolved_game
                entry: ParsedJob = (
                    index,
                    "cnash_shard",
                    request,
                    int(job["shard_runs"]),
                    job["shard_seed"],
                    game,
                )
                if fused_shards_supported(effective_config(request), game.shape):
                    fusable.setdefault(game.shape, []).append(entry)
                else:
                    solo.append(entry)
            else:
                solo.append((index, "generic", request, 0, None, None))
        except WorkerCrash:
            raise  # a crashing worker takes the whole batch, not one job
        except Exception as exc:  # noqa: BLE001 - per-job isolation boundary
            _fail(index, exc, request, "materialize")

    # One fused kernel launch per same-shape group of shards (a group of
    # one is the solo launch itself); each shard keeps its own RNG stream
    # inside the launch, so the per-shard batches are bit-identical to
    # solo execution.
    for entries in fusable.values():
        shards = [(game, runs, seed) for _, _, _, runs, seed, game in entries]
        config = effective_config(entries[0][2])
        try:
            for _, _, request, *_ in entries:
                fault_point("kernel", key=request.fingerprint(),
                            in_subprocess=in_subprocess)
            start_ns = perf_counter_ns()
            batches = solve_shards_fused(shards, config)
            end_ns = perf_counter_ns()
            for index, *_ in entries:
                timelines[index].record(
                    "kernel", start_ns, end_ns, depth=0, fused_games=len(entries),
                )
        except WorkerCrash:
            raise  # a crashing worker takes the whole batch, not one job
        except Exception as exc:  # noqa: BLE001 - the launch is one kernel call
            for index, _, request, *_ in entries:
                _fail(index, exc, request, "fused kernel")
            continue
        for (index, _, request, _, _, _), batch in zip(entries, batches):
            try:
                with timelines[index].span("settle"):
                    result = _shard_outcome(request, batch)
                _maybe_corrupt(result, request, in_subprocess)
                results[index] = {
                    "ok": True,
                    "kind": "cnash_outcome",
                    "result": result,
                }
            except WorkerCrash:
                raise  # a crashing worker takes the whole batch, not one job
            except Exception as exc:  # noqa: BLE001 - per-job isolation boundary
                _fail(index, exc, request, "settle")

    # Shards that cannot fuse and generic jobs run one by one.
    for index, kind, request, runs, seed, _ in solo:
        try:
            fault_point("kernel", key=request.fingerprint(),
                        in_subprocess=in_subprocess)
            if kind == "cnash_shard":
                with timelines[index].span("kernel"):
                    batch = solve_cnash(request, num_runs=runs, seed=seed)
                with timelines[index].span("settle"):
                    result = _shard_outcome(request, batch)
                kind = "cnash_outcome"
            else:
                with timelines[index].span("kernel", generic=True):
                    result = execute_request(request).to_dict()
            _maybe_corrupt(result, request, in_subprocess)
            results[index] = {"ok": True, "kind": kind, "result": result}
        except WorkerCrash:
            raise  # a crashing worker takes the whole batch, not one job
        except Exception as exc:  # noqa: BLE001 - per-job isolation boundary
            _fail(index, exc, request, "solve")

    assert all(entry is not None for entry in results)
    for entry, timeline in zip(results, timelines):
        entry["trace"] = timeline.to_wire()
        entry["span_id"] = timeline.span_id
    return ship_worker_telemetry(payload, {"jobs": results})

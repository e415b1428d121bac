"""Service-side backend dispatch over the global backend registry.

Historically this module hard-wired the C-Nash / S-QUBO / exact solvers
behind an ``if/elif`` over policy strings.  It is now a thin bridge
between the service's wire types (:class:`~repro.service.jobs.SolveRequest`
/ :class:`~repro.service.jobs.SolveOutcome`) and the pluggable backend
registry (:mod:`repro.backends`): a request's ``policy`` is simply a
registered backend name, so a backend registered in one line becomes
servable over the scheduler and the TCP transport with no changes here.

Everything in this module is synchronous and picklable-by-payload: the
scheduler ships request dicts into worker processes and gets outcome or
batch dicts back (see :func:`solve_shard_payload` and
:func:`repro.service.batching.execute_job_batch_payload`).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.backends import (
    SolveReport,
    SolveSpec,
    get_backend,
    observe_backend_latency,
    profiles_from_wire,
    profiles_to_wire,
    profiles_verified,
)
from repro.core.result import SolverBatchResult
from repro.core.solver import CNashSolver
from repro.games.equilibrium import EquilibriumSet
from repro.service.jobs import SolveOutcome, SolveRequest
from repro.service.resilience.faults import fault_point, installed_fault_plan
from repro.telemetry import registry as telemetry_registry
from repro.utils.rng import shard_seeds


def portfolio_order() -> Optional[Tuple[str, ...]]:
    """The registered portfolio backend's member order (data, not code).

    Returns ``None`` when the registered ``"portfolio"`` backend is not
    chain-shaped (no ``order`` attribute) — e.g. a custom replacement
    with its own selection semantics.  The scheduler only takes its
    member-sharding fast path for chain-shaped portfolios; anything
    else executes through the backend's own ``solve()`` like any other
    policy, so replacing the portfolio never silently reverts to the
    built-in chain.
    """
    backend = get_backend("portfolio")
    order = getattr(backend, "order", None)
    if not order:
        return None
    return tuple(order)


def cnash_is_builtin() -> bool:
    """Whether ``"cnash"`` still resolves to the built-in backend.

    The scheduler's sharded fast path runs :func:`solve_cnash` (the
    built-in solver) directly on workers; it is only taken when the
    registry agrees that is what ``"cnash"`` means.  A substituted
    variant executes through its own ``solve()`` instead.
    """
    from repro.backends import CNashBackend

    return type(get_backend("cnash")) is CNashBackend


def effective_config(request: SolveRequest):
    """The request's C-Nash config with its ``epsilon`` override folded in.

    Every service-side consumer of the config (shard execution,
    verification) must use this, so the scheduler's fast paths and the
    registry path apply the same tolerance
    (:func:`repro.backends.config_from_spec` performs the identical fold
    for in-process backends).
    """
    if request.epsilon is None or request.epsilon == request.config.epsilon:
        return request.config
    return dataclasses.replace(request.config, epsilon=request.epsilon)


def spec_from_request(request: SolveRequest) -> SolveSpec:
    """The backend-facing :class:`SolveSpec` equivalent of a request.

    The request's :class:`~repro.core.config.CNashConfig` travels under
    ``options["config"]`` (backends that do not use it ignore it), and
    the request's explicit ``epsilon`` field becomes ``spec.epsilon`` —
    so a tolerance set through the facade survives the service round
    trip for *every* backend, while legacy requests (``epsilon=None``)
    behave exactly as before, even if their C-Nash config sets its own
    ``epsilon``.  Deadlines are enforced by the scheduler, not the
    backend, so they are not propagated.
    """
    return SolveSpec(
        num_runs=request.num_runs,
        seed=request.seed,
        epsilon=request.epsilon,
        options={"config": request.config},
    )


def outcome_from_report(request: SolveRequest, report: SolveReport) -> SolveOutcome:
    """The service wire outcome for one backend report."""
    observe_backend_latency(report.backend, report.wall_clock_seconds)
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend=report.backend,
        success_rate=report.success_rate,
        equilibria=profiles_to_wire(report.equilibria),
        batch=report.batch_dict(),
        shards=1,
        wall_clock_seconds=report.wall_clock_seconds,
    )


def outcome_from_batch(
    request: SolveRequest,
    batch: SolverBatchResult,
    backend: str,
    shards: int = 1,
) -> SolveOutcome:
    """Build the uniform service outcome for an annealing-policy batch.

    Used both by the in-worker execution below and by the scheduler when
    it merges shard batches in the parent process.
    """
    observe_backend_latency(backend, batch.wall_clock_seconds)
    atol = 0.5 / request.config.num_intervals
    distinct = EquilibriumSet.from_profiles(
        request.resolved_game, (run.profile for run in batch.runs if run.success), atol=atol
    )
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend=backend,
        success_rate=batch.success_rate,
        equilibria=profiles_to_wire(list(distinct)),
        batch=batch.to_dict(),
        shards=shards,
        wall_clock_seconds=batch.wall_clock_seconds,
    )


def solve_cnash(
    request: SolveRequest, num_runs: Optional[int] = None, seed=None
) -> SolverBatchResult:
    """Run the C-Nash solver for (a shard of) a request.

    ``num_runs`` / ``seed`` default to the request's own values; the
    scheduler overrides them per shard.  Kept as a direct (non-registry)
    path because shard execution must stay byte-identical regardless of
    what is registered under ``"cnash"`` (the scheduler only takes it
    when the built-in backend is the one registered).
    """
    solver = CNashSolver(request.resolved_game, effective_config(request), seed=request.seed)
    return solver.solve_batch(
        num_runs=request.num_runs if num_runs is None else num_runs,
        seed=request.seed if seed is None else seed,
    )


def has_verified_equilibrium(request: SolveRequest, outcome: SolveOutcome) -> bool:
    """Whether an outcome contains at least one verified equilibrium.

    Exact-backend profiles are checked at tight tolerance; annealing
    output lives on the quantisation grid, so it is checked at the
    solver's epsilon (computed arithmetically — no solver or hardware
    model is constructed for the check).  Shares its tolerance policy
    with the backend-level portfolio via
    :func:`repro.backends.profiles_verified`, so the two selection paths
    cannot drift apart.
    """
    return profiles_verified(
        request.resolved_game,
        profiles_from_wire(outcome.equilibria),
        outcome.backend,
        effective_config(request),
    )


def member_request(request: SolveRequest, member: str) -> SolveRequest:
    """The portfolio request re-targeted at one member policy."""
    return dataclasses.replace(request, policy=member)


def adopt_portfolio_attempt(request: SolveRequest, attempt: SolveOutcome) -> bool:
    """Re-label a member attempt as the portfolio's own outcome.

    Mutates ``attempt`` to carry the portfolio request's policy and
    fingerprint and returns whether it contains a verified equilibrium
    (i.e. whether the portfolio should stop here).  Shared by the
    scheduler's sharded portfolio routing so its selection semantics
    match the in-worker :class:`~repro.backends.PortfolioBackend`.
    """
    attempt.policy = request.policy
    attempt.fingerprint = request.fingerprint()
    return has_verified_equilibrium(request, attempt)


# ----------------------------------------------------------------------
# Entry points (scheduler / worker pool)
# ----------------------------------------------------------------------
def execute_request(request: SolveRequest) -> SolveOutcome:
    """Synchronously execute one request, whole, on the calling process.

    The policy string resolves through the backend registry
    (:func:`repro.backends.get_backend`), so any registered backend —
    built-in or custom — is executable here; unknown policies raise
    :class:`repro.backends.UnknownBackendError`, which lists the
    available backends.
    """
    report = get_backend(request.policy).solve(request.resolved_game, spec_from_request(request))
    return outcome_from_report(request, report)


def in_worker_process(payload: Dict[str, Any]) -> bool:
    """Whether a worker payload is being handled by a separate process.

    The scheduler stamps every worker payload with its ``parent_pid``;
    a payload without one (a direct call) counts as in-process.
    """
    return payload.get("parent_pid") not in (None, os.getpid())


def ship_worker_telemetry(payload: Dict[str, Any], result: Dict[str, Any]) -> Dict[str, Any]:
    """Attach a worker process's metric increments to its result.

    A worker *process* counts into its own registry, so its increments
    reach the parent only as an
    :meth:`~repro.telemetry.MetricsRegistry.export_delta` riding the
    result under ``"telemetry"``; the scheduler merges it and strips it
    before decoding.  Thread and inline workers already count into the
    parent's registry, so they ship nothing (a merge would count twice).
    """
    if in_worker_process(payload):
        result["telemetry"] = telemetry_registry().export_delta()
    return result


def execute_request_payload(payload: dict) -> dict:
    """One whole request on the calling process: request dict in, outcome dict out.

    The scheduler runs generic jobs through
    :func:`repro.service.batching.execute_job_batch_payload` instead;
    this entry point serves direct callers.  Dicts (not rich objects)
    keep the payload plain JSON-compatible data.  Note that whether
    worker *processes* see custom backends depends on the
    multiprocessing start method (``fork`` inherits the parent registry,
    ``spawn`` re-imports and sees only built-ins) — serve custom
    backends with the thread/inline executors for portable behaviour.
    """
    with installed_fault_plan(payload.get("fault_plan")):
        request = SolveRequest.from_dict(payload)
        in_subprocess = in_worker_process(payload)
        fault_point("worker_entry", key=request.fingerprint(),
                    in_subprocess=in_subprocess)
        # Same injection point as the batched path: the kernel launch
        # happens here too.
        fault_point("kernel", key=request.fingerprint(),
                    in_subprocess=in_subprocess)
        return ship_worker_telemetry(payload, execute_request(request).to_dict())


def solve_shard_payload(payload: dict) -> dict:
    """Worker-pool entry point for one C-Nash shard of a sharded batch.

    ``payload`` is ``{"request": <request dict>, "shard_runs": n,
    "shard_seed": s}``; returns the shard's batch dict (plus the
    worker's metric delta, see :func:`ship_worker_telemetry`).
    """
    with installed_fault_plan(payload.get("fault_plan")):
        request = SolveRequest.from_dict(payload["request"])
        in_subprocess = in_worker_process(payload)
        fault_point("worker_entry", key=request.fingerprint(),
                    in_subprocess=in_subprocess)
        fault_point("kernel", key=request.fingerprint(),
                    in_subprocess=in_subprocess)
        batch = solve_cnash(
            request, num_runs=payload["shard_runs"], seed=payload["shard_seed"]
        )
        return ship_worker_telemetry(payload, batch.to_dict())


def shard_payloads(request: SolveRequest, shard_size: int) -> List[dict]:
    """Split a request's run budget into per-shard worker payloads.

    The shard plan depends only on ``(num_runs, shard_size, seed)`` —
    never on the worker-pool size — so merged results are identical for
    any worker count (shard ``i`` always gets seed
    ``shard_seeds(seed, ...)[i]`` and the merge preserves shard order).
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    sizes: List[int] = []
    remaining = request.num_runs
    while remaining > 0:
        size = min(shard_size, remaining)
        sizes.append(size)
        remaining -= size
    seeds = shard_seeds(request.seed, len(sizes))
    request_dict = request.to_dict()
    return [
        {"request": request_dict, "shard_runs": size, "shard_seed": seed}
        for size, seed in zip(sizes, seeds)
    ]


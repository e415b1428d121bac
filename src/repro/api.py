"""One-call facade over the unified solver API.

Four functions cover the repo's workloads:

* :func:`solve` — run one game through one backend::

      import repro.api as api
      report = api.solve(game, backend="cnash",
                         spec=api.SolveSpec(num_runs=200, seed=0))

* :func:`compare` — the paper's evaluation in one call: run several
  backends on the same game and get a per-backend report table::

      comparison = api.compare(game, backends=["cnash", "squbo", "exact"])
      print(comparison.to_table())

* :func:`solve_many` — a batched heterogeneous workload: a list of
  ``(game, backend, spec)`` jobs, optionally routed through a service
  client so the scheduler shards, caches and parallelises them.

* :func:`sweep` — an ensemble workload: stream a
  :class:`~repro.workloads.EnsembleSpec` (or any iterable of game
  specs) through the service scheduler with bounded in-flight
  materialisation and spec-keyed result caching.

Every ``game`` argument is a :data:`~repro.games.spec.GameLike` — a
dense :class:`~repro.games.bimatrix.BimatrixGame`, a declarative
:class:`~repro.games.spec.GameSpec`, or a spec string such as
``"library:chicken"``.  Spec-backed workloads stay lazy end to end:
requests ship the ~100-byte spec and the dense matrices are built where
the solve actually runs.  When a spec's transform chain
dominance-reduces the game, the backend solves the reduced game and the
facade lifts the equilibria back to original coordinates, recording the
action mapping under ``report.metadata["reduction"]``.

Every function resolves backends through the global registry
(:mod:`repro.backends`), so one ``register_backend()`` call makes a new
solver reachable here, through the experiment runner and over TCP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.backends.adapters import config_from_spec, label_is_exact
from repro.backends.base import (
    SolveReport,
    SolveSpec,
    observe_backend_latency,
    profiles_from_wire,
)
from repro.backends.registry import available_backends, get_backend
from repro.games.bimatrix import BimatrixGame
from repro.games.spec import GameLike, GameSpec, MaterializedGame, as_game_spec
from repro.telemetry import family_total

#: A solve_many job: ``(game, backend_name, spec)``; the spec may be None.
SolveJob = Tuple[GameLike, str, Optional[SolveSpec]]


def _resolve_spec(spec: Optional[SolveSpec], spec_kwargs: Dict[str, Any]) -> SolveSpec:
    if spec is None:
        return SolveSpec(**spec_kwargs)
    if spec_kwargs:
        raise TypeError(
            f"pass either a SolveSpec or keyword spec fields, not both "
            f"(got spec and {sorted(spec_kwargs)})"
        )
    return spec


def _as_workload(game: GameLike) -> Union[BimatrixGame, GameSpec]:
    """Normalise a game argument; dense games pass through unwrapped.

    (Wrapping a ``BimatrixGame`` in an inline spec would be equivalent —
    fingerprints are byte-compatible — but passing it through avoids a
    payoff copy on the hot in-process path.)
    """
    if isinstance(game, (BimatrixGame, GameSpec)):
        return game
    return as_game_spec(game)


def _request_from_spec(
    game: Union[BimatrixGame, GameSpec], backend: str, spec: SolveSpec, priority: int = 0
):
    """A service :class:`~repro.service.jobs.SolveRequest` for (game, backend, spec).

    Only the C-Nash config and the universal spec fields travel inside
    the request wire format, so a spec carrying any other option cannot
    be routed through a client without silently computing something
    different on the server — that is an error here, not a silent
    downgrade.  (``spec.epsilon`` does survive: it is a first-class
    request field.)
    """
    from repro.service.jobs import SolveRequest

    unroutable = sorted(key for key in spec.options if key != "config")
    if unroutable:
        raise ValueError(
            f"spec options {unroutable} cannot be routed through a service "
            f"client: the SolveRequest wire format carries only the C-Nash "
            f"config, so the server would run backend {backend!r} with "
            f"default options instead. Run in-process (client=None) or move "
            f"the options into the backend's server-side defaults."
        )
    return SolveRequest(
        game=game,
        policy=backend,
        num_runs=spec.num_runs,
        seed=spec.seed,
        config=config_from_spec(spec),
        epsilon=spec.epsilon,
        priority=priority,
        deadline_s=spec.deadline_s,
    )


def _report_from_outcome(outcome, game_name: str, num_runs: int) -> SolveReport:
    """A :class:`SolveReport` view of a service ``SolveOutcome``."""
    if outcome.batch is not None:
        executed_runs = len(outcome.batch.get("runs", []))
    elif label_is_exact(outcome.backend):
        executed_runs = 0  # matches the in-process ExactBackend report
    else:
        executed_runs = num_runs
    return SolveReport(
        backend=outcome.backend,
        game_name=game_name,
        equilibria=profiles_from_wire(outcome.equilibria),
        success_rate=outcome.success_rate,
        num_runs=executed_runs,
        wall_clock_seconds=outcome.wall_clock_seconds,
        batch=outcome.batch,
        metadata={
            "policy": outcome.policy,
            "fingerprint": outcome.fingerprint,
            "shards": outcome.shards,
            "served_via": "service",
            **({"trace": outcome.trace} if getattr(outcome, "trace", None) else {}),
        },
    )


def _spec_context(
    work: Union[BimatrixGame, GameSpec]
) -> Tuple[Optional[MaterializedGame], str]:
    """``(tracked, game_name)`` for building a report without eager work.

    Dominance-reducing specs must be materialised caller-side so the
    returned equilibria can be lifted to original coordinates; every
    other spec stays lazy and is named by its cheap
    :meth:`~repro.games.spec.GameSpec.display_name` (so a report served
    via a client for a lazy spec is labelled by the spec, not the
    materialised game's pretty name).
    """
    if isinstance(work, BimatrixGame):
        return None, work.name
    if work.has_reduction:
        tracked = work.materialize_tracked()
        return tracked, tracked.game.name
    return None, work.display_name()


def _finalise_spec_report(
    report: SolveReport,
    work: Union[BimatrixGame, GameSpec],
    tracked: Optional[MaterializedGame],
) -> SolveReport:
    """Attach spec provenance and lift reduced equilibria on a report."""
    if isinstance(work, GameSpec):
        if tracked is not None:
            report.lift_reduction(tracked)
        report.metadata["game_spec"] = work.to_dict()
    return report


def solve(
    game: GameLike,
    backend: str = "cnash",
    spec: Optional[SolveSpec] = None,
    *,
    client=None,
    **spec_kwargs: Any,
) -> SolveReport:
    """Solve one game through one backend; returns a :class:`SolveReport`.

    Parameters
    ----------
    game:
        The workload: a dense :class:`BimatrixGame`, a declarative
        :class:`~repro.games.spec.GameSpec`, or a spec string such as
        ``"library:chicken"``.  Spec-backed solves record the spec under
        ``report.metadata["game_spec"]``; if the spec dominance-reduces
        the game, equilibria are lifted back to original coordinates and
        the action mapping lands in ``report.metadata["reduction"]``.
    backend:
        Registered backend name (see
        :func:`repro.backends.available_backends`).
    spec:
        The :class:`SolveSpec` to run under.  As a convenience, spec
        fields may be given as keyword arguments instead
        (``solve(game, "cnash", num_runs=500, seed=0)``).
    client:
        Optional service client (:class:`repro.service.client.InProcessClient`,
        ``SyncServiceClient``, or a scheduler-backed equivalent exposing
        ``solve(request) -> SolveOutcome``).  When given, the solve is
        routed through the service layer — sharded worker-pool
        execution and result caching — instead of running in-process;
        spec-backed workloads ship as ~100-byte spec payloads and
        materialise server-side.
    """
    spec = _resolve_spec(spec, spec_kwargs)
    work = _as_workload(game)
    if client is not None:
        request = _request_from_spec(work, backend, spec)
        tracked, game_name = _spec_context(work)
        report = _report_from_outcome(client.solve(request), game_name, spec.num_runs)
        return _finalise_spec_report(report, work, tracked)
    if isinstance(work, GameSpec):
        tracked = work.materialize_tracked()
        report = get_backend(backend).solve(tracked.game, spec)
        observe_backend_latency(report.backend, report.wall_clock_seconds)
        return _finalise_spec_report(report, work, tracked)
    report = get_backend(backend).solve(work, spec)
    observe_backend_latency(report.backend, report.wall_clock_seconds)
    return report


@dataclass
class Comparison:
    """Per-backend report table from :func:`compare`.

    ``reports`` preserves the backend order of the call; ``skipped``
    maps backends that were not run (capability mismatch) to the
    reason.
    """

    game_name: str
    reports: Dict[str, SolveReport] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)

    def report(self, backend: str) -> SolveReport:
        """The report of one backend (raises ``KeyError`` if skipped/absent)."""
        return self.reports[backend]

    def finds_mixed(self, backend: str, atol: float = 1e-3) -> bool:
        """Whether a backend's report contains a mixed equilibrium."""
        return bool(self.reports[backend].mixed_equilibria(atol=atol))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation of the whole comparison."""
        return {
            "game_name": self.game_name,
            "reports": {name: report.to_dict() for name, report in self.reports.items()},
            "skipped": dict(self.skipped),
        }

    def to_table(self) -> str:
        """Human-readable per-backend summary table."""
        header = (
            f"{'backend':<28} {'success':>8} {'distinct':>9} "
            f"{'mixed':>6} {'time [s]':>9}"
        )
        lines = [f"Game: {self.game_name}", header, "-" * len(header)]
        for name, report in self.reports.items():
            lines.append(
                f"{report.backend:<28} {report.success_rate:>7.1%} "
                f"{report.num_equilibria:>9d} {len(report.mixed_equilibria()):>6d} "
                f"{report.wall_clock_seconds:>9.3f}"
            )
        for name, reason in self.skipped.items():
            lines.append(f"{name:<28} skipped: {reason}")
        return "\n".join(lines)


def compare(
    game: GameLike,
    backends: Optional[Sequence[str]] = None,
    spec: Optional[SolveSpec] = None,
    *,
    overrides: Optional[Mapping[str, SolveSpec]] = None,
    client=None,
    **spec_kwargs: Any,
) -> Comparison:
    """Run several backends on one game; returns a :class:`Comparison`.

    This is the paper's evaluation as a single call:
    ``compare(game, backends=["cnash", "squbo", "exact"])`` reproduces
    the qualitative Table-1 / Fig.-8 result (S-QUBO cannot produce the
    mixed equilibria that C-Nash and the exact solvers find).

    Parameters
    ----------
    backends:
        Backend names to run, in order.  Defaults to every registered
        backend except ``"portfolio"`` (which merely races the others).
    spec:
        Shared :class:`SolveSpec` (or keyword spec fields).
    overrides:
        Optional per-backend spec overrides, e.g. a bigger run budget
        for a slow-converging solver.
    client:
        Optional service client; forwarded to :func:`solve`.
    Backends whose declared capabilities do not support the game's size
    are recorded in ``Comparison.skipped`` instead of being run.
    """
    spec = _resolve_spec(spec, spec_kwargs)
    work = _as_workload(game)
    # Capability routing needs the game's size; for spec workloads one
    # caller-side materialisation probes it (the solves themselves still
    # ship the compact spec when a client is attached).
    probe = work if isinstance(work, BimatrixGame) else work.materialize()
    if backends is None:
        backends = [name for name in available_backends() if name != "portfolio"]
    if overrides:
        unknown = sorted(set(overrides) - set(backends))
        if unknown:
            raise ValueError(
                f"overrides for backends not in the comparison: {unknown} "
                f"(comparing {sorted(backends)})"
            )
    comparison = Comparison(game_name=probe.name)
    runnable: List[Tuple[str, SolveSpec]] = []
    for name in backends:
        backend = get_backend(name)
        capabilities = backend.capabilities()
        if not capabilities.supports(probe):
            comparison.skipped[name] = (
                f"game has {probe.num_actions} actions, backend supports "
                f"<= {capabilities.max_actions}"
            )
            continue
        runnable.append((name, overrides.get(name, spec) if overrides else spec))
    # solve_many overlaps the jobs across the scheduler's worker pool
    # when a submit/result-capable client is attached; in-process it
    # runs them sequentially, same as before.
    reports = solve_many(
        [(work, name, backend_spec) for name, backend_spec in runnable], client=client
    )
    for (name, _), report in zip(runnable, reports):
        comparison.reports[name] = report
    return comparison


def solve_many(
    jobs: Iterable[Union[SolveJob, Mapping[str, Any]]],
    *,
    client=None,
) -> List[SolveReport]:
    """Solve a batched heterogeneous workload; returns reports in job order.

    Each job is a ``(game, backend, spec)`` tuple (spec may be ``None``
    for defaults) or a mapping with ``game`` / ``backend`` / ``spec``
    keys; every ``game`` is a :data:`~repro.games.spec.GameLike`.
    Without a client, jobs run in-process sequentially.  With a client,
    all jobs are submitted up front and collected afterwards, so the
    scheduler overlaps them across its worker pool (and serves repeats
    from its result cache).  For workloads too large to submit up front,
    use :func:`sweep`, which bounds the in-flight window.
    """
    normalised: List[SolveJob] = []
    for job in jobs:
        if isinstance(job, Mapping):
            normalised.append(
                (job["game"], job.get("backend", "cnash"), job.get("spec"))
            )
        else:
            game, backend, spec = job
            normalised.append((game, backend, spec))
    resolved = [
        (_as_workload(game), backend, spec if spec is not None else SolveSpec())
        for game, backend, spec in normalised
    ]
    if client is not None and hasattr(client, "submit") and hasattr(client, "result"):
        job_ids = [
            client.submit(_request_from_spec(work, backend, spec))
            for work, backend, spec in resolved
        ]
        reports = []
        for job_id, (work, backend, spec) in zip(job_ids, resolved):
            tracked, game_name = _spec_context(work)
            report = _report_from_outcome(client.result(job_id), game_name, spec.num_runs)
            reports.append(_finalise_spec_report(report, work, tracked))
        return reports
    return [
        solve(work, backend, spec, client=client) for work, backend, spec in resolved
    ]


@dataclass
class SweepResult:
    """Aggregate result of one :func:`sweep` call.

    ``reports`` is in submission order (ensemble order, with the
    backends of one game adjacent).  ``cache_hits`` counts jobs served
    without recomputation (result-cache hits plus coalesced duplicates):
    the sweep's delta of ``repro_scheduler_cache_hits_total`` plus
    ``repro_scheduler_jobs_coalesced_total`` in the client's
    ``telemetry()`` snapshot.  It is ``None`` when the attached client
    exposes no ``telemetry()``.

    Jobs that fail terminally (quarantined poison pills, worker faults
    past the retry budget, permanent errors) land in ``failed`` instead
    of aborting the sweep; ``attempts`` records each *successful* job's
    execution count (1 = first try; more = the resilience layer
    retried it), aligned with ``reports``.
    """

    backends: Tuple[str, ...]
    reports: List[SolveReport] = field(default_factory=list)
    num_games: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: Optional[int] = None
    attempts: List[int] = field(default_factory=list)
    """Per-report execution attempt counts (aligned with ``reports``)."""
    failed: List[Dict[str, Any]] = field(default_factory=list)
    """Terminally failed jobs: ``{"game", "backend", "error", "error_type"}``."""
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    """Aggregate seconds per top-level trace phase (queue / coalesce /
    shm / run / settle), summed over every traced job in the sweep.
    The scheduler's depth-0 phases are contiguous, so these sum to the
    total per-job latency of the traced jobs.  Empty when no outcome
    carries a trace (cache hits carry none).
    """
    traced_jobs: int = 0
    """How many of the sweep's jobs carried a trace timeline."""

    @property
    def num_jobs(self) -> int:
        """Jobs executed: one per (game, backend) pair."""
        return len(self.reports)

    @property
    def retried_jobs(self) -> int:
        """Successful jobs that needed more than one execution attempt."""
        return sum(1 for count in self.attempts if count > 1)

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of jobs served from the spec-keyed cache."""
        if self.cache_hits is None or not self.reports:
            return None
        return self.cache_hits / len(self.reports)

    def reports_for(self, backend: str) -> List[SolveReport]:
        """The reports produced by one backend, in ensemble order."""
        return [report for report in self.reports if report.backend.startswith(backend)]

    def mean_success_rate(self) -> float:
        """Mean per-job success rate across the whole sweep."""
        if not self.reports:
            return 0.0
        return sum(report.success_rate for report in self.reports) / len(self.reports)

    def summary(self) -> str:
        """One-line human-readable sweep summary."""
        hit_part = ""
        if self.cache_hit_rate is not None:
            hit_part = f", {self.cache_hit_rate:.0%} cache hits"
        resilience_part = ""
        if self.retried_jobs:
            resilience_part = f", {self.retried_jobs} retried"
        if self.failed:
            resilience_part += f", {len(self.failed)} failed"
        return (
            f"{self.num_games} games x {len(self.backends)} backends = "
            f"{self.num_jobs} jobs in {self.elapsed_seconds:.2f}s "
            f"(mean success {self.mean_success_rate():.1%}{hit_part}{resilience_part})"
        )


def sweep(
    ensemble,
    backends: Union[str, Sequence[str]] = "cnash",
    spec: Optional[SolveSpec] = None,
    *,
    client=None,
    max_in_flight: int = 32,
    keep_batches: bool = False,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    **spec_kwargs: Any,
) -> SweepResult:
    """Stream an ensemble of games through the service scheduler.

    This is the bulk-workload entry point: a
    :class:`~repro.workloads.EnsembleSpec` (or any iterable of
    :data:`~repro.games.spec.GameLike`, including a lazy generator)
    flows through the scheduler as spec-backed requests.  Materialisation
    is *bounded*: at most ``max_in_flight`` jobs are submitted ahead of
    collection, so a 10,000-game sweep never holds more than the
    in-flight window of dense games in memory, no matter how large the
    ensemble (completed reports keep only equilibria and metrics —
    per-run batches are dropped unless ``keep_batches=True``).

    Repeating an identical sweep is served from the spec-keyed result
    cache: give the :class:`SolveSpec` a seed (seeded requests are the
    cacheable ones) and the second pass recomputes nothing.

    Parameters
    ----------
    ensemble:
        :class:`~repro.workloads.EnsembleSpec` or iterable of game-likes.
    backends:
        One backend name or a sequence; every game runs through each.
    spec:
        Shared :class:`SolveSpec` (or keyword spec fields).  Set
        ``seed`` to make the sweep cacheable.
    client:
        A submit/result-capable service client
        (:class:`repro.service.client.InProcessClient` or equivalent).
        ``None`` creates a private in-process scheduler client for the
        duration of the call.
    max_in_flight:
        Bound on submitted-but-uncollected jobs (and therefore on
        concurrently materialised games).
    keep_batches:
        Retain full per-run batches on the reports (memory-heavy).
    executor, max_workers:
        Worker-pool configuration for the private client when
        ``client=None`` (ignored otherwise).
    """
    from repro.workloads.ensembles import ensemble_or_specs, spec_chunks

    spec = _resolve_spec(spec, spec_kwargs)
    backend_names: Tuple[str, ...] = (
        (backends,) if isinstance(backends, str) else tuple(backends)
    )
    if not backend_names:
        raise ValueError("backends must name at least one backend")
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")

    owns_client = client is None
    if owns_client:
        from repro.service.client import InProcessClient

        client = InProcessClient(executor=executor, max_workers=max_workers)
    if not (hasattr(client, "submit") and hasattr(client, "result")):
        raise TypeError(
            "sweep requires a submit/result-capable service client "
            "(e.g. repro.service.client.InProcessClient); got "
            f"{type(client).__name__}"
        )

    def _counter_totals() -> Optional[int]:
        if not hasattr(client, "telemetry"):
            return None
        snapshot = client.telemetry()
        return int(
            family_total(snapshot, "repro_scheduler_cache_hits_total")
            + family_total(snapshot, "repro_scheduler_jobs_coalesced_total")
        )

    result = SweepResult(backends=backend_names)
    hits_before = _counter_totals()
    start = time.perf_counter()
    #: (job_id, workload, backend) triples awaiting collection.
    pending: List[Tuple[str, Union[BimatrixGame, GameSpec], str]] = []
    bulk = hasattr(client, "submit_many") and hasattr(client, "results")

    def _collect(count: int) -> None:
        taken = pending[:count]
        del pending[:count]
        if not taken:
            return
        if bulk:
            outcomes = client.results(
                [job_id for job_id, _, _ in taken], return_exceptions=True
            )
        else:
            outcomes = []
            for job_id, _, _ in taken:
                try:
                    outcomes.append(client.result(job_id))
                except Exception as exc:  # noqa: BLE001 - per-job failure bucket
                    outcomes.append(exc)
        for (_, work, backend), outcome in zip(taken, outcomes):
            if isinstance(outcome, BaseException):
                # A terminally failed job (quarantined, out of retries,
                # bad spec) is reported, not fatal to the whole sweep.
                _, game_name = _spec_context(work)
                result.failed.append({
                    "game": game_name,
                    "backend": backend,
                    "error": str(outcome),
                    "error_type": getattr(outcome, "ERROR_TYPE", type(outcome).__name__),
                })
                continue
            tracked, game_name = _spec_context(work)
            report = _report_from_outcome(outcome, game_name, spec.num_runs)
            _finalise_spec_report(report, work, tracked)
            if not keep_batches:
                report.batch = None
            trace = getattr(outcome, "trace", None)
            if trace:
                result.traced_jobs += 1
                phase_seconds = result.phase_seconds
                for phase in trace:
                    if phase.get("depth", 0) == 0:
                        name = phase["name"]
                        phase_seconds[name] = phase_seconds.get(name, 0.0) + (
                            phase["end_ms"] - phase["start_ms"]
                        ) / 1000.0
            result.reports.append(report)
            result.attempts.append(int(getattr(outcome, "attempts", 1)))

    try:
        if bulk:
            # Chunked submission: one loop-thread/service hop enqueues a
            # whole compatible group, so the scheduler's batch coalescing
            # sees companions even with a zero linger budget.
            chunk_games = max(1, max_in_flight // len(backend_names))
            for chunk in spec_chunks(ensemble, chunk_games):
                result.num_games += len(chunk)
                work = [
                    (game_spec, backend)
                    for game_spec in chunk
                    for backend in backend_names
                ]
                while pending and len(pending) + len(work) > max_in_flight:
                    _collect(min(len(pending), len(work)))
                job_ids = client.submit_many(
                    [_request_from_spec(g, backend, spec) for g, backend in work]
                )
                pending.extend(
                    (job_id, g, backend)
                    for job_id, (g, backend) in zip(job_ids, work)
                )
        else:
            for game_spec in ensemble_or_specs(ensemble):
                result.num_games += 1
                for backend in backend_names:
                    while len(pending) >= max_in_flight:
                        _collect(1)
                    request = _request_from_spec(game_spec, backend, spec)
                    pending.append((client.submit(request), game_spec, backend))
        while pending:
            _collect(len(pending))
        result.elapsed_seconds = time.perf_counter() - start
        hits_after = _counter_totals()
        if hits_before is not None and hits_after is not None:
            result.cache_hits = hits_after - hits_before
    finally:
        if owns_client:
            client.close()
    return result

"""One benchmark run: set up, measure, optionally trace, gate, report."""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import platform
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

import repro.api as api
from perfbench import refs
from perfbench.gate import Gate
from perfbench.stats import (
    link_spans,
    outermost_seconds,
    self_time,
    slot_accounting,
    tail_percentile,
)
from perfbench.tracing import PARSE_NAMES, SETTLE_NAMES, WORKER_ENTRIES, SpanRecorder
from perfbench.workloads import (
    PAPER_TABLE1,
    paper_round,
    sweep_spec,
    sweep_stream,
    until,
    warmup_jobs,
)
from repro.service.client import InProcessClient

#: The benchmark's definition: its workloads and every metric's unit and direction.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

MAX_WORKERS = 2
#: Set-up is timed repeatedly for about this long before the pass and
#: again after it.  The host's noise comes in bursts of a few seconds, so
#: the two groups rarely share one; ``setup_s`` is the median of both.
SETUP_SECONDS = 1.0
#: Fewest set-ups in each group.
SETUP_MIN_REPEATS = 3
#: Untimed warm-up jobs after set-up (lazy imports, caches, both workers).
WARMUP_JOBS = 8
WARMUP_ITERATIONS = 40
WARMUP_SECONDS = 4.0
#: Solo replays are drawn from the first jobs of the untraced pass.
REPLAY_WINDOW = 32
#: Jobs per workload replayed solo by the correctness gate.
SOLO_SAMPLES = {"sweep-overhead": 6, "sweep-solve": 2, "paper-table1": 2}
#: Allowed |sum of a slot's layer self times + idle - wall| / wall.
SLOT_TOLERANCE = 1e-3


@dataclass
class Job:
    index: int
    request: Any
    submitted: float
    delivered: Optional[float] = None
    #: The result call that delivered the job; jobs of one call share a delivery time.
    window: Optional[int] = None
    record: Optional[dict] = None
    outcome: Any = None
    error: Optional[str] = None


class RecordingClient:
    """Pass-through client that timestamps each job's submit and delivery.

    ``api.sweep`` and ``api.solve_many`` drive it exactly like the
    ``InProcessClient`` it wraps.  A job's delivery latency runs from the
    start of the submit call that carried it to the return of the result
    call that delivered it.  Jobs whose index is in ``keep`` also keep
    their outcome for the solo replay.  Under tracing its calls are
    ``client`` spans, which separates the facade's own time from time
    blocked on the scheduler.
    """

    def __init__(self, inner: InProcessClient, recorder: Optional[SpanRecorder] = None,
                 keep: Set[int] = frozenset()):
        self.inner = inner
        self.recorder = recorder
        self.keep = keep
        self.jobs: Dict[str, Job] = {}
        self.calls = itertools.count()

    def _span(self, name: str, start_ns: int) -> None:
        if self.recorder is not None:
            self.recorder.record("client", name, start_ns, perf_counter_ns())

    def _submitted(self, job_ids, requests, start_ns: int) -> None:
        for job_id, request in zip(job_ids, requests):
            self.jobs[job_id] = Job(len(self.jobs), request, start_ns / 1e9)

    def _delivered(self, job_id: str, outcome: Any, done_ns: int, window: int) -> None:
        job = self.jobs[job_id]
        job.delivered = done_ns / 1e9
        job.window = window
        if isinstance(outcome, BaseException):
            job.error = f"{type(outcome).__name__}: {outcome}"
            return
        job.record = {
            "fingerprint": outcome.fingerprint,
            "success_rate": outcome.success_rate,
            "equilibria": outcome.equilibria,
        }
        if job.index in self.keep:
            job.outcome = outcome

    def submit_many(self, requests, priority=None):
        start = perf_counter_ns()
        job_ids = self.inner.submit_many(requests, priority=priority)
        self._submitted(job_ids, requests, start)
        self._span("submit_many", start)
        return job_ids

    def submit(self, request, priority=None):
        start = perf_counter_ns()
        job_id = self.inner.submit(request, priority=priority)
        self._submitted([job_id], [request], start)
        self._span("submit", start)
        return job_id

    def results(self, job_ids, timeout=None, return_exceptions=False):
        start = perf_counter_ns()
        outcomes = self.inner.results(job_ids, timeout=timeout, return_exceptions=True)
        done = perf_counter_ns()
        window = next(self.calls)
        for job_id, outcome in zip(job_ids, outcomes):
            self._delivered(job_id, outcome, done, window)
        self._span("results", start)
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
        return outcomes

    def result(self, job_id, timeout=None):
        start = perf_counter_ns()
        window = next(self.calls)
        try:
            outcome = self.inner.result(job_id, timeout=timeout)
        except RuntimeError as exc:
            self._delivered(job_id, exc, perf_counter_ns(), window)
            raise
        finally:
            self._span("result", start)
        self._delivered(job_id, outcome, perf_counter_ns(), window)
        return outcome

    def stats(self):
        return self.inner.stats()

    def telemetry(self):
        return self.inner.telemetry()


def _counter_total(snapshot: dict, family: str) -> float:
    entry = snapshot["families"].get(family, {})
    return sum(sample.get("value", 0) for sample in entry.get("samples", []))


@dataclass
class Segment:
    """A stretch of one pass, with the jobs submitted in it."""

    jobs: List[Job]
    window: Tuple[float, float]
    before: dict
    after: dict

    @property
    def elapsed(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def delivered(self) -> List[Job]:
        return [job for job in self.jobs if job.record is not None]

    def delta(self, family: str) -> float:
        """A telemetry counter family's increase over the segment, all labels."""
        return _counter_total(self.after, family) - _counter_total(self.before, family)


def whole(segments: List[Segment]) -> Segment:
    """The segments of one pass as a single segment."""
    return Segment([job for segment in segments for job in segment.jobs],
                   (segments[0].window[0], segments[-1].window[1]),
                   segments[0].before, segments[-1].after)


def listed_metrics(section: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (unit, better)`` for one metric section of BENCHMARK.json."""
    listed = json.loads(BENCHMARK_JSON.read_text())[section]
    return {metric["name"]: (metric["unit"], metric["better"]) for metric in listed}


def close(client: InProcessClient) -> None:
    client.close()
    refs.stop_children()


def time_set_ups(workload, executor: str) -> List[float]:
    """Seconds from client construction to the first warm-up solve, repeated.

    The warm-up solve runs at the warm-up budget, so the figure is the
    cost of starting the service, not of the workload's kernel: at the
    full sweep-solve budget the kernel's own noise spread set-up by 0.39.
    """
    samples: List[float] = []
    deadline = perf_counter() + SETUP_SECONDS
    while len(samples) < SETUP_MIN_REPEATS or perf_counter() < deadline:
        start = perf_counter()
        client = InProcessClient(executor=executor, max_workers=MAX_WORKERS)
        try:
            api.solve_many(warmup_jobs(workload, 1, WARMUP_ITERATIONS), client=client)
            samples.append(perf_counter() - start)
        finally:
            close(client)
    return samples


def warm(workload, client: InProcessClient, seed: int) -> None:
    """Untimed warm-up: every code path once, then a short pass on another seed.

    A fresh worker pool runs unevenly for its first seconds; on
    paper-table1 the warm-up pass halved the run-to-run spread of
    ``jobs_per_s``.
    """
    api.solve_many(warmup_jobs(workload, WARMUP_JOBS, WARMUP_ITERATIONS), client=client)
    run_pass(workload, client, seed + 1, WARMUP_SECONDS, after_segment=_forget)


def _forget(segment: Segment) -> None:
    """Drop a segment's outcomes, so they do not count in ``peak_rss_mb``."""
    for job in segment.jobs:
        job.record = job.outcome = None


def run_pass(workload, client: InProcessClient, seed: int, seconds: float,
             recorder: Optional[SpanRecorder] = None, keep: Set[int] = frozenset(),
             after_segment: Optional[Callable[[Segment], None]] = None) -> List[Segment]:
    """Drive the workload's closed loop for ``seconds`` from one caller thread.

    A sweep segment is one ``api.sweep`` call over the next games of the
    stream, up to the segment's deadline (or exactly
    ``workload.segment_games`` games); the games in flight finish before
    it ends.  A paper-table1 segment runs whole rounds of six jobs until
    its deadline, one job in flight at a time, each through
    ``api.solve_many``.  ``after_segment`` runs between segments,
    outside their windows.
    """
    client_view = RecordingClient(client, recorder, keep)
    stream = sweep_stream(workload, seed)
    rounds = itertools.count()
    count = workload.segments(seconds)
    segments = []
    for _ in range(count):
        first = len(client_view.jobs)
        before = client.telemetry()
        start = perf_counter()
        deadline = start + seconds / count
        if workload is PAPER_TABLE1:
            while perf_counter() < deadline:
                for job in paper_round(workload, seed, next(rounds)):
                    try:
                        api.solve_many([job], client=client_view)
                    except RuntimeError:
                        pass  # recorded as a failed job by client_view
        else:
            games = (itertools.islice(stream, workload.segment_games) if workload.segment_games
                     else until(stream, deadline))
            api.sweep(games, spec=sweep_spec(workload, seed), client=client_view)
        end = perf_counter()
        segment = Segment(list(client_view.jobs.values())[first:], (start, end),
                          before, client.telemetry())
        if after_segment is not None:
            after_segment(segment)
        segments.append(segment)
    return segments


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(workload, segments: List[Segment], setup_s: float, peak_mib: float,
               gate: Gate, notes: List[str]) -> Dict[str, float]:
    """Rates and the median latency are medians over the pass's segments.

    A median over segments drops a segment that fell into a burst of host
    noise.  On paper-table1 half of every round is fast ideal jobs and
    half slow hardware jobs, so a pooled median would sit in the gap
    between the two and follow their extremes.  The tail pools the
    segments.  Jobs delivered by one result call share a delivery time, and on the
    sweeps the jobs of one call were also submitted together, so the
    independent latency samples are the result calls, not the jobs: the
    tail percentile is chosen by the number of calls.
    """
    delivered = whole(segments).delivered
    latencies = [(job.delivered - job.submitted) * 1000.0 for job in delivered]
    calls = len({job.window for job in delivered})
    tail = tail_percentile(calls)
    notes.append(f"delivery_tail_ms is p{tail:g} of {len(latencies)} jobs delivered by {calls} "
                 f"result calls (the highest percentile with at least ten calls beyond it)")
    # Reported but not tracked in BENCHMARK.json: both read 0 on some
    # workloads, and a tracked metric must never be 0.
    notes.append(f"ne_found_ratio = {gate.found / gate.truth if gate.truth else 0.0:.6g} "
                 f"({gate.found} of {gate.truth} ground-truth equilibria found)")
    notes.append(f"failed_ratio = {gate.failed / gate.attempted:.6g} "
                 f"({gate.failed} of {gate.attempted} jobs failed or failed the gate)")
    runs = sum(job.request.num_runs for job in delivered)
    computed_runs = [s.delta("repro_scheduler_jobs_completed_total") * workload.num_runs
                     for s in segments]
    return {
        "jobs_per_s": statistics.median(len(s.delivered) / s.elapsed for s in segments),
        "runs_per_s": statistics.median(r / s.elapsed for r, s in zip(computed_runs, segments)),
        "delivery_p50_ms": statistics.median(
            float(np.percentile([(job.delivered - job.submitted) * 1000.0 for job in s.delivered], 50))
            for s in segments),
        "delivery_tail_ms": float(np.percentile(latencies, tail)),
        "success_rate": sum(job.record["success_rate"] * job.request.num_runs
                            for job in delivered) / runs,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mib,
    }


def _bucket(shape) -> str:
    return {(64, 64): "64x64", (256, 256): "256x256"}.get(tuple(shape), "paper")


def _bytes_per_proposal(info: dict) -> int:
    """Computed bytes one proposal touches (float64 payoff entries).

    Delta kernel: one row or column of each payoff matrix for each
    player's cached product, 16 (n + m) bytes.  Full evaluation: both
    payoff matrices, 16 n m bytes.
    """
    n, m = info["shape"]
    return 16 * (n + m) if info["mode"] == "delta" else 16 * n * m


def seconds_per_job(segments: List[Segment]) -> float:
    """Measured seconds per delivered job, gaps between segments excluded."""
    return sum(s.elapsed for s in segments) / sum(len(s.delivered) for s in segments)


def per_layer(traced_segments: List[Segment], untraced_segments: List[Segment],
              recorder: SpanRecorder, reference: Dict[str, float],
              notes: List[str]) -> Dict[str, float]:
    """Layer times (per delivered job), counts and ratios of the traced pass."""
    traced = whole(traced_segments)
    window = traced.window
    wall = traced.elapsed
    spans = [s for s in recorder.spans() if s.end > window[0] and s.start < window[1]]
    by_slot = link_spans(spans)
    jobs = len(traced.delivered)

    def per_job(seconds: float) -> float:
        return seconds / jobs

    self_seconds: Dict[str, float] = defaultdict(float)
    worst = 0.0
    worker_layers: Dict[str, float] = defaultdict(float)
    worker_busy = 0.0
    for slot_spans in by_slot.values():
        accounting = slot_accounting(slot_spans, window)
        worst = max(worst, abs(sum(accounting.values()) - wall) / wall)
        for span in slot_spans:
            self_seconds[span.layer] += self_time(span, window)
        if any(span.name in WORKER_ENTRIES for span in slot_spans):
            for layer, seconds in accounting.items():
                if layer != "idle":
                    worker_layers[layer] += seconds
            worker_busy += outermost_seconds(slot_spans, window, WORKER_ENTRIES)
    if worst > SLOT_TOLERANCE:
        raise RuntimeError(f"slot accounting is off by {worst:.2%} of the wall clock")
    notes.append(f"every slot's layer self times plus idle time sum to the wall clock "
                 f"within {worst:.1e} of it (tolerance {SLOT_TOLERANCE:g})")
    if worker_busy:
        split = ", ".join(f"{layer} {seconds / worker_busy:.1%}"
                          for layer, seconds in sorted(worker_layers.items(),
                                                       key=lambda item: -item[1]))
        notes.append(f"worker time split by layer self time: {split}")

    def named(names) -> float:
        return outermost_seconds(spans, window, names)

    def layer_seconds(layer: str) -> float:
        return outermost_seconds([s for s in spans if s.layer == layer], window)

    kernels = [s for s in spans if s.layer == "annealing" and s.info]
    launches = len(kernels)
    chains = sum(s.info["chains"] for s in kernels)
    proposals = sum(s.info["chains"] * s.info["iterations"] for s in kernels)
    accepted = sum(s.info["accepted"] for s in kernels)
    kernel_seconds = sum(s.duration for s in kernels)
    computed_bytes = sum(_bytes_per_proposal(s.info) * s.info["chains"] * s.info["iterations"]
                         for s in kernels)
    rates = {}
    for bucket in ("64x64", "256x256", "paper"):
        chosen = [s for s in kernels if _bucket(s.info["shape"]) == bucket]
        seconds = sum(s.duration for s in chosen)
        work = sum(s.info["chains"] * s.info["iterations"] for s in chosen)
        rates[bucket] = work / seconds if seconds else 0.0

    telemetry_launches = traced.delta("repro_kernel_launches_total")
    if telemetry_launches != launches:
        notes.append(f"telemetry counted {telemetry_launches:g} of {launches} kernel launches "
                     f"(worker processes ship metric deltas only on the batched path); "
                     f"kernel counts come from spans")
    gets = [s for s in spans if s.name == "MaterializationCache.get"]
    misses = sum(any(c.name == "GameSpec.materialize_tracked" for c in s.children) for s in gets)
    tele_hits = traced.delta("repro_matcache_hits_total")
    tele_misses = traced.delta("repro_matcache_misses_total")
    if tele_hits + tele_misses == len(gets):
        matcache_hit_ratio = tele_hits / len(gets) if gets else 0.0
    else:
        notes.append(f"telemetry counted {tele_hits + tele_misses:g} of {len(gets)} "
                     f"materialisations; the matcache hit ratio comes from spans")
        matcache_hit_ratio = (len(gets) - misses) / len(gets) if gets else 0.0

    submitted = traced.delta("repro_scheduler_jobs_submitted_total")
    completed = traced.delta("repro_scheduler_jobs_completed_total")
    dispatches = (traced.delta("repro_scheduler_batches_dispatched_total")
                  + traced.delta("repro_scheduler_shards_executed_total")
                  - traced.delta("repro_scheduler_batched_jobs_total"))
    worker_calls = sum(1 for s in spans if s.name in WORKER_ENTRIES)
    if dispatches != worker_calls:
        notes.append(f"telemetry implies {dispatches:g} dispatches, spans saw {worker_calls} "
                     f"worker calls")
    hits = (traced.delta("repro_scheduler_cache_hits_total")
            + traced.delta("repro_scheduler_jobs_coalesced_total"))
    overhead = seconds_per_job(traced_segments) / seconds_per_job(untraced_segments) - 1.0
    return {
        "service.scheduler.self_s": per_job(self_seconds["service.scheduler"]),
        "service.scheduler.worker_busy_ratio": worker_busy / (MAX_WORKERS * wall),
        "service.scheduler.dispatches": dispatches,
        "service.scheduler.jobs_per_dispatch": completed / dispatches if dispatches else 0.0,
        "service.scheduler.retries": traced.delta("repro_resilience_retries_total"),
        "service.scheduler.failed": traced.delta("repro_scheduler_jobs_failed_total"),
        "service.cache.hit_ratio": hits / submitted if submitted else 0.0,
        "service.jobs.parse_s": per_job(named(PARSE_NAMES)),
        "service.batching.busy_s": per_job(named(("execute_job_batch_payload",))),
        "service.batching.self_s": per_job(self_seconds["service.batching"]),
        "service.portfolio.shard_busy_s": per_job(named(("solve_shard_payload",))),
        "service.portfolio.settle_s": per_job(named(SETTLE_NAMES)),
        "games.materialize_s": per_job(layer_seconds("games")),
        "games.matcache_hit_ratio": matcache_hit_ratio,
        "core.solve_s": per_job(layer_seconds("core")),
        "core.classify_s": per_job(self_seconds["core"]),
        "core.launches": launches,
        "core.chains_per_launch": chains / launches if launches else 0.0,
        "annealing.kernel_s": per_job(layer_seconds("annealing")),
        "annealing.proposals": proposals,
        "annealing.accept_ratio": accepted / proposals if proposals else 0.0,
        "annealing.proposals_per_s.64x64": rates["64x64"],
        "annealing.proposals_per_s.256x256": rates["256x256"],
        "annealing.proposals_per_s.paper": rates["paper"],
        "annealing.bytes_per_s_computed": computed_bytes / kernel_seconds if kernel_seconds else 0.0,
        "annealing.solo_proposals_per_s": reference["annealing.solo_proposals_per_s"],
        "hardware.evaluate_s": per_job(layer_seconds("hardware")),
        "host.mem_bw_bytes_per_s": reference["host.mem_bw_bytes_per_s"],
        "trace.overhead_ratio": overhead,
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload; print the metrics and the result line; return the exit code."""
    executor = workload.executor
    notes: List[str] = []
    if trace and executor == "process" and multiprocessing.get_start_method() != "fork":
        executor = "thread"
        notes.append("traced run uses the thread executor: worker processes are not forked")
    gate = Gate(workload)
    rng = np.random.default_rng([seed, REPLAY_WINDOW])
    keep = set(rng.choice(REPLAY_WINDOW, size=SOLO_SAMPLES[workload.name], replace=False))

    setup_samples = time_set_ups(workload, executor)
    client = InProcessClient(executor=executor, max_workers=MAX_WORKERS)
    try:
        warm(workload, client, seed)
        with refs.MemorySampler() as memory:

            def check(segment: Segment) -> None:
                with memory.paused():
                    gate.verify(segment.jobs)

            segments = run_pass(workload, client, seed, seconds, keep=keep, after_segment=check)
    finally:
        close(client)
    before = len(setup_samples)
    setup_samples += time_set_ups(workload, executor)
    setup_s = statistics.median(setup_samples)
    notes.append(f"setup_s is the median of {len(setup_samples)} set-ups, {before} before "
                 f"the pass and {len(setup_samples) - before} after it")
    measured = whole(segments)
    gate.replay([(job.request, job.outcome.to_dict())
                 for job in measured.jobs if job.outcome is not None])
    traced_segments = recorder = None
    if trace:
        # Installed before the traced client forks its worker pool.
        recorder = SpanRecorder()
        recorder.install()
        try:
            client = InProcessClient(executor=executor, max_workers=MAX_WORKERS)
            try:
                warm(workload, client, seed)
                traced_segments = run_pass(workload, client, seed, seconds, recorder)
            finally:
                close(client)
        finally:
            recorder.uninstall()
        gate.verify(whole(traced_segments).jobs)

    bandwidth, bandwidth_note = refs.memory_bandwidth()
    reference = {
        "host.mem_bw_bytes_per_s": bandwidth,
        "annealing.solo_proposals_per_s": refs.solo_kernel_rate(seed),
    }
    notes.append(f"host.mem_bw_bytes_per_s = {bandwidth:.4g}: {bandwidth_note}")
    notes.append(f"annealing.solo_proposals_per_s = "
                 f"{reference['annealing.solo_proposals_per_s']:.4g}: one core, in process, "
                 f"sweep-solve's first 16 games at 64 chains each")
    if trace:
        metrics = per_layer(traced_segments, segments, recorder, reference, notes)
    else:
        metrics = end_to_end(workload, segments, setup_s, memory.peak_mib, gate, notes)
    catalogue = listed_metrics("per_layer" if trace else "end_to_end")
    if set(metrics) != set(catalogue):
        raise RuntimeError(f"metrics differ from {BENCHMARK_JSON.name}: "
                           f"{sorted(set(metrics) ^ set(catalogue))}")
    correct = gate.failed == 0
    notes.append(
        f"gate: {gate.checked} of {gate.attempted} outcomes delivered and verified "
        f"({gate.equilibria} equilibria re-checked as epsilon-NE), ground truth "
        f"{gate.found}/{gate.truth} found, {gate.replayed} solo replays, "
        f"{gate.failed} failed")
    notes.extend(f"gate failure: {problem}" for problem in gate.problems[:10])

    print(f"perfbench {workload.name}: seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"executor={executor} max_workers={MAX_WORKERS} cpus={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__}")
    print(f"  workload: {workload.why}")
    for name, value in metrics.items():
        unit, better = catalogue[name]
        print(f"  {name:<38} {value:>16.6g} {unit:<14} ({better} is better)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(value), "unit": catalogue[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1

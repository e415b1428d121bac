"""End-to-end telemetry tests: scheduler metrics, traces, worker deltas.

Covers the observability contract across the stack: the registry is the
only counters surface (``api.sweep`` reads its cache hits there), per-job
trace timelines decompose the end-to-end latency, worker *processes*
ship metric deltas home on batch payloads, and the ``telemetry`` client
op agrees with the Prometheus text exposition.
"""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.backends import SolveSpec
from repro.core.config import CNashConfig
from repro.games.library import battle_of_the_sexes
from repro.games.spec import GameSpec
from repro.service.client import InProcessClient
from repro.service.jobs import JobRecord, SolveOutcome, SolveRequest
from repro.telemetry import (
    phase_durations,
    render_prometheus,
    temporary_registry,
    validate_phases,
)

FAST = CNashConfig(num_intervals=4, num_iterations=120)


def _spec_requests(count, seed0=0, num_runs=4):
    return [
        SolveRequest(
            game=GameSpec.generator("random", num_row_actions=4, seed=seed0 + i),
            policy="cnash",
            num_runs=num_runs,
            seed=seed0 + i,
            config=FAST,
        )
        for i in range(count)
    ]


def _sweep(client, requests):
    job_ids = client.submit_many(requests)
    return client.results(job_ids)


# ----------------------------------------------------------------------
# Scheduler metrics
# ----------------------------------------------------------------------
class _StatslessClient:
    """Forwards to an in-process client; touching ``stats`` fails the test."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        assert name != "stats", "the registry is the only stats surface"
        return getattr(self.inner, name)


def test_repeated_sweep_reads_its_cache_hits_from_the_registry(counts):
    games = [GameSpec.generator("random", num_row_actions=4, seed=i) for i in range(5)]
    spec = SolveSpec(num_runs=4, seed=3, options={"config": FAST})
    with InProcessClient(executor="thread", max_workers=2, shard_size=8) as inner:
        client = _StatslessClient(inner)
        first = api.sweep(games, spec=spec, client=client)
        hits = counts("repro_scheduler_cache_hits_total")
        repeat = api.sweep(games, spec=spec, client=client)
    assert first.cache_hits == 0
    assert repeat.cache_hits == repeat.num_jobs == len(games)
    assert counts("repro_scheduler_cache_hits_total") - hits == repeat.num_jobs


def test_telemetry_snapshot_agrees_with_prometheus_rendering():
    with temporary_registry():
        with InProcessClient(executor="thread", max_workers=2, shard_size=8) as client:
            _sweep(client, _spec_requests(3))
            snapshot = client.telemetry()
        text = render_prometheus(snapshot)
        for name, family in snapshot["families"].items():
            assert name in text
            if family["type"] == "counter":
                for sample in family["samples"]:
                    if not sample["labels"]:
                        assert f"{name} {int(sample['value'])}" in text


def test_job_latency_histogram_labelled_by_policy_and_status():
    with temporary_registry() as reg:
        with InProcessClient(executor="thread", max_workers=2, shard_size=8) as client:
            _sweep(client, _spec_requests(3))
        family = reg.get("repro_scheduler_job_latency_seconds")
        child = family.labels(policy="cnash", status="done")
        assert child.count == 3
        assert child.sum > 0.0


def test_queue_gauges_detach_on_close():
    with temporary_registry() as reg:
        with InProcessClient(executor="thread", max_workers=2) as client:
            client.solve(
                SolveRequest(game=battle_of_the_sexes(), policy="cnash",
                             num_runs=4, seed=0, config=FAST)
            )
            depth = reg.get("repro_scheduler_queue_depth")
            assert depth.value == 0  # idle after the solve
        # After close the gauge must not call into the dead scheduler.
        assert reg.get("repro_scheduler_queue_depth").value == 0


# ----------------------------------------------------------------------
# Trace timelines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_traces_decompose_end_to_end_latency(executor):
    with temporary_registry():
        with InProcessClient(executor=executor, max_workers=2, shard_size=8) as client:
            start = time.perf_counter()
            outcomes = _sweep(client, _spec_requests(4, seed0=20))
            wall = time.perf_counter() - start
        for outcome in outcomes:
            assert outcome.trace, "computed outcome is missing its trace"
            validate_phases(outcome.trace)
            top = [p for p in outcome.trace if p["depth"] == 0]
            names = [p["name"] for p in top]
            assert names[0] == "queue"
            assert names[-1] == "settle"
            assert "run" in names
            # Depth-0 cuts are contiguous: their durations sum to the
            # job's end-to-end latency (and never exceed the sweep wall
            # clock by more than scheduling noise).
            total_s = sum(phase_durations(top).values())
            end_to_end_s = top[-1]["end_ms"] / 1000.0
            assert total_s == pytest.approx(end_to_end_s, rel=1e-6)
            assert total_s <= wall * 1.10


def test_worker_subphases_nest_inside_the_run_window():
    with temporary_registry():
        with InProcessClient(executor="thread", max_workers=2, shard_size=8) as client:
            outcomes = _sweep(client, _spec_requests(4, seed0=40))
        saw_kernel = False
        for outcome in outcomes:
            run = next(p for p in outcome.trace if p["name"] == "run")
            for phase in outcome.trace:
                if phase["depth"] != 1:
                    continue
                saw_kernel = saw_kernel or phase["name"] == "kernel"
                assert phase["start_ms"] >= run["start_ms"] - 1e-3
                assert phase["end_ms"] <= run["end_ms"] + 1e-3
        assert saw_kernel, "no worker kernel span was spliced into any trace"


def test_cache_hits_carry_no_trace_and_results_stay_byte_identical():
    request = SolveRequest(
        game=battle_of_the_sexes(), policy="cnash", num_runs=4, seed=0, config=FAST
    )
    with temporary_registry():
        with InProcessClient(executor="thread", max_workers=2) as client:
            first = client.solve(request)
            repeat = client.solve(request)
    assert first.trace  # computed: traced
    assert repeat.trace is None  # cache-served: execution never happened
    first_dict, repeat_dict = first.to_dict(), repeat.to_dict()
    first_dict.pop("trace", None)
    assert "trace" not in repeat_dict  # omitted-when-None wire form
    assert repeat_dict == first_dict


def test_trace_survives_outcome_wire_roundtrip():
    trace = [{"name": "queue", "start_ms": 0.0, "end_ms": 1.0, "depth": 0}]
    outcome = SolveOutcome(
        fingerprint="fp", policy="cnash", backend="cnash", success_rate=1.0,
        equilibria=[], trace=trace,
    )
    restored = SolveOutcome.from_dict(outcome.to_dict())
    assert restored.trace == trace
    bare = SolveOutcome(
        fingerprint="fp", policy="cnash", backend="cnash", success_rate=1.0,
        equilibria=[],
    )
    assert "trace" not in bare.to_dict()


# ----------------------------------------------------------------------
# Worker-process delta aggregation
# ----------------------------------------------------------------------
def test_process_workers_ship_metric_deltas_home():
    with temporary_registry() as reg:
        with InProcessClient(executor="process", max_workers=2, shard_size=8) as client:
            _sweep(client, _spec_requests(4, seed0=60))
        # Kernel launches happen only inside worker processes; seeing
        # them here proves the delta made it back and merged.
        launches = reg.get("repro_kernel_launches_total")
        assert launches is not None and launches.value > 0
        proposals = reg.get("repro_kernel_proposals_total")
        assert proposals.value >= FAST.num_iterations * 4


def test_thread_workers_do_not_double_count():
    with temporary_registry() as reg:
        with InProcessClient(executor="thread", max_workers=2, shard_size=8) as client:
            _sweep(client, _spec_requests(3, seed0=80))
        # Threads share the parent registry; the batch response must not
        # additionally merge a delta (which would double every count).
        completed = reg.get("repro_scheduler_jobs_completed_total")
        assert completed.value == 3
        launches = reg.get("repro_kernel_launches_total")
        assert 1 <= launches.value <= 3  # one per launch, never doubled


# ----------------------------------------------------------------------
# Monotonic deadline math
# ----------------------------------------------------------------------
def test_job_record_deadline_uses_monotonic_clock():
    request = SolveRequest(
        game=battle_of_the_sexes(), policy="cnash", num_runs=2, seed=0,
        config=FAST, deadline_s=10.0,
    )
    record = JobRecord(job_id="j1", request=request)
    assert record.elapsed() < 1.0
    remaining = record.deadline_remaining()
    assert remaining is not None and 9.0 < remaining <= 10.0
    # Stepping the wall clock must not affect deadline math: the record
    # anchors on time.monotonic(), so only monotonic elapsed counts.
    record.submitted_monotonic -= 4.0
    assert record.deadline_remaining() == pytest.approx(6.0, abs=0.5)
    record.submitted_monotonic -= 100.0
    assert record.deadline_remaining() < 0  # expired


def test_backend_latency_histogram_has_backend_label():
    with temporary_registry() as reg:
        with InProcessClient(executor="thread", max_workers=2) as client:
            client.solve(
                SolveRequest(game=battle_of_the_sexes(), policy="exact",
                             num_runs=1, seed=0, config=FAST)
            )
        family = reg.get("repro_backend_solve_seconds")
        assert family.labels(backend="exact").count == 1

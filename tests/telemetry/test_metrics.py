"""Tests for the telemetry metrics primitives.

Histogram bucket/quantile math is checked against known distributions,
counters under genuine thread contention, and the worker→parent
aggregation protocol (``export_delta`` / ``merge``) both in-process and
across real forked processes.
"""

from __future__ import annotations

import math
import multiprocessing
import threading

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    registry,
    family_total,
    render_prometheus,
    temporary_registry,
)


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
def test_counter_basics():
    reg = MetricsRegistry()
    jobs = reg.counter("repro_test_jobs_total", "help text")
    jobs.inc()
    jobs.inc(4)
    assert jobs.value == 5
    with pytest.raises(ValueError):
        jobs.inc(-1)


def test_counter_labels_key_independent_of_keyword_order():
    reg = MetricsRegistry()
    family = reg.counter("repro_test_labelled_total")
    family.labels(policy="cnash", status="done").inc()
    family.labels(status="done", policy="cnash").inc()
    assert family.labels(policy="cnash", status="done").value == 2


def test_declaration_is_idempotent_but_kind_mismatch_raises():
    reg = MetricsRegistry()
    first = reg.counter("repro_test_total")
    assert reg.counter("repro_test_total") is first
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("repro_test_total")


def test_gauge_set_function_is_computed_at_collection():
    reg = MetricsRegistry()
    depth = reg.gauge("repro_test_depth")
    state = {"value": 3}
    depth.set_function(lambda: state["value"])
    assert depth.value == 3
    state["value"] = 7
    sample = reg.snapshot()["families"]["repro_test_depth"]["samples"][0]
    assert sample["value"] == 7
    depth.set_function(None)
    depth.set(1)
    assert depth.value == 1


def test_counter_thread_safety_under_concurrent_increments():
    reg = MetricsRegistry()
    counter = reg.counter("repro_test_contended_total")
    histogram = reg.histogram("repro_test_contended_seconds", boundaries=(0.5,))
    n_threads, per_thread = 8, 2000

    def work():
        for _ in range(per_thread):
            counter.inc()
            histogram.observe(0.1)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == n_threads * per_thread
    assert histogram.count == n_threads * per_thread


# ----------------------------------------------------------------------
# Histogram bucket/quantile math
# ----------------------------------------------------------------------
def test_histogram_bucketing_against_known_values():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_test_seconds", boundaries=(0.01, 0.1, 1.0))
    for value in (0.005, 0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    sample = reg.snapshot()["families"]["repro_test_seconds"]["samples"][0]
    # Non-cumulative counts per bucket: <=0.01, <=0.1, <=1.0, +Inf.
    assert [count for _, count in sample["buckets"]] == [2, 1, 1, 1]
    assert sample["count"] == 5
    assert sample["sum"] == pytest.approx(5.56)


def test_histogram_boundary_values_fall_in_their_bucket():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_test_edges", boundaries=(1.0, 2.0))
    hist.observe(1.0)  # le=1.0 bucket (upper bound inclusive)
    hist.observe(2.0)
    sample = reg.snapshot()["families"]["repro_test_edges"]["samples"][0]
    assert [count for _, count in sample["buckets"]] == [1, 1, 0]


def test_histogram_quantiles_on_uniform_distribution():
    reg = MetricsRegistry()
    bounds = tuple(i / 10 for i in range(1, 11))  # 0.1 .. 1.0
    hist = reg.histogram("repro_test_uniform", boundaries=bounds)
    # 1000 uniform values on (0, 1]: quantile(q) ~= q.
    for i in range(1, 1001):
        hist.observe(i / 1000)
    for q in (0.1, 0.5, 0.9):
        assert hist.quantile(q) == pytest.approx(q, abs=0.1)
    assert hist.quantile(0.0) == 0.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_open_bucket_reports_largest_bound():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_test_openend", boundaries=(1.0,))
    hist.observe(100.0)
    assert hist.quantile(0.99) == 1.0  # cannot resolve beyond the last bound


def test_histogram_rejects_bad_boundaries():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("repro_test_bad", boundaries=())
    with pytest.raises(ValueError):
        reg.histogram("repro_test_bad2", boundaries=(2.0, 1.0))


def test_default_latency_buckets_are_strictly_increasing():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))
    assert DEFAULT_LATENCY_BUCKETS[0] < 0.001 < 30.0 <= DEFAULT_LATENCY_BUCKETS[-1]


# ----------------------------------------------------------------------
# Delta export / merge (the worker→parent aggregation protocol)
# ----------------------------------------------------------------------
def test_export_delta_roundtrip_and_watermark():
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    worker.counter("repro_test_jobs_total").inc(3)
    worker.histogram("repro_test_seconds", boundaries=(1.0,)).observe(0.5)
    worker.gauge("repro_test_depth").set(9)  # gauges never export

    delta = worker.export_delta()
    assert "repro_test_depth" not in delta
    parent.merge(delta)
    assert parent.get("repro_test_jobs_total").value == 3
    assert parent.get("repro_test_seconds").count == 1

    # The export watermark advances: an immediate re-export is empty.
    assert worker.export_delta() == {}
    worker.counter("repro_test_jobs_total").inc()
    parent.merge(worker.export_delta())
    assert parent.get("repro_test_jobs_total").value == 4


def test_merge_declares_missing_families_with_boundaries():
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    worker.histogram("repro_test_worker_only", boundaries=(0.1, 1.0)).observe(0.05)
    parent.merge(worker.export_delta())
    family = parent.get("repro_test_worker_only")
    assert family is not None
    assert family.boundaries == (0.1, 1.0)
    assert family.count == 1


def test_merge_preserves_labelled_children():
    worker = MetricsRegistry()
    parent = MetricsRegistry()
    parent.counter("repro_test_by_policy_total").labels(policy="cnash").inc(1)
    worker.counter("repro_test_by_policy_total").labels(policy="cnash").inc(2)
    worker.counter("repro_test_by_policy_total").labels(policy="exact").inc(5)
    parent.merge(worker.export_delta())
    family = parent.get("repro_test_by_policy_total")
    assert family.labels(policy="cnash").value == 3
    assert family.labels(policy="exact").value == 5


def _fork_child(queue):
    # Runs in a forked child: the inherited registry must reset its
    # values (not its declarations) before exporting, so the delta
    # contains only child-own work.
    reg = registry()
    reg.counter("repro_test_forked_total").inc(2)
    queue.put(reg.export_delta())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_forked_child_exports_only_its_own_work():
    with temporary_registry() as reg:
        reg.counter("repro_test_forked_total").inc(100)  # parent-side work
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_fork_child, args=(queue,))
        proc.start()
        delta = queue.get(timeout=30)
        proc.join(timeout=30)
        ((key, payload),) = delta["repro_test_forked_total"]["samples"]
        assert payload["value"] == 2  # not 102: inherited state was reset
        reg.merge(delta)
        assert reg.get("repro_test_forked_total").value == 102


# ----------------------------------------------------------------------
# Reading snapshots and the global registry
# ----------------------------------------------------------------------
def test_family_total_sums_matching_label_children():
    reg = MetricsRegistry()
    retries = reg.counter("repro_test_retries_total")
    retries.labels(fault_class="transient").inc(2)
    retries.labels(fault_class="worker_death").inc()
    snapshot = reg.snapshot()
    assert family_total(snapshot, "repro_test_retries_total") == 3
    assert family_total(snapshot, "repro_test_retries_total", fault_class="transient") == 2
    assert family_total(snapshot, "repro_test_retries_total", fault_class="solver_miss") == 0
    assert family_total(snapshot, "repro_test_never_declared_total") == 0


def test_temporary_registry_isolates_and_restores():
    outer = registry()
    with temporary_registry() as reg:
        assert registry() is reg
        reg.counter("repro_test_temp_total").inc()
        assert reg.get("repro_test_temp_total").value == 1
    assert registry() is outer


def test_metric_name_validation():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("not a valid name!")


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_prometheus_cumulative_buckets_and_values():
    reg = MetricsRegistry()
    reg.counter("repro_test_jobs_total", "Jobs.").inc(3)
    hist = reg.histogram("repro_test_seconds", "Latency.", boundaries=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    reg.gauge("repro_test_depth").set(2)
    text = render_prometheus(reg.snapshot())
    assert "# TYPE repro_test_jobs_total counter" in text
    assert "repro_test_jobs_total 3" in text
    # Buckets render cumulatively even though storage is per-bucket.
    assert 'repro_test_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_test_seconds_bucket{le="1"} 2' in text
    assert 'repro_test_seconds_bucket{le="+Inf"} 3' in text
    assert "repro_test_seconds_count 3" in text
    assert math.isclose(
        float(text.split("repro_test_seconds_sum ")[1].splitlines()[0]), 5.55
    )
    assert "repro_test_depth 2" in text


def test_render_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("repro_test_esc_total").labels(name='we"ird\nvalue').inc()
    text = render_prometheus(reg.snapshot())
    assert r'name="we\"ird\nvalue"' in text

"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import listed_metrics  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Span,
    link_spans,
    self_time,
    slot_accounting,
    tail_percentile,
    union_length,
)
from perfbench.workloads import (  # noqa: E402
    PAPER_TABLE1,
    SWEEP_OVERHEAD,
    SWEEP_SOLVE,
    WORKLOADS,
    paper_round,
    sweep_spec,
    sweep_stream,
)


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (10, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_never_leaves_fewer_than_ten_beyond():
    for count in range(20, 20000, 7):
        pct = tail_percentile(count)
        assert count * (1 - pct / 100) >= 10 - 1e-9


# ----------------------------------------------------------------------
# Self time and slot accounting
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7), (7, 7)]) == 4


def _span(layer, start, end, slot=(1, 1)):
    return Span(layer, layer, start, end, slot)


def test_self_time_is_span_minus_union_of_children():
    outer = _span("core", 0.0, 10.0)
    first = _span("annealing", 1.0, 3.0)
    second = _span("annealing", 4.0, 6.0)
    nested = _span("hardware", 4.5, 5.0)
    link_spans([outer, first, second, nested])
    assert second.parent is outer and nested.parent is second
    assert self_time(outer, (0.0, 10.0)) == pytest.approx(6.0)
    assert self_time(second, (0.0, 10.0)) == pytest.approx(1.5)
    # Clipped to a window that cuts the first child in half.
    assert self_time(outer, (2.0, 10.0)) == pytest.approx(8.0 - 1.0 - 2.0)


def test_slot_self_times_plus_idle_sum_to_the_window():
    spans = [_span("api", 1.0, 9.0), _span("client", 2.0, 8.0),
             _span("service.batching", 0.5, 4.0, slot=(2, 2)),
             _span("core", 1.0, 3.0, slot=(2, 2))]
    by_slot = link_spans(spans)
    for slot_spans in by_slot.values():
        accounting = slot_accounting(slot_spans, (0.0, 10.0))
        assert sum(accounting.values()) == pytest.approx(10.0)
    worker = slot_accounting(by_slot[(2, 2)], (0.0, 10.0))
    assert worker == pytest.approx({"service.batching": 1.5, "core": 2.0, "idle": 6.5})


# ----------------------------------------------------------------------
# Seeded workload generation
# ----------------------------------------------------------------------
def _fingerprints(workload, seed, count=200):
    return [spec.fingerprint() for spec in itertools.islice(sweep_stream(workload, seed), count)]


@pytest.mark.parametrize("workload", [SWEEP_OVERHEAD, SWEEP_SOLVE])
def test_sweep_streams_are_deterministic_and_seed_dependent(workload):
    assert _fingerprints(workload, 3) == _fingerprints(workload, 3)
    assert not set(_fingerprints(workload, 3)) & set(_fingerprints(workload, 4))
    assert sweep_spec(workload, 3) == sweep_spec(workload, 3)
    assert sweep_spec(workload, 3).seed != sweep_spec(workload, 4).seed


def test_a_quarter_of_the_overhead_stream_repeats_at_most_once():
    fingerprints = _fingerprints(SWEEP_OVERHEAD, 9, 400)
    counts = Counter(fingerprints)
    assert max(counts.values()) == 2
    assert len(fingerprints) - len(counts) == 100


def test_solve_stream_has_three_64x64_games_per_256x256_game():
    specs = list(itertools.islice(sweep_stream(SWEEP_SOLVE, 1), 64))
    sizes = [spec.to_dict()["params"]["num_row_actions"] for spec in specs]
    assert sizes == [256 if index % 4 == 3 else 64 for index in range(64)]


def test_paper_rounds_are_seeded_and_fresh_per_round():
    first = paper_round(PAPER_TABLE1, 2, 0)
    assert [spec for _, _, spec in first] == [spec for _, _, spec in paper_round(PAPER_TABLE1, 2, 0)]
    assert first[0][2].seed != paper_round(PAPER_TABLE1, 2, 1)[0][2].seed
    assert first[0][2].seed != paper_round(PAPER_TABLE1, 3, 0)[0][2].seed
    assert all(spec.num_runs > 64 for _, _, spec in first)  # multi-shard jobs


# ----------------------------------------------------------------------
# BENCHMARK.json matches the catalogue in README.md
# ----------------------------------------------------------------------
def _readme_catalogue():
    """``(name, unit, better)`` of every row of the README's metric tables."""
    rows = set()
    for line in (ROOT / "perfbench" / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0].startswith("`") and cells[2] in ("higher", "lower"):
            rows.add((cells[0].strip("`"), cells[1], cells[2]))
    return rows


def test_benchmark_json_matches_the_readme_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    listed = {(name, unit, better) for section in ("end_to_end", "per_layer")
              for name, (unit, better) in listed_metrics(section).items()}
    assert listed == _readme_catalogue()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# Tracing and hygiene
# ----------------------------------------------------------------------
def test_wrappers_pickle_by_reference_and_uninstall_cleanly():
    import repro.service.batching as batching
    import repro.service.scheduler as scheduler
    from perfbench.tracing import SpanRecorder

    original = scheduler.execute_job_batch_payload
    recorder = SpanRecorder()
    recorder.install()
    try:
        wrapped = scheduler.execute_job_batch_payload
        assert wrapped is not original and batching.execute_job_batch_payload is wrapped
        assert pickle.loads(pickle.dumps(wrapped)) is wrapped
    finally:
        recorder.uninstall()
    assert scheduler.execute_job_batch_payload is original
    assert batching.execute_job_batch_payload is original


def test_harness_imports_no_pytest_benchmark_module():
    code = ("import sys; sys.path[0:0] = [sys.argv[1], sys.argv[1] + '/src']; "
            "import perfbench.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('benchmarks', 'conftest')))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _tree(path: Path):
    return {p.relative_to(path) for p in path.rglob("*")
            if "__pycache__" not in p.parts and ".git" not in p.parts}


def _shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_a_short_run_leaves_no_files_or_shm_segments():
    before_tree, before_shm = _tree(ROOT), _shm()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-overhead",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(listed_metrics("end_to_end"))
    assert _tree(ROOT) == before_tree
    assert _shm() <= before_shm


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-overhead",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""

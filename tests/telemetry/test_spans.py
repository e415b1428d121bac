"""Tests for trace timelines: span nesting, cut contiguity, splicing."""

from __future__ import annotations

import time

import pytest

from repro.telemetry import (
    Timeline,
    phase_durations,
    validate_phases,
)


def test_span_nesting_sets_depth():
    timeline = Timeline()
    with timeline.span("outer"):
        with timeline.span("inner"):
            pass
        with timeline.span("sibling", hint=1):
            pass
    wire = timeline.to_wire()
    by_name = {p["name"]: p for p in wire}
    assert by_name["outer"]["depth"] == 0
    assert by_name["inner"]["depth"] == 1
    assert by_name["sibling"]["depth"] == 1
    assert by_name["sibling"]["meta"] == {"hint": 1}
    # Children lie inside the parent window.
    assert by_name["outer"]["start_ms"] <= by_name["inner"]["start_ms"]
    assert by_name["inner"]["end_ms"] <= by_name["outer"]["end_ms"]
    validate_phases(wire)


def test_to_wire_orders_by_depth_then_start():
    timeline = Timeline()
    with timeline.span("a"):
        with timeline.span("a1"):
            pass
    with timeline.span("b"):
        pass
    names = [p["name"] for p in timeline.to_wire()]
    assert names == ["a", "b", "a1"]


def test_cuts_are_contiguous_and_sum_to_elapsed():
    timeline = Timeline()
    time.sleep(0.002)
    timeline.cut("queue")
    time.sleep(0.002)
    timeline.cut("run")
    timeline.cut("settle")
    wire = timeline.to_wire()
    validate_phases(wire)
    top = [p for p in wire if p["depth"] == 0]
    assert [p["name"] for p in top] == ["queue", "run", "settle"]
    assert top[0]["start_ms"] == 0.0
    for previous, current in zip(top, top[1:]):
        assert current["start_ms"] == previous["end_ms"]  # exactly contiguous
    total_ms = sum(p["end_ms"] - p["start_ms"] for p in top)
    assert total_ms == pytest.approx(top[-1]["end_ms"])


def test_skip_to_now_advances_cursor_without_recording():
    timeline = Timeline()
    time.sleep(0.001)
    timeline.skip_to_now()
    timeline.cut("run")
    (phase,) = timeline.phases
    assert phase["start_ms"] > 0.0
    assert timeline.cursor_ms() == phase["end_ms"]


def test_splice_rebases_offsets_and_depth():
    worker = Timeline()
    with worker.span("kernel"):
        time.sleep(0.001)
    parent = Timeline()
    time.sleep(0.002)
    offset = parent.cursor_ms()  # 0.0: nothing cut yet
    assert offset == 0.0
    parent.cut("queue")
    offset = parent.cursor_ms()
    parent.splice(worker.to_wire(), offset)
    parent.cut("run")
    wire = parent.to_wire()
    validate_phases(wire)
    spliced = next(p for p in wire if p["name"] == "kernel")
    run = next(p for p in wire if p["name"] == "run")
    assert spliced["depth"] == 1
    assert spliced["start_ms"] >= run["start_ms"]


def test_splice_tolerates_none_and_missing_depth():
    timeline = Timeline()
    timeline.splice(None, 0.0)
    timeline.splice([{"name": "x", "start_ms": 1.0, "end_ms": 2.0}], 10.0)
    (phase,) = timeline.phases
    assert phase["depth"] == 1
    assert phase["start_ms"] == 11.0


def test_record_keeps_meta():
    timeline = Timeline()
    origin = timeline.origin_ns
    timeline.record("kernel", origin, origin + 2_000_000, depth=1, fused_games=4)
    (phase,) = timeline.phases
    assert phase["end_ms"] == pytest.approx(2.0)
    assert phase["meta"] == {"fused_games": 4}


def test_span_ids_are_unique():
    assert Timeline().span_id != Timeline().span_id
    assert Timeline(span_id="fixed").span_id == "fixed"


# ----------------------------------------------------------------------
# Wire-form helpers
# ----------------------------------------------------------------------
def test_phase_durations_sums_repeats():
    wire = [
        {"name": "kernel", "start_ms": 0.0, "end_ms": 100.0, "depth": 0},
        {"name": "kernel", "start_ms": 200.0, "end_ms": 250.0, "depth": 0},
        {"name": "settle", "start_ms": 250.0, "end_ms": 300.0, "depth": 0},
    ]
    durations = phase_durations(wire)
    assert durations["kernel"] == pytest.approx(0.15)
    assert durations["settle"] == pytest.approx(0.05)
    assert phase_durations(None) == {}


def test_validate_phases_rejects_overlap_within_a_depth():
    wire = [
        {"name": "a", "start_ms": 0.0, "end_ms": 10.0, "depth": 0},
        {"name": "b", "start_ms": 5.0, "end_ms": 15.0, "depth": 0},
    ]
    with pytest.raises(ValueError, match="overlap"):
        validate_phases(wire)
    # The same windows on different depths are nesting, not overlap.
    wire[1]["depth"] = 1
    validate_phases(wire)


def test_validate_phases_rejects_negative_duration():
    with pytest.raises(ValueError, match="ends before it starts"):
        validate_phases([{"name": "a", "start_ms": 5.0, "end_ms": 1.0, "depth": 0}])


def test_validate_phases_tolerates_float_jitter_at_seams():
    validate_phases(
        [
            {"name": "a", "start_ms": 0.0, "end_ms": 10.0, "depth": 0},
            {"name": "b", "start_ms": 10.0 - 1e-4, "end_ms": 20.0, "depth": 0},
        ]
    )

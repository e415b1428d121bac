"""Tests for SolverBatchResult.merge and the JSON round trip."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import profiles_to_wire
from repro.core.config import CNashConfig
from repro.core.result import SolverBatchResult, SolverRunResult
from repro.core.solver import CNashSolver
from repro.core.strategy import QuantizedStrategyPair
from repro.games.equilibrium import StrategyProfile


def make_run(objective: float = -1.0, success: bool = True) -> SolverRunResult:
    return SolverRunResult(
        best_state=QuantizedStrategyPair(np.array([4, 0]), np.array([0, 4]), 4),
        best_objective=objective,
        is_equilibrium=success,
        classification="pure" if success else "error",
        iterations=100,
        iterations_to_best=17,
        acceptance_rate=0.5,
        objective_history=[0.0, -0.5, objective],
    )


def make_batch(name: str = "g", runs: int = 3, intervals: int = 4) -> SolverBatchResult:
    return SolverBatchResult(
        game_name=name,
        runs=[make_run(objective=-float(i)) for i in range(runs)],
        num_intervals=intervals,
        wall_clock_seconds=0.25,
    )


class TestRunRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        run = make_run()
        restored = SolverRunResult.from_dict(json.loads(json.dumps(run.to_dict())))
        assert restored.to_dict() == run.to_dict()
        assert np.array_equal(restored.best_state.p_counts, run.best_state.p_counts)
        assert restored.best_state.num_intervals == run.best_state.num_intervals
        assert restored.success == run.success
        assert restored.objective_history == run.objective_history

    def test_missing_history_defaults_empty(self):
        payload = make_run().to_dict()
        del payload["objective_history"]
        assert SolverRunResult.from_dict(payload).objective_history == []


@st.composite
def count_pairs(draw):
    """int64 interval counts, up to 2**40 intervals, sharing one total."""
    p_counts = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
    total = max(sum(p_counts), 1)
    p_counts[0] += total - sum(p_counts)
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=5)))
    q_counts = np.diff([0, *cuts, total])
    return np.array(p_counts, dtype=np.int64), q_counts.astype(np.int64), total


float64s = st.floats(allow_nan=False, width=64)


class TestWireEncoding:
    """Whole-array ``tolist()`` encodings print the same JSON as per-element casts."""

    @given(counts=count_pairs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_run_counts_encode_like_per_element_ints(self, counts):
        p_counts, q_counts, total = counts
        run = make_run()
        run.best_state = QuantizedStrategyPair(p_counts, q_counts, total)
        per_element = {
            **run.to_dict(),
            "p_counts": [int(c) for c in run.best_state.p_counts],
            "q_counts": [int(c) for c in run.best_state.q_counts],
        }
        assert json.dumps(run.to_dict()) == json.dumps(per_element)

    @given(
        vectors=st.lists(
            st.tuples(
                st.lists(float64s, min_size=1, max_size=6),
                st.lists(float64s, min_size=1, max_size=6),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_profiles_encode_like_per_element_floats(self, vectors):
        profiles = [
            StrategyProfile.trusted(np.array(p, dtype=np.float64), np.array(q, dtype=np.float64))
            for p, q in vectors
        ]
        per_element = [
            {"p": [float(x) for x in profile.p], "q": [float(x) for x in profile.q]}
            for profile in profiles
        ]
        assert json.dumps(profiles_to_wire(profiles)) == json.dumps(per_element)


class TestBatchRoundTrip:
    def test_json_round_trip_preserves_statistics(self):
        batch = make_batch(runs=4)
        restored = SolverBatchResult.from_dict(json.loads(json.dumps(batch.to_dict())))
        assert restored.to_dict() == batch.to_dict()
        assert restored.num_runs == 4
        assert restored.success_rate == batch.success_rate
        assert restored.classification_fractions() == batch.classification_fractions()
        assert restored.mean_iterations_to_solution() == batch.mean_iterations_to_solution()

    def test_solver_output_round_trips(self, bos):
        solver = CNashSolver(bos, CNashConfig(num_intervals=4, num_iterations=300))
        batch = solver.solve_batch(num_runs=5, seed=0)
        restored = SolverBatchResult.from_dict(json.loads(json.dumps(batch.to_dict())))
        assert restored.success_rate == batch.success_rate
        assert [r.to_dict() for r in restored.runs] == [r.to_dict() for r in batch.runs]


class TestMerge:
    def test_merge_concatenates_in_order(self):
        a = make_batch(runs=2)
        b = make_batch(runs=3)
        merged = SolverBatchResult.merge([a, b])
        assert merged.num_runs == 5
        assert [r.best_objective for r in merged.runs] == [
            r.best_objective for r in list(a.runs) + list(b.runs)
        ]
        assert merged.wall_clock_seconds == pytest.approx(0.5)

    def test_merge_single_batch_is_identity_on_runs(self):
        batch = make_batch(runs=3)
        merged = SolverBatchResult.merge([batch])
        assert [r.to_dict() for r in merged.runs] == [r.to_dict() for r in batch.runs]

    def test_merged_success_rate_is_the_pooled_rate(self):
        success = SolverBatchResult("g", [make_run(success=True)] * 3, 4)
        failure = SolverBatchResult("g", [make_run(success=False)], 4)
        merged = SolverBatchResult.merge([success, failure])
        assert merged.success_rate == pytest.approx(0.75)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SolverBatchResult.merge([])

    def test_merge_rejects_mismatched_games(self):
        with pytest.raises(ValueError, match="different games"):
            SolverBatchResult.merge([make_batch(name="a"), make_batch(name="b")])

    def test_merge_rejects_mismatched_intervals(self):
        with pytest.raises(ValueError, match="num_intervals"):
            SolverBatchResult.merge([make_batch(intervals=4), make_batch(intervals=8)])

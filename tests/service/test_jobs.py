"""Tests for solve requests, fingerprints and wire round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.annealing.acceptance import GlauberAcceptance
from repro.core.config import CNashConfig
from repro.games.library import battle_of_the_sexes, bird_game
from repro.service.jobs import (
    JobRecord,
    JobStatus,
    SolveOutcome,
    SolveRequest,
    game_from_dict,
    game_to_dict,
)


def _request(**overrides) -> SolveRequest:
    params = dict(
        game=battle_of_the_sexes(),
        policy="cnash",
        num_runs=10,
        seed=0,
        config=CNashConfig(num_intervals=4, num_iterations=200),
    )
    params.update(overrides)
    return SolveRequest(**params)


class TestFingerprint:
    def test_identical_requests_share_a_fingerprint(self):
        assert _request().fingerprint() == _request().fingerprint()

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = _request().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # parses as hex

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 1},
            {"num_runs": 11},
            {"policy": "exact"},
            {"game": bird_game()},
            {"config": CNashConfig(num_intervals=6, num_iterations=200)},
            {"config": CNashConfig(num_intervals=4, num_iterations=201)},
            {"config": CNashConfig(num_intervals=4, num_iterations=200, acceptance=GlauberAcceptance())},
        ],
    )
    def test_any_work_field_changes_the_fingerprint(self, overrides):
        assert _request(**overrides).fingerprint() != _request().fingerprint()

    def test_serving_knobs_do_not_change_the_fingerprint(self):
        base = _request().fingerprint()
        assert _request(priority=-5).fingerprint() == base
        assert _request(deadline_s=10.0).fingerprint() == base
        assert _request(use_cache=False).fingerprint() == base

    def test_fingerprint_survives_the_wire(self):
        request = _request()
        round_tripped = SolveRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert round_tripped.fingerprint() == request.fingerprint()

    def test_fingerprint_canonicalises_exactly_once(self, monkeypatch):
        # Memoised per instance: the scheduler fingerprints a request at
        # submit, cache lookup and batch settle — only the first call may
        # pay the canonical-JSON walk over config + game.
        import repro.service.jobs as jobs_module

        calls = {"count": 0}
        real = jobs_module.canonical_json

        def counting(payload):
            calls["count"] += 1
            return real(payload)

        monkeypatch.setattr(jobs_module, "canonical_json", counting)
        request = _request()
        first = request.fingerprint()
        for _ in range(5):
            assert request.fingerprint() == first
        assert calls["count"] == 1

    def test_request_fingerprints_stable_without_epsilon(self):
        # The epsilon field joined the schema later; unset it must leave
        # historical fingerprints (= persisted cache keys) unchanged.
        request = _request()
        assert request.fingerprint() == _request().fingerprint()
        assert _request(epsilon=0.5).fingerprint() != request.fingerprint()


class TestWireRoundTrips:
    def test_game_round_trip(self):
        game = bird_game()
        restored = game_from_dict(json.loads(json.dumps(game_to_dict(game))))
        assert restored.name == game.name
        assert np.array_equal(restored.payoff_row, game.payoff_row)
        assert np.array_equal(restored.payoff_col, game.payoff_col)

    def test_config_round_trip_preserves_every_field(self):
        config = CNashConfig(
            num_intervals=6,
            num_iterations=321,
            initial_temperature=2.0,
            final_temperature=0.01,
            use_hardware=True,
            cells_per_element=2,
            adc_bits=8,
            epsilon=0.05,
            pure_start_bias=0.25,
            record_history=True,
            execution="sequential",
            acceptance=GlauberAcceptance(),
        )
        restored = CNashConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_request_round_trip(self):
        request = _request(policy="portfolio", priority=3, deadline_s=5.0, use_cache=False)
        restored = SolveRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored.policy == "portfolio"
        assert restored.priority == 3
        assert restored.deadline_s == 5.0
        assert restored.use_cache is False
        assert restored.config == request.config

    def test_outcome_round_trip(self):
        outcome = SolveOutcome(
            fingerprint="ab" * 32,
            policy="cnash",
            backend="cnash",
            success_rate=0.5,
            equilibria=[{"p": [1.0, 0.0], "q": [0.0, 1.0]}],
            shards=3,
        )
        restored = SolveOutcome.from_dict(json.loads(json.dumps(outcome.to_dict())))
        assert restored.to_dict() == outcome.to_dict()
        assert restored.num_equilibria == 1
        assert restored.batch_result() is None


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _request(policy="quantum")

    @pytest.mark.parametrize("num_runs", [0, -3, 1.5, True])
    def test_bad_num_runs_rejected(self, num_runs):
        with pytest.raises(ValueError, match="num_runs"):
            _request(num_runs=num_runs)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            _request(deadline_s=0.0)

    @pytest.mark.parametrize("key,value", [("evaluation", "full"), ("move_both_players", True)])
    def test_retired_config_keys_rejected_by_name(self, key, value):
        """Config keys that once picked a kernel are refused, not ignored."""
        data = json.loads(json.dumps(_request().to_dict()))
        data["config"][key] = value
        with pytest.raises(TypeError, match=key):
            SolveRequest.from_dict(data)

    def test_cacheable_requires_a_seed(self):
        assert _request(seed=0).cacheable
        assert not _request(seed=None).cacheable
        assert not _request(seed=0, use_cache=False).cacheable


class TestJobRecord:
    def test_lifecycle_fields(self):
        record = JobRecord(request=_request())
        assert record.status == JobStatus.PENDING
        assert not record.done
        payload = record.to_dict()
        assert payload["status"] == JobStatus.PENDING
        assert payload["fingerprint"] == record.request.fingerprint()
        assert payload["outcome"] is None

    def test_terminal_states(self):
        record = JobRecord(request=_request())
        for status in JobStatus.TERMINAL:
            record.status = status
            assert record.done

    def test_deadline_remaining(self):
        unbounded = JobRecord(request=_request())
        assert unbounded.deadline_remaining() is None
        bounded = JobRecord(request=_request(deadline_s=60.0))
        remaining = bounded.deadline_remaining()
        assert remaining is not None and 0 < remaining <= 60.0

"""Tests for multi-backend dispatch and the shard plan."""

from __future__ import annotations

import os
import time

import pytest

from repro.backends import profiles_from_wire
from repro.baselines.dwave_like import DWaveLikeSolver
from repro.core.config import CNashConfig
from repro.core.solver import CNashSolver
from repro.games.equilibrium import is_epsilon_equilibrium
from repro.games.library import (
    battle_of_the_sexes,
    bird_game,
    matching_pennies,
    paper_benchmark_games,
)
from repro.games.support_enumeration import support_enumeration
from repro.service.jobs import SolveOutcome, SolveRequest
from repro.service.portfolio import (
    execute_request,
    execute_request_payload,
    outcome_from_batch,
    shard_payloads,
    solve_cnash,
    solve_shard_payload,
)
from repro.utils.serialization import canonical_json

FAST = CNashConfig(num_intervals=4, num_iterations=300)


def request_for(game, policy="cnash", **overrides) -> SolveRequest:
    params = dict(game=game, policy=policy, num_runs=10, seed=0, config=FAST)
    params.update(overrides)
    return SolveRequest(**params)


def normalised_wire(outcome: SolveOutcome) -> str:
    """Canonical JSON of an outcome with timing fields zeroed."""
    payload = outcome.to_dict()
    payload["wall_clock_seconds"] = 0.0
    if payload.get("batch") is not None:
        payload["batch"] = dict(payload["batch"])
        payload["batch"]["wall_clock_seconds"] = 0.0
    return canonical_json(payload)


# ----------------------------------------------------------------------
# Reference outcomes built straight from the underlying solvers
# ----------------------------------------------------------------------
def profiles_to_wire(profiles):
    return [
        {"p": [float(x) for x in profile.p], "q": [float(x) for x in profile.q]}
        for profile in profiles
    ]


def reference_cnash_outcome(request: SolveRequest) -> SolveOutcome:
    solver = CNashSolver(request.game, request.config, seed=request.seed)
    batch = solver.solve_batch(num_runs=request.num_runs, seed=request.seed)
    return outcome_from_batch(request, batch, backend="cnash")


def reference_squbo_outcome(request: SolveRequest) -> SolveOutcome:
    solver = DWaveLikeSolver(request.game, seed=request.seed)
    start = time.perf_counter()
    batch = solver.sample_batch(request.num_runs, seed=request.seed)
    distinct = solver.distinct_solutions(batch)
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend=f"squbo/{solver.machine.name}",
        success_rate=batch.success_rate,
        equilibria=profiles_to_wire(list(distinct)),
        batch=None,
        shards=1,
        wall_clock_seconds=time.perf_counter() - start,
    )


def reference_exact_outcome(request: SolveRequest) -> SolveOutcome:
    profiles = list(support_enumeration(request.game))
    return SolveOutcome(
        fingerprint=request.fingerprint(),
        policy=request.policy,
        backend="exact/support-enumeration",
        success_rate=1.0 if profiles else 0.0,
        equilibria=profiles_to_wire(profiles),
        batch=None,
        shards=1,
        wall_clock_seconds=0.0,
    )


class TestReferenceOutcomes:
    """Registry dispatch is byte-identical to calling each solver directly."""

    def test_cnash_matches_direct_solver(self):
        request = request_for(battle_of_the_sexes())
        expected = normalised_wire(reference_cnash_outcome(request))
        assert normalised_wire(execute_request(request)) == expected
        # The shard path's solver entry feeds the same construction.
        shard_outcome = outcome_from_batch(request, solve_cnash(request), backend="cnash")
        assert normalised_wire(shard_outcome) == expected

    def test_squbo_matches_direct_sampler(self):
        request = request_for(battle_of_the_sexes(), policy="squbo")
        expected = normalised_wire(reference_squbo_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_exact_matches_support_enumeration(self):
        request = request_for(bird_game(), policy="exact")
        expected = normalised_wire(reference_exact_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_portfolio_relabels_the_exact_outcome(self):
        # On the benchmark games exact wins immediately, so the portfolio
        # outcome is the exact outcome under the portfolio request's
        # policy and fingerprint.
        request = request_for(battle_of_the_sexes(), policy="portfolio")
        expected = normalised_wire(reference_exact_outcome(request))
        assert normalised_wire(execute_request(request)) == expected

    def test_worker_payload_matches_direct_solver(self):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        outcome = SolveOutcome.from_dict(execute_request_payload(request.to_dict()))
        assert normalised_wire(outcome) == normalised_wire(reference_cnash_outcome(request))

    def test_seeded_policies_are_self_deterministic(self):
        for policy in ("cnash", "squbo", "exact", "portfolio"):
            request = request_for(battle_of_the_sexes(), policy=policy, num_runs=5)
            first = normalised_wire(execute_request(request))
            second = normalised_wire(execute_request(request))
            assert first == second, policy

    def test_squbo_ignores_cnash_config_epsilon(self):
        # The C-Nash config's epsilon is a C-Nash knob: S-QUBO classifies
        # at DWaveLikeSolver's default tolerance.  (A backend-agnostic
        # tolerance is the explicit SolveRequest.epsilon field instead.)
        loose = CNashConfig(num_intervals=4, num_iterations=300, epsilon=2.5)
        request = request_for(matching_pennies(), policy="squbo", config=loose)
        expected = normalised_wire(reference_squbo_outcome(request))
        assert normalised_wire(execute_request(request)) == expected


class TestExactBackend:
    def test_exact_finds_all_bos_equilibria(self):
        outcome = execute_request(request_for(battle_of_the_sexes(), policy="exact"))
        assert outcome.backend == "exact/support-enumeration"
        assert outcome.num_equilibria == 3
        assert outcome.batch is None

    def test_exact_profiles_verify(self):
        game = battle_of_the_sexes()
        outcome = execute_request(request_for(game, policy="exact"))
        for profile in profiles_from_wire(outcome.equilibria):
            assert is_epsilon_equilibrium(game, profile.p, profile.q, 1e-6)

    def test_payload_equilibria_verify(self):
        # The worker entry point ships profiles through the wire dict; they
        # must still be equilibria once decoded on the other side.
        game = battle_of_the_sexes()
        payload = execute_request_payload(request_for(game, policy="exact").to_dict())
        outcome = SolveOutcome.from_dict(payload)
        assert outcome.num_equilibria == 3
        for profile in profiles_from_wire(outcome.equilibria):
            assert is_epsilon_equilibrium(game, profile.p, profile.q, 1e-6)


class TestCnashBackend:
    def test_outcome_carries_the_batch(self):
        request = request_for(battle_of_the_sexes(), num_runs=8)
        outcome = execute_request(request)
        batch = outcome.batch_result()
        assert batch is not None
        assert batch.num_runs == 8
        assert outcome.success_rate == batch.success_rate
        assert outcome.fingerprint == request.fingerprint()

    def test_payload_entry_point_round_trips(self):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        outcome_dict = execute_request_payload(request.to_dict())
        assert outcome_dict["policy"] == "cnash"
        assert len(outcome_dict["batch"]["runs"]) == 4


class TestPortfolioPolicy:
    @pytest.mark.parametrize("game", paper_benchmark_games(), ids=lambda g: g.name)
    def test_returns_a_verified_equilibrium_for_every_paper_game(self, game):
        request = request_for(game, policy="portfolio", num_runs=6)
        outcome = execute_request(request)
        assert outcome.policy == "portfolio"
        assert outcome.num_equilibria >= 1
        profiles = profiles_from_wire(outcome.equilibria)
        # At least one reported profile must verify at a tolerance
        # matching the backend that produced it.
        epsilon = 1e-6 if outcome.backend.startswith("exact/") else 1.5
        assert any(
            is_epsilon_equilibrium(game, profile.p, profile.q, epsilon)
            for profile in profiles
        )

    def test_portfolio_prefers_exact_on_small_games(self):
        outcome = execute_request(request_for(battle_of_the_sexes(), policy="portfolio"))
        assert outcome.backend.startswith("exact/")
        # The outcome is reported under the *requested* policy and fingerprint.
        assert outcome.policy == "portfolio"
        assert outcome.fingerprint == request_for(
            battle_of_the_sexes(), policy="portfolio"
        ).fingerprint()


class TestShardPlan:
    def test_sizes_cover_the_budget_exactly(self):
        request = request_for(battle_of_the_sexes(), num_runs=10)
        payloads = shard_payloads(request, shard_size=4)
        assert [p["shard_runs"] for p in payloads] == [4, 4, 2]

    def test_seeds_depend_only_on_request_and_index(self):
        request = request_for(battle_of_the_sexes(), num_runs=10)
        first = shard_payloads(request, shard_size=4)
        second = shard_payloads(request, shard_size=4)
        assert [p["shard_seed"] for p in first] == [p["shard_seed"] for p in second]
        # Distinct shards get distinct derived seeds.
        seeds = [p["shard_seed"] for p in first]
        assert len(set(seeds)) == len(seeds)

    def test_unseeded_requests_stay_unseeded(self):
        request = request_for(battle_of_the_sexes(), seed=None, use_cache=False, num_runs=5)
        payloads = shard_payloads(request, shard_size=2)
        assert all(p["shard_seed"] is None for p in payloads)

    def test_shard_execution_matches_direct_solve(self):
        request = request_for(battle_of_the_sexes(), num_runs=6)
        payloads = shard_payloads(request, shard_size=6)
        assert len(payloads) == 1
        shard_batch = solve_shard_payload(payloads[0])
        assert len(shard_batch["runs"]) == 6

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            shard_payloads(request_for(battle_of_the_sexes()), shard_size=0)


class TestWorkerTelemetry:
    def test_worker_process_results_carry_their_metrics_delta(self, counts):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        elsewhere = {"parent_pid": -1}  # as seen from a separate worker process
        shard = solve_shard_payload({**shard_payloads(request, 4)[0], **elsewhere})
        launches = shard["telemetry"]["repro_kernel_launches_total"]["samples"]
        assert launches == [[[], {"value": 1.0}]]
        outcome = execute_request_payload({**request.to_dict(), **elsewhere})
        # The shard's launch was exported already; this delta is the new one.
        assert outcome["telemetry"]["repro_kernel_launches_total"]["samples"] == launches
        assert counts("repro_kernel_launches_total") == 2  # exporting keeps the counts

    def test_in_process_results_carry_no_delta(self, counts):
        request = request_for(battle_of_the_sexes(), num_runs=4)
        here = {"parent_pid": os.getpid()}
        assert "telemetry" not in solve_shard_payload({**shard_payloads(request, 4)[0], **here})
        assert "telemetry" not in execute_request_payload({**request.to_dict(), **here})
        assert counts("repro_kernel_launches_total") == 2  # counted once, locally

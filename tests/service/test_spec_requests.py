"""Spec-backed SolveRequests across the service stack.

Covers the PR-5 acceptance surface: spec wire forms through
``SolveRequest.to_dict``/``from_dict`` and the TCP server, bit-identical
results vs materialised in-process solves, and fingerprint
byte-compatibility of inline specs with pre-spec matrix-keyed cache
entries.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro.api as api
from repro.backends import SolveSpec
from repro.core.config import CNashConfig
from repro.games.library import battle_of_the_sexes, stag_hunt
from repro.games.spec import GameSpec
from repro.service.client import InProcessClient, ServiceClient
from repro.service.jobs import SolveRequest
from repro.service.scheduler import SolveScheduler
from repro.service.server import NashServer

FAST = CNashConfig(num_intervals=4, num_iterations=250)


def _without_timing(batch):
    """A batch dict minus its measured wall clock (the only wart allowed)."""
    if batch is None:
        return None
    return {key: value for key, value in batch.items() if key != "wall_clock_seconds"}


class TestRequestWireForms:
    def test_spec_request_ships_game_spec_not_matrices(self):
        request = SolveRequest(
            game=GameSpec.generator("random", num_row_actions=32, seed=3),
            policy="cnash", num_runs=4, seed=0, config=FAST,
        )
        wire = request.to_dict()
        assert "game" not in wire
        assert wire["game_spec"]["kind"] == "generator"
        assert len(json.dumps(wire["game_spec"])) < 150

    def test_spec_wire_is_orders_of_magnitude_smaller(self):
        """Per-request wire bytes: spec payload vs the same game's dense matrices."""

        def wire_bytes(game_like):
            wire = SolveRequest(
                game=game_like, policy="cnash", num_runs=2, seed=0, config=FAST
            ).to_dict()
            game_payload = wire.get("game_spec", wire.get("game"))
            return len(json.dumps(game_payload)), len(json.dumps(wire))

        small = GameSpec.generator("random", num_row_actions=16, seed=0)
        big = GameSpec.generator("random", num_row_actions=64, seed=0)
        spec_game, spec_request = wire_bytes(small)
        dense_game, dense_request = wire_bytes(GameSpec.inline(small.materialize()))
        big_spec_game, big_spec_request = wire_bytes(big)
        big_dense_game, big_dense_request = wire_bytes(GameSpec.inline(big.materialize()))
        # The game payload is the part that scales with the workload; the
        # request wrapper (config, budget) is a fixed ~500 bytes on both.
        assert spec_game * 10 < dense_game
        assert big_spec_game * 100 < big_dense_game
        assert spec_request < dense_request
        assert big_spec_request * 50 < big_dense_request

    def test_dense_request_wire_unchanged(self):
        request = SolveRequest(game=stag_hunt(), num_runs=4, seed=0, config=FAST)
        wire = request.to_dict()
        assert "game_spec" not in wire
        assert wire["game"]["name"] == "Stag Hunt"

    def test_round_trip_preserves_spec_and_fingerprint(self):
        request = SolveRequest(
            game=GameSpec.library("chicken").shifted(),
            policy="exact", num_runs=4, seed=0, config=FAST,
        )
        rebuilt = SolveRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert rebuilt.game_spec == request.game_spec
        assert rebuilt.fingerprint() == request.fingerprint()

    def test_string_game_is_parsed(self):
        request = SolveRequest(game="library:chicken", num_runs=4, seed=0)
        assert isinstance(request.game, GameSpec)
        assert request.resolved_game.name == "Chicken"

    def test_bad_game_type_rejected(self):
        with pytest.raises(ValueError, match="BimatrixGame, GameSpec or spec string"):
            SolveRequest(game=[[1.0]], num_runs=4)

    def test_resolved_game_is_cached(self):
        request = SolveRequest(
            game=GameSpec.generator("random", num_row_actions=4, seed=1),
            num_runs=4, seed=0,
        )
        assert request.resolved_game is request.resolved_game

    def test_release_materialization_drops_the_memo(self):
        request = SolveRequest(
            game=GameSpec.generator("random", num_row_actions=4, seed=1),
            num_runs=4, seed=0,
        )
        _ = request.resolved_game
        assert getattr(request, "_resolved_game", None) is not None
        request.release_materialization()
        assert getattr(request, "_resolved_game", None) is None
        # Idempotent, and a no-op for dense-game requests.
        request.release_materialization()
        dense = SolveRequest(game=battle_of_the_sexes(), num_runs=4, seed=0)
        dense.release_materialization()
        assert dense.resolved_game is dense.game

    def test_unseeded_generator_spec_rejected(self):
        # A stable fingerprint over a nondeterministic materialisation
        # would alias different games under one cache/shard key.
        with pytest.raises(ValueError, match="not deterministic"):
            SolveRequest(
                game=GameSpec.generator("random", num_row_actions=3, seed=None),
                num_runs=4,
            )

    def test_inline_spec_fingerprint_matches_dense_request(self):
        # Pre-existing matrix-keyed cache entries must still hit when the
        # same game arrives wrapped in an inline spec.
        game = battle_of_the_sexes()
        dense = SolveRequest(game=game, num_runs=8, seed=4, config=FAST)
        wrapped = SolveRequest(game=GameSpec.inline(game), num_runs=8, seed=4, config=FAST)
        assert dense.fingerprint() == wrapped.fingerprint()

    def test_library_spec_fingerprint_is_spec_keyed(self):
        game = battle_of_the_sexes()
        dense = SolveRequest(game=game, num_runs=8, seed=4, config=FAST)
        spec_backed = SolveRequest(
            game=GameSpec.library("battle_of_the_sexes"), num_runs=8, seed=4, config=FAST
        )
        # Different identities by design: the spec names a description,
        # the dense request names payoff bytes.
        assert dense.fingerprint() != spec_backed.fingerprint()


def _serve(body):
    """Run ``body(client)`` against a fresh ephemeral-port server."""

    async def runner():
        async with SolveScheduler(max_workers=2, shard_size=4, executor="thread") as sched:
            server = NashServer(sched, port=0)
            await server.start()
            serve_task = asyncio.get_running_loop().create_task(
                server.serve_until_shutdown()
            )
            client = await ServiceClient.connect(server.host, server.port)
            try:
                return await body(client)
            finally:
                await client.close()
                await server.close()
                serve_task.cancel()
                try:
                    await serve_task
                except asyncio.CancelledError:
                    pass

    return asyncio.run(runner())


class TestSpecOverTcp:
    def test_spec_round_trip_bit_identical_to_in_process(self):
        """Acceptance: GameSpec over TCP == materialized game in-process.

        Same shard plan on both sides (shard_size=4), so the only
        difference is the wire form: a ~100-byte spec payload over TCP
        with server-side materialisation vs the dense game handed to an
        in-process scheduler.  Batches, equilibria and success rates
        must match bit for bit; only the content-addressed fingerprint
        differs (spec-keyed vs matrix-keyed, by design).
        """
        spec = GameSpec.generator("random", num_row_actions=3, seed=11)

        async def body(client):
            request = SolveRequest(
                game=spec, policy="cnash", num_runs=6, seed=2, config=FAST
            )
            assert request.to_dict().get("game_spec") is not None
            return await client.solve(request)

        outcome = _serve(body)
        with InProcessClient(executor="thread", max_workers=2, shard_size=4) as client:
            dense = client.solve(
                SolveRequest(
                    game=spec.materialize(), policy="cnash", num_runs=6, seed=2,
                    config=FAST,
                )
            )
        assert _without_timing(outcome.batch) == _without_timing(dense.batch)
        assert outcome.equilibria == dense.equilibria
        assert outcome.success_rate == dense.success_rate
        assert outcome.shards == dense.shards
        assert outcome.fingerprint != dense.fingerprint  # spec-keyed vs matrix-keyed

    def test_spec_solve_deterministic_across_transports(self):
        """api.solve with a client and the raw TCP path agree bit-for-bit."""
        spec = GameSpec.generator("random", num_row_actions=3, seed=11)
        solve_spec = SolveSpec(num_runs=6, seed=2, options={"config": FAST})

        async def body(client):
            return await client.solve(
                SolveRequest(game=spec, policy="cnash", num_runs=6, seed=2, config=FAST)
            )

        over_tcp = _serve(body)
        with InProcessClient(executor="thread", max_workers=2, shard_size=4) as client:
            report = api.solve(spec, backend="cnash", spec=solve_spec, client=client)
        assert _without_timing(report.batch_dict()) == _without_timing(over_tcp.batch)
        assert report.metadata["game_spec"] == spec.to_dict()

    def test_raw_game_spec_payload_accepted(self):
        """A hand-written JSON line with a game_spec field solves fine."""

        async def body(client):
            return await client.call({
                "op": "solve",
                "request": {
                    "game_spec": {"kind": "library", "name": "battle_of_the_sexes"},
                    "policy": "exact",
                    "num_runs": 1,
                    "seed": 0,
                    "config": FAST.to_dict(),
                },
            })

        response = _serve(body)
        assert response["ok"] is True
        assert len(response["outcome"]["equilibria"]) == 3

    def test_inline_spec_hits_dense_cache_entry(self, counts):
        """An inline-spec request is served from a dense request's cache entry."""
        game = battle_of_the_sexes()

        async def body(client):
            dense = SolveRequest(game=game, policy="cnash", num_runs=6, seed=3,
                                 config=FAST)
            wrapped = SolveRequest(game=GameSpec.inline(game), policy="cnash",
                                   num_runs=6, seed=3, config=FAST)
            first = await client.solve(dense)
            second = await client.solve(wrapped)
            return first, second

        first, second = _serve(body)
        assert counts("repro_cache_hits_total") == 1
        # The cache-served repeat carries no trace; compare modulo it.
        first_dict, second_dict = first.to_dict(), second.to_dict()
        first_dict.pop("trace", None)
        second_dict.pop("trace", None)
        assert second_dict == first_dict


class TestSchedulerLaziness:
    def test_finished_jobs_do_not_pin_dense_games(self):
        """The retained job table must not hold materialised matrices.

        The scheduler materialises a spec request in-process for
        outcome merging; _finish releases the memo so a cold
        thousand-game sweep never accumulates dense games in the
        finished-record table.
        """

        async def body():
            async with SolveScheduler(max_workers=1, shard_size=4,
                                      executor="thread") as sched:
                record = await sched.submit(
                    SolveRequest(
                        game=GameSpec.generator("random", num_row_actions=3, seed=5),
                        policy="cnash", num_runs=4, seed=1, config=FAST,
                    )
                )
                await sched.wait(record.job_id)
                return record

        record = asyncio.run(body())
        assert record.outcome is not None
        assert getattr(record.request, "_resolved_game", None) is None

    def test_worker_side_materialization(self):
        """Spec requests materialise inside execution, not at submit time."""
        spec = GameSpec.generator("random", num_row_actions=4, seed=7)
        request = SolveRequest(game=spec, policy="exact", num_runs=1, seed=0)
        # The request object itself holds no dense game until resolved.
        assert getattr(request, "_resolved_game", None) is None
        with InProcessClient(executor="thread", max_workers=1) as client:
            outcome = client.solve(request)
        assert outcome.equilibria
        # The caller-side request was never forced dense by submission:
        # to_dict shipped the spec, and materialisation happened on the
        # worker's reconstructed copy.
        assert getattr(request, "_resolved_game", None) is None

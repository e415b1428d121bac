"""Equilibrium-as-a-service: scheduler, cache, portfolio and transports.

This package turns the in-process solvers into a serving layer:

* :mod:`repro.service.jobs` — :class:`SolveRequest` / :class:`JobRecord`
  with deterministic content-addressed fingerprints;
* :mod:`repro.service.cache` — LRU + optional on-disk result cache keyed
  by those fingerprints;
* :mod:`repro.service.scheduler` — asyncio priority queue with a
  process-pool worker backend that shards ``num_runs=N`` batches into
  per-worker sub-batches and merges them deterministically;
* :mod:`repro.service.portfolio` — dispatch of request policies through
  the pluggable backend registry (:mod:`repro.backends`): any backend
  registered with ``register_backend()`` is servable here with zero
  changes to this package;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  dependency-free JSON-over-TCP front end plus async, sync and
  in-process clients.

Quickstart::

    from repro import battle_of_the_sexes, CNashConfig
    from repro.service import InProcessClient, SolveRequest

    request = SolveRequest(game=battle_of_the_sexes(), policy="portfolio",
                           num_runs=200, seed=0, config=CNashConfig())
    with InProcessClient(max_workers=4) as client:
        outcome = client.solve(request)
        print(outcome.backend, outcome.num_equilibria)

or over TCP: ``python -m repro.service --port 8765`` and then
:class:`~repro.service.client.ServiceClient` / ``SyncServiceClient``.
"""

from repro.service.cache import ResultCache
from repro.service.client import InProcessClient, ServiceClient, ServiceError, SyncServiceClient
from repro.service.jobs import (
    JobRecord,
    JobStatus,
    SolveOutcome,
    SolveRequest,
    game_from_dict,
    game_to_dict,
)
from repro.service.portfolio import (
    execute_request,
    portfolio_order,
    shard_payloads,
    solve_shard_payload,
)
from repro.service.scheduler import DEFAULT_SHARD_SIZE, SolveScheduler
from repro.service.server import NashServer, serve

__all__ = [
    "ResultCache",
    "InProcessClient",
    "ServiceClient",
    "SyncServiceClient",
    "ServiceError",
    "JobRecord",
    "JobStatus",
    "SolveOutcome",
    "SolveRequest",
    "game_to_dict",
    "game_from_dict",
    "execute_request",
    "portfolio_order",
    "shard_payloads",
    "solve_shard_payload",
    "SolveScheduler",
    "DEFAULT_SHARD_SIZE",
    "NashServer",
    "serve",
]

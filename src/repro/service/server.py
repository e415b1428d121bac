"""Dependency-free JSON-over-TCP front end for the solve scheduler.

Wire protocol: newline-delimited JSON objects over a plain TCP stream
(``asyncio`` streams on both sides, no third-party dependencies).  Each
request is one line ``{"op": ..., ...}``; each response is one line
``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.

Solve payloads accept both game wire forms of
:meth:`repro.service.jobs.SolveRequest.to_dict`: dense ``game``
matrices, or a compact ``game_spec`` (the :class:`repro.games.spec.GameSpec`
IR — ``{"kind": "generator", "name": "random", "params": {...},
"seed": 7}``), which the server materialises lazily on its workers.

Operations
----------
``ping``                     liveness check.
``solve``                    submit a request and wait for the outcome.
``submit``                   submit and return the job id immediately.
``status`` / ``result``      poll / wait on a previously submitted job.
``cancel``                   cancel a queued job.
``telemetry``                metrics registry snapshot (every counter family).
``shutdown``                 stop the server (used by tests and smoke runs).

A Prometheus text exposition of the same registry is served over HTTP
when ``--metrics-port`` is given (``GET /metrics``), so a running server
can be scraped by any Prometheus-compatible collector.

Start a server from the command line with ``python -m repro.service``;
see :mod:`repro.service.client` for the matching clients.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Any, Dict, Optional, Sequence

from repro.service.batching import DEFAULT_MAX_BATCH_JOBS, DEFAULT_MAX_BATCH_LINGER_MS
from repro.service.cache import ResultCache
from repro.service.jobs import SolveOutcome, SolveRequest
from repro.service.resilience import (
    InjectedDisconnect,
    ResilienceError,
    chaos_plan,
    fault_point,
)
from repro.service.scheduler import (
    DEFAULT_FINISHED_JOB_LIMIT,
    DEFAULT_SHARD_SIZE,
    EXECUTOR_KINDS,
    SolveScheduler,
)
from repro.telemetry import configure_logging, start_metrics_server

#: Safety bound on one protocol line (a 1000-run batch with history off
#: is far below this; it guards the server against garbage input).
MAX_LINE_BYTES = 64 * 1024 * 1024


class NashServer:
    """A TCP server exposing one :class:`SolveScheduler`."""

    def __init__(self, scheduler: SolveScheduler, host: str = "127.0.0.1", port: int = 0) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Created lazily on the serving loop: asyncio primitives bind the
        # running loop on construction on older Pythons, and __init__ may
        # run outside any loop.
        self._shutdown: Optional[asyncio.Event] = None

    def _shutdown_event(self) -> asyncio.Event:
        if self._shutdown is None:
            self._shutdown = asyncio.Event()
        return self._shutdown

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "NashServer":
        """Bind the listening socket (``port=0`` picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or the task is cancelled)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._shutdown_event().wait()

    async def close(self) -> None:
        """Stop accepting connections and release the socket."""
        self._shutdown_event().set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not reader.at_eof():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, {"ok": False, "error": "request line too long"})
                    break
                if not line.strip():
                    break
                try:
                    response = await self._handle_line(line)
                except InjectedDisconnect:
                    # Chaos "disconnect" action at the wire point: drop
                    # the connection mid-request, no response line.
                    break
                await self._send(writer, response)
                if response.get("bye"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"invalid JSON: {exc}"}
        if not isinstance(message, dict) or "op" not in message:
            return {"ok": False, "error": "message must be an object with an 'op' field"}
        try:
            fault_point("wire", key=str(message.get("op")))
            return await self._dispatch(message)
        except InjectedDisconnect:
            raise  # handled at the connection level (drops the client)
        except ResilienceError as exc:
            # Typed failures (load shedding, open breakers, ...) ship
            # their wire tag so clients re-raise the matching class.
            response: Dict[str, Any] = {
                "ok": False, "error": str(exc), "error_type": exc.ERROR_TYPE,
            }
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after is not None:
                response["retry_after_s"] = float(retry_after)
            return response
        except (KeyError, ValueError, TypeError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except RuntimeError as exc:
            return {"ok": False, "error": str(exc)}

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "telemetry":
            return {"ok": True, "telemetry": self.scheduler.telemetry()}
        if op == "solve":
            request = SolveRequest.from_dict(message["request"])
            record = await self.scheduler.submit(request, priority=message.get("priority"))
            outcome = await self.scheduler.wait(record.job_id)
            return {"ok": True, "job": record.to_dict(include_outcome=False),
                    "outcome": outcome.to_dict()}
        if op == "submit":
            request = SolveRequest.from_dict(message["request"])
            record = await self.scheduler.submit(request, priority=message.get("priority"))
            return {"ok": True, "job_id": record.job_id,
                    "job": record.to_dict(include_outcome=False)}
        if op == "status":
            record = self.scheduler.job(message["job_id"])
            return {"ok": True, "job": record.to_dict()}
        if op == "result":
            outcome = await self.scheduler.wait(message["job_id"])
            return {"ok": True, "outcome": outcome.to_dict()}
        if op == "cancel":
            cancelled = self.scheduler.cancel(message["job_id"])
            return {"ok": True, "cancelled": cancelled}
        if op == "shutdown":
            self._shutdown_event().set()
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: Dict[str, Any]) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()


async def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    max_workers: Optional[int] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    executor: str = "process",
    cache: Optional[ResultCache] = None,
    finished_job_limit: int = DEFAULT_FINISHED_JOB_LIMIT,
    max_batch_jobs: int = DEFAULT_MAX_BATCH_JOBS,
    max_batch_linger_ms: float = DEFAULT_MAX_BATCH_LINGER_MS,
    metrics_port: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    worker_timeout_s: Optional[float] = None,
) -> None:
    """Run a server until shutdown (the ``python -m repro.service`` body).

    ``metrics_port`` additionally serves the Prometheus text exposition
    of the telemetry registry over HTTP on that port.
    ``max_queue_depth`` bounds the scheduler queue (admission control /
    load shedding); ``worker_timeout_s`` sets the per-dispatch worker
    heartbeat deadline (hang detection + pool rebuild).
    """
    async with SolveScheduler(
        max_workers=max_workers,
        shard_size=shard_size,
        executor=executor,
        cache=cache,
        finished_job_limit=finished_job_limit,
        max_batch_jobs=max_batch_jobs,
        max_batch_linger_ms=max_batch_linger_ms,
        max_queue_depth=max_queue_depth,
        worker_timeout_s=worker_timeout_s,
    ) as scheduler:
        server = NashServer(scheduler, host=host, port=port)
        await server.start()
        metrics_server = None
        if metrics_port is not None:
            metrics_server = await start_metrics_server(host=host, port=metrics_port)
            bound = metrics_server.sockets[0].getsockname()[1]
            print(f"repro.service metrics on http://{host}:{bound}/metrics")
        print(f"repro.service listening on {server.host}:{server.port} "
              f"(executor={executor}, shard_size={shard_size})")
        try:
            await server.serve_until_shutdown()
        finally:
            await server.close()
            if metrics_server is not None:
                metrics_server.close()
                await metrics_server.wait_closed()


async def _smoke(chaos: bool = False) -> int:
    """One client-server round trip in a single process (CI smoke check).

    The request ships as a ``game_spec`` payload (the GameSpec IR), so
    the smoke run also covers the compact wire form end to end.

    With ``chaos=True`` the scheduler runs under the stock chaos fault
    plan (:func:`~repro.service.resilience.chaos_plan`: one worker
    crash, one injected kernel error, one corrupted settle payload, one
    materialisation delay) — every rule must fire, and the run must
    still produce every result, with the retries visible in
    ``repro_resilience_retries_total``.

    Every count the smoke asserts on is read from the ``telemetry`` op.
    """
    from repro.core.config import CNashConfig
    from repro.games.spec import GameSpec
    from repro.service.client import ServiceClient
    from repro.telemetry import family_total, render_prometheus, validate_phases

    # Under chaos, one job can absorb several injections back to back
    # (a worker crash fails its whole batch, then the kernel error can
    # land on the same job's lone retry) — give the transient budget
    # headroom beyond the two-attempt default so the plan is always
    # recoverable.
    from repro.service.resilience import RetryPolicy, RetryRule

    chaos_policy = RetryPolicy(
        transient=RetryRule(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05),
        worker_death=RetryRule(max_attempts=4, base_backoff_s=0.01, max_backoff_s=0.05),
        quarantine_after=4,
    )
    plan = chaos_plan() if chaos else None
    async with SolveScheduler(
        max_workers=2, shard_size=8, executor="thread", max_batch_linger_ms=50.0,
        fault_plan=plan,
        retry_policy=chaos_policy if chaos else RetryPolicy(),
    ) as scheduler:
        server = NashServer(scheduler, port=0)
        await server.start()
        serve_task = asyncio.get_running_loop().create_task(server.serve_until_shutdown())
        request = SolveRequest(
            game="library:battle_of_the_sexes",
            policy="portfolio",
            num_runs=16,
            seed=7,
            config=CNashConfig(num_intervals=4, num_iterations=300),
        )
        assert request.to_dict().get("game_spec") is not None  # spec wire form in play
        client = await ServiceClient.connect(server.host, server.port)
        try:
            assert (await client.ping())["pong"]
            outcome = await client.solve(request)
            repeat = await client.solve(request)
            # A burst of compatible spec-shipped C-Nash jobs exercises the
            # batch-coalescing dispatch path (they share one batch key).
            sweep_config = CNashConfig(num_intervals=4, num_iterations=200)
            job_ids = [
                await client.submit(
                    SolveRequest(
                        game=GameSpec.generator("random", num_row_actions=8, seed=index),
                        policy="cnash",
                        num_runs=4,
                        seed=index,
                        config=sweep_config,
                    )
                )
                for index in range(6)
            ]
            sweep_outcomes = [await client.result(job_id) for job_id in job_ids]
            telemetry = await client.telemetry()
            await client.shutdown()
        finally:
            await client.close()
        await serve_task
        await server.close()
        hits = family_total(telemetry, "repro_scheduler_cache_hits_total")
        batches = family_total(telemetry, "repro_scheduler_batches_dispatched_total")
        batched_jobs = family_total(telemetry, "repro_scheduler_batched_jobs_total")

        # The telemetry command must expose every metric family the
        # layers registered in this process.
        families = telemetry["families"]
        expected_families = (
            "repro_scheduler_jobs_submitted_total",
            "repro_scheduler_jobs_completed_total",
            "repro_scheduler_batches_dispatched_total",
            "repro_scheduler_job_latency_seconds",
            "repro_scheduler_queue_depth",
            "repro_cache_hits_total",
            "repro_cache_stores_total",
            "repro_matcache_misses_total",
            "repro_kernel_launches_total",
            "repro_kernel_proposals_total",
            "repro_backend_solve_seconds",
        )
        missing = [name for name in expected_families if name not in families]
        assert not missing, f"telemetry is missing metric families: {missing}"

        # The Prometheus text endpoint renders the same registry: every
        # family (and the counter values) must agree with the snapshot.
        prometheus = render_prometheus(scheduler.telemetry())
        assert all(name in prometheus for name in expected_families)
        submitted = families["repro_scheduler_jobs_submitted_total"]["samples"][0]["value"]
        assert f"repro_scheduler_jobs_submitted_total {int(submitted)}" in prometheus

        # Every computed sweep job carries a trace whose phases are
        # monotone and non-overlapping per depth level.
        traced = [o for o in sweep_outcomes if o.trace]
        assert traced, "sweep outcomes carry no trace timelines"
        for sweep_outcome in traced:
            validate_phases(sweep_outcome.trace)
            names = {phase["name"] for phase in sweep_outcome.trace}
            assert "queue" in names and "settle" in names, names

        # Trace and attempt count are per-execution observability
        # metadata: a computed outcome carries them, its cache-served
        # repeat does not.  The *result* payload must still be
        # byte-identical.
        def _result_dict(o: SolveOutcome) -> Dict[str, Any]:
            payload = o.to_dict()
            payload.pop("trace", None)
            payload.pop("attempts", None)
            return payload

        ok = (
            bool(outcome.equilibria)
            and _result_dict(repeat) == _result_dict(outcome)
            and hits >= 1
            and len(sweep_outcomes) == 6
            and batches >= 1
        )
        if chaos:
            # Every injected fault must have been absorbed: all results
            # arrived above, and the retries are visible in the counters.
            retries = family_total(telemetry, "repro_resilience_retries_total")
            quarantined = family_total(telemetry, "repro_resilience_quarantined_total")
            injected = family_total(telemetry, "repro_resilience_faults_injected_total")
            # A fault point that no dispatch reaches fails the smoke.
            silent = [
                f"{rule.point}/{rule.action}" for rule in plan.rules
                if family_total(telemetry, "repro_resilience_faults_injected_total",
                                point=rule.point, action=rule.action) < 1
            ]
            retried_attempts = [
                o.attempts for o in [outcome] + sweep_outcomes if o.attempts > 1
            ]
            chaos_ok = (
                retries >= 1
                and quarantined == 0
                and bool(retried_attempts)
                and not silent
            )
            print(
                f"smoke chaos: retries={int(retries)} quarantined={int(quarantined)} "
                f"jobs_with_retries={len(retried_attempts)} "
                f"faults_injected={int(injected)} "
                f"rules_not_fired={silent or 'none'} "
                f"-> {'OK' if chaos_ok else 'FAILED'}"
            )
            ok = ok and chaos_ok
        print(f"smoke: backend={outcome.backend} equilibria={outcome.num_equilibria} "
              f"cache_hits={int(hits)} -> {'OK' if ok else 'FAILED'}")
        print(f"smoke batching: batches_dispatched={int(batches)} "
              f"batched_jobs={int(batched_jobs)}")
        print(f"smoke telemetry: {len(families)} metric families, "
              f"{len(traced)}/{len(sweep_outcomes)} traced sweep jobs")
        return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro.service``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve Nash-equilibrium solves over JSON-over-TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=None, help="worker pool size")
    parser.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
        help="runs per shard of a sharded C-Nash batch",
    )
    parser.add_argument(
        "--executor", default="process", choices=list(EXECUTOR_KINDS),
        help="worker pool kind",
    )
    parser.add_argument("--cache-capacity", type=int, default=256, help="in-memory LRU entries")
    parser.add_argument(
        "--finished-job-limit", type=int, default=DEFAULT_FINISHED_JOB_LIMIT,
        help="finished job records retained for submit/status/result polling "
        "before the oldest are evicted",
    )
    parser.add_argument("--cache-dir", default=None, help="directory for the persistent cache tier")
    parser.add_argument(
        "--max-batch-jobs", type=int, default=DEFAULT_MAX_BATCH_JOBS,
        help="ceiling on compatible queued jobs coalesced into one worker "
        "dispatch (1 disables batching)",
    )
    parser.add_argument(
        "--max-batch-linger-ms", type=float, default=DEFAULT_MAX_BATCH_LINGER_MS,
        help="how long a dispatch may wait for companion jobs before "
        "launching a partial batch (0 = opportunistic, no added latency)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve a Prometheus text exposition of the telemetry "
        "registry over HTTP on this port (0 = ephemeral)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs (one object per line, "
        "job/batch/span correlated) instead of staying silent",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="admission-control bound on the scheduler queue; over-capacity "
        "submits are shed with a typed Overloaded error (default: unbounded)",
    )
    parser.add_argument(
        "--worker-timeout-s", type=float, default=None,
        help="per-dispatch worker heartbeat deadline; a worker silent past "
        "it counts as hung and the pool is rebuilt (default: no deadline)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run a self-contained client-server round trip and exit (CI)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="with --smoke: run under the stock fault-injection plan "
        "(worker crash, kernel error, corrupt payload, delay) and assert "
        "the retry machinery absorbs every fault",
    )
    args = parser.parse_args(argv)
    if args.log_json:
        configure_logging(json_format=True)
    if args.chaos and not args.smoke:
        parser.error("--chaos requires --smoke")
    if args.smoke:
        return asyncio.run(_smoke(chaos=args.chaos))
    cache = ResultCache(capacity=args.cache_capacity, directory=args.cache_dir)
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                max_workers=args.workers,
                shard_size=args.shard_size,
                executor=args.executor,
                cache=cache,
                finished_job_limit=args.finished_job_limit,
                max_batch_jobs=args.max_batch_jobs,
                max_batch_linger_ms=args.max_batch_linger_ms,
                metrics_port=args.metrics_port,
                max_queue_depth=args.max_queue_depth,
                worker_timeout_s=args.worker_timeout_s,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0

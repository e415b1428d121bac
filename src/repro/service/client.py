"""Clients for the solve service: async TCP, sync TCP, and in-process.

* :class:`ServiceClient` — asyncio client speaking the JSON-lines
  protocol of :mod:`repro.service.server` over one persistent
  connection.
* :class:`SyncServiceClient` — blocking wrapper for scripts and the
  experiment runner; one connection per call, no event-loop management
  required of the caller.
* :class:`InProcessClient` — the same blocking API served by a private
  :class:`~repro.service.scheduler.SolveScheduler` on a background
  event-loop thread, no sockets involved.  This is what
  ``cnash-experiments --service`` and :func:`repro.api.sweep` use.

All clients take :class:`~repro.service.jobs.SolveRequest` objects,
which may be spec-backed (``game`` is a
:class:`~repro.games.spec.GameSpec`): such requests travel as ~100-byte
``game_spec`` wire payloads and the dense game is materialised
server-side, which is what keeps thousand-game ensemble sweeps cheap to
ship.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.service.batching import DEFAULT_MAX_BATCH_JOBS, DEFAULT_MAX_BATCH_LINGER_MS
from repro.service.cache import ResultCache
from repro.service.jobs import SolveOutcome, SolveRequest
from repro.service.resilience import WIRE_ERRORS, ServiceUnavailable
from repro.service.scheduler import DEFAULT_SHARD_SIZE, SolveScheduler
from repro.service.server import MAX_LINE_BYTES


class ServiceError(RuntimeError):
    """An error response from the service (untyped / legacy)."""


@dataclass(frozen=True)
class ReconnectPolicy:
    """Bounded reconnect-with-backoff for the TCP clients.

    ``max_attempts`` counts total connection attempts; exhaustion
    surfaces as the typed
    :class:`~repro.service.resilience.ServiceUnavailable` instead of a
    raw ``ConnectionError`` traceback.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.1
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff_s(self, attempt: int) -> float:
        """Delay before attempt ``attempt + 1`` (attempt is 1-based)."""
        return min(self.base_backoff_s * (2 ** max(0, attempt - 1)),
                   self.max_backoff_s)


def _raise_from_response(response: Dict[str, Any]) -> None:
    """Re-raise a ``{"ok": false}`` response as its typed exception.

    Responses carrying an ``error_type`` wire tag (load shedding, open
    breakers, …) become the matching
    :class:`~repro.service.resilience.ResilienceError` subclass with its
    ``retry_after_s`` hint restored; everything else stays the legacy
    :class:`ServiceError`.
    """
    message = response.get("error", "unknown service error")
    error_cls = WIRE_ERRORS.get(response.get("error_type"))
    if error_cls is None:
        raise ServiceError(message)
    exc = error_cls(message)
    retry_after = response.get("retry_after_s")
    if retry_after is not None:
        exc.retry_after_s = float(retry_after)
    raise exc


class ServiceClient:
    """Async client over one persistent TCP connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 8765,
        reconnect: Optional[ReconnectPolicy] = None,
    ) -> "ServiceClient":
        """Open a connection to a running server.

        With a :class:`ReconnectPolicy`, failed connection attempts are
        retried with bounded backoff; exhaustion (and a policy-less
        failure) raises the typed :class:`ServiceUnavailable` instead of
        leaking ``ConnectionRefusedError``.
        """
        policy = reconnect or ReconnectPolicy(max_attempts=1)
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=MAX_LINE_BYTES
                )
                return cls(reader, writer)
            except (ConnectionError, OSError) as exc:
                last_error = exc
                if attempt < policy.max_attempts:
                    await asyncio.sleep(policy.backoff_s(attempt))
        raise ServiceUnavailable(
            f"cannot connect to {host}:{port} after {policy.max_attempts} "
            f"attempt(s): {last_error}"
        ) from last_error

    async def close(self) -> None:
        """Close the connection."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one protocol message and return the decoded response.

        ``{"ok": false}`` responses raise their typed
        :class:`~repro.service.resilience.ResilienceError` when the
        server tagged them (``Overloaded``, ``CircuitOpen``, …), else
        the legacy :class:`ServiceError`; transport-level drops raise
        :class:`ServiceUnavailable`.
        """
        try:
            self._writer.write(json.dumps(message).encode("utf-8") + b"\n")
            await self._writer.drain()
            line = await self._reader.readline()
        except (ConnectionError, OSError) as exc:
            raise ServiceUnavailable(f"connection lost mid-call: {exc}") from exc
        if not line:
            raise ServiceUnavailable("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            _raise_from_response(response)
        return response

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        """Liveness check."""
        return await self.call({"op": "ping"})

    async def solve(self, request: SolveRequest, priority: Optional[int] = None) -> SolveOutcome:
        """Submit a request and wait for its outcome."""
        message: Dict[str, Any] = {"op": "solve", "request": request.to_dict()}
        if priority is not None:
            message["priority"] = priority
        response = await self.call(message)
        return SolveOutcome.from_dict(response["outcome"])

    async def submit(self, request: SolveRequest, priority: Optional[int] = None) -> str:
        """Submit a request; returns the job id without waiting."""
        message: Dict[str, Any] = {"op": "submit", "request": request.to_dict()}
        if priority is not None:
            message["priority"] = priority
        response = await self.call(message)
        return response["job_id"]

    async def status(self, job_id: str) -> Dict[str, Any]:
        """The job record of a submitted job."""
        return (await self.call({"op": "status", "job_id": job_id}))["job"]

    async def result(self, job_id: str) -> SolveOutcome:
        """Wait for a submitted job's outcome."""
        response = await self.call({"op": "result", "job_id": job_id})
        return SolveOutcome.from_dict(response["outcome"])

    async def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``False`` when it already started."""
        return (await self.call({"op": "cancel", "job_id": job_id}))["cancelled"]

    async def telemetry(self) -> Dict[str, Any]:
        """Unified metrics snapshot (``{"families": {...}}``)."""
        return (await self.call({"op": "telemetry"}))["telemetry"]

    async def shutdown(self) -> None:
        """Ask the server to shut down."""
        await self.call({"op": "shutdown"})


class SyncServiceClient:
    """Blocking TCP client: one connection and event loop per call.

    Convenient for scripts; for high request rates use
    :class:`ServiceClient` on a long-lived loop instead.  Connection
    failures retry per ``reconnect`` (a :class:`ReconnectPolicy` or an
    attempt count) and surface as the typed
    :class:`~repro.service.resilience.ServiceUnavailable`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        reconnect: Union[ReconnectPolicy, int, None] = None,
    ) -> None:
        self.host = host
        self.port = port
        if isinstance(reconnect, int):
            reconnect = ReconnectPolicy(max_attempts=reconnect)
        self.reconnect = reconnect

    def _run(self, op_coro_factory):
        async def body():
            client = await ServiceClient.connect(
                self.host, self.port, reconnect=self.reconnect
            )
            try:
                return await op_coro_factory(client)
            finally:
                await client.close()

        return asyncio.run(body())

    def ping(self) -> Dict[str, Any]:
        """Liveness check."""
        return self._run(lambda client: client.ping())

    def solve(self, request: SolveRequest, priority: Optional[int] = None) -> SolveOutcome:
        """Submit a request and block until its outcome arrives."""
        return self._run(lambda client: client.solve(request, priority=priority))

    def telemetry(self) -> Dict[str, Any]:
        """Unified metrics snapshot (``{"families": {...}}``)."""
        return self._run(lambda client: client.telemetry())

    def shutdown(self) -> None:
        """Ask the server to shut down."""
        self._run(lambda client: client.shutdown())


class InProcessClient:
    """Blocking client backed by a private scheduler, no sockets.

    Spins up an event loop on a daemon thread and runs a
    :class:`SolveScheduler` there, so synchronous code (scripts, the
    experiment runner) can use the full scheduler/cache/sharding stack
    with plain method calls.  Close it (or use it as a context manager)
    to release the worker pool.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        executor: str = "process",
        cache: Optional[ResultCache] = None,
        max_batch_jobs: int = DEFAULT_MAX_BATCH_JOBS,
        max_batch_linger_ms: float = DEFAULT_MAX_BATCH_LINGER_MS,
        **scheduler_kwargs: Any,
    ) -> None:
        # Validate the configuration (the scheduler constructor raises on
        # bad executor kinds / sizes) before starting the loop thread, so
        # a misconfiguration cannot leak a running daemon loop.
        # ``scheduler_kwargs`` passes the resilience knobs straight
        # through (retry_policy, max_queue_depth, worker_timeout_s,
        # fault_plan, ...).
        self._scheduler = SolveScheduler(
            max_workers=max_workers,
            shard_size=shard_size,
            executor=executor,
            cache=cache,
            max_batch_jobs=max_batch_jobs,
            max_batch_linger_ms=max_batch_linger_ms,
            **scheduler_kwargs,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        try:
            self._call(self._scheduler.start())
        except BaseException:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
            raise

    def _call(self, coro, timeout: Optional[float] = None):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def solve(
        self,
        request: SolveRequest,
        priority: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> SolveOutcome:
        """Submit a request and block until its outcome arrives."""
        return self._call(self._scheduler.solve(request, priority=priority), timeout)

    def submit(self, request: SolveRequest, priority: Optional[int] = None) -> str:
        """Submit without waiting; returns the job id."""
        record = self._call(self._scheduler.submit(request, priority=priority))
        return record.job_id

    def submit_many(
        self, requests: Sequence[SolveRequest], priority: Optional[int] = None
    ) -> List[str]:
        """Submit many requests in one loop-thread hop; returns job ids in order.

        Enqueueing a whole sweep at once (rather than one
        :meth:`submit` round-trip per request) is what lets the
        scheduler's batch coalescing see companions in the queue even
        with ``max_batch_linger_ms=0``.
        """

        async def body() -> List[str]:
            records = [
                await self._scheduler.submit(request, priority=priority)
                for request in requests
            ]
            return [record.job_id for record in records]

        return self._call(body())

    def result(self, job_id: str, timeout: Optional[float] = None) -> SolveOutcome:
        """Block until a submitted job's outcome arrives."""
        return self._call(self._scheduler.wait(job_id), timeout)

    def results(
        self,
        job_ids: Sequence[str],
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Block until every listed job's outcome arrives, in order.

        With ``return_exceptions=True``, per-job failures (``FAILED`` /
        ``QUARANTINED`` records, shed submissions) come back as the
        exception object in that job's slot instead of aborting the
        whole wait — the sweep-with-failures path.
        """

        async def body() -> List[Any]:
            return list(
                await asyncio.gather(
                    *(self._scheduler.wait(job_id) for job_id in job_ids),
                    return_exceptions=return_exceptions,
                )
            )

        return self._call(body(), timeout)

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job record of a submitted job."""
        return self._on_loop(lambda: self._scheduler.job(job_id).to_dict())

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job."""
        return self._on_loop(lambda: self._scheduler.cancel(job_id))

    def telemetry(self) -> Dict[str, Any]:
        """Unified metrics snapshot (``{"families": {...}}``)."""
        return self._on_loop(self._scheduler.telemetry)

    def _on_loop(self, fn):
        """Run a synchronous scheduler call on the scheduler's own loop thread.

        Scheduler state (job table, asyncio events) is only touched from
        its event loop; ``cancel`` in particular sets an ``asyncio.Event``,
        which is not thread-safe to do from the caller's thread.
        """

        async def body():
            return fn()

        return self._call(body())

    def close(self) -> None:
        """Shut the scheduler down and stop the background loop."""
        if self._loop.is_closed():
            return
        try:
            self._call(self._scheduler.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

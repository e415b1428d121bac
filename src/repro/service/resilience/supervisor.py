"""Worker-pool supervision: detect dead/hung pools and rebuild them.

``concurrent.futures`` pools are permanently broken once a worker dies
(``BrokenProcessPool``) — every future already submitted fails and
every later submit raises.  The supervisor owns the executor behind a
factory, runs work through :meth:`run` with an optional heartbeat
deadline, and converts pool-level failures into the typed
:class:`~repro.service.resilience.errors.WorkerDeath` /
:class:`~repro.service.resilience.errors.WorkerHang` the retry policy
understands — rebuilding the pool as a side effect so the *next*
attempt lands on healthy workers.

Rebuilds are generation-guarded: when a dead pool takes several
in-flight futures down at once, each failure observes the generation it
ran under and only the first triggers a rebuild; the rest reuse the
already-rebuilt pool.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, Executor
from typing import Any, Callable, Optional

from repro.telemetry import family_cache, get_logger

from .errors import WorkerDeath, WorkerHang

logger = get_logger("repro.service.resilience.supervisor")


@family_cache
def _metrics(reg):
    return (
        reg.counter("repro_resilience_worker_restarts_total",
                    "Worker-pool rebuilds, by cause (death or hang)"),
    )


class WorkerPoolSupervisor:
    """Owns an executor and rebuilds it on worker death or hang."""

    def __init__(self, factory: Callable[[], Optional[Executor]]) -> None:
        self._factory = factory
        self._executor: Optional[Executor] = factory()
        self._generation = 0

    @property
    def executor(self) -> Optional[Executor]:
        """The live executor (``None`` for inline execution)."""
        return self._executor

    @property
    def generation(self) -> int:
        """Bumps on every rebuild; used to de-duplicate rebuild storms."""
        return self._generation

    async def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        timeout_s: Optional[float] = None,
    ) -> Any:
        """Run ``fn(*args)`` on the pool with supervision.

        Raises :class:`WorkerDeath` when the pool broke underneath the
        call and :class:`WorkerHang` when ``timeout_s`` elapsed without
        a result — in both cases after rebuilding the pool, so the
        caller's retry lands on fresh workers.  ``CancelledError``
        passes straight through (job cancellation is not a fault).
        """
        loop = asyncio.get_running_loop()
        generation = self._generation
        if self._executor is None:
            # Inline execution: nothing to supervise, nothing can hang
            # "in a worker" — run directly (mirrors the scheduler's
            # pre-supervision inline path).
            return fn(*args)
        future = loop.run_in_executor(self._executor, fn, *args)
        try:
            if timeout_s is not None:
                return await asyncio.wait_for(asyncio.shield(future), timeout_s)
            return await future
        except asyncio.TimeoutError:
            future.cancel()
            self._rebuild(generation, cause="hang")
            raise WorkerHang(
                f"worker exceeded heartbeat deadline of {timeout_s:.1f}s;"
                " pool rebuilt") from None
        except BrokenExecutor as exc:
            self._rebuild(generation, cause="death")
            raise WorkerDeath(f"worker pool broken: {exc}") from exc

    def _rebuild(self, observed_generation: int, cause: str) -> None:
        if observed_generation != self._generation:
            # A sibling failure from the same dead pool already rebuilt.
            return
        old = self._executor
        self._generation += 1
        _metrics()[0].labels(cause=cause).inc()
        logger.warning("rebuilding worker pool", extra={
            "cause": cause, "generation": self._generation,
        })
        self._executor = self._factory()
        if old is not None:
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def shutdown(self, wait: bool = True) -> None:
        """Shut the current pool down (scheduler close path)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

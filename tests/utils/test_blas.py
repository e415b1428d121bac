"""Tests for repro.utils.blas.

Process-pool workers run their matrix products on one BLAS thread, also
after the supervisor rebuilds the pool; and the thread count cannot
change an outcome, which is what makes pinning it safe.
"""

import asyncio
import json
from concurrent.futures import BrokenExecutor

import pytest

from repro.core import CNashConfig, CNashSolver
from repro.games.generators import random_game
from repro.service.resilience import WorkerDeath, WorkerPoolSupervisor
from repro.service.scheduler import _make_executor
from repro.utils.blas import blas_threads, set_blas_threads

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS with a thread setter is loaded"
)


@pytest.fixture
def two_blas_threads():
    """This process's BLAS runs two threads for the test; the count is restored after."""
    before = blas_threads()
    set_blas_threads(2)
    try:
        yield
    finally:
        set_blas_threads(before)


def _break_pool():
    raise BrokenExecutor("worker died")


def _worker_blas_threads(executor):
    futures = [executor.submit(blas_threads) for _ in range(4)]
    return {future.result(timeout=60) for future in futures}


def test_process_pool_workers_run_one_blas_thread(two_blas_threads, counts):
    """A fresh and a rebuilt process pool both pin their workers to one thread."""
    supervisor = WorkerPoolSupervisor(lambda: _make_executor("process", 2))
    try:
        assert _worker_blas_threads(supervisor.executor) == {1}

        async def rebuild():
            with pytest.raises(WorkerDeath):
                await supervisor.run(_break_pool)

        asyncio.run(rebuild())
        assert supervisor.generation == 1
        assert counts("repro_resilience_worker_restarts_total", cause="death") == 1
        assert _worker_blas_threads(supervisor.executor) == {1}
    finally:
        supervisor.shutdown()
    assert blas_threads() == 2  # the parent process keeps its own setting


def test_thread_executor_leaves_the_blas_setting_alone(two_blas_threads):
    executor = _make_executor("thread", 2)
    try:
        assert _worker_blas_threads(executor) == {2}
    finally:
        executor.shutdown()


def test_outcomes_do_not_depend_on_the_blas_thread_count(two_blas_threads):
    """One and two BLAS threads give byte-identical outcomes across a resync."""
    game = random_game(256, 256, seed=3)  # float payoffs
    config = CNashConfig(num_intervals=8, num_iterations=1100)

    def outcome(num_threads):
        set_blas_threads(num_threads)
        assert blas_threads() == num_threads
        data = CNashSolver(game, config).solve_batch(num_runs=32, seed=7).to_dict()
        data.pop("wall_clock_seconds")
        return json.dumps(data, sort_keys=True)

    assert outcome(1) == outcome(2)

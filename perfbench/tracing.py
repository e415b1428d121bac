"""Per-layer spans, recorded from outside the program by wrapping its functions.

A traced run installs wrappers around the public functions of each
layer before the worker pool forks, so forked worker processes inherit
them.  Each wrapper records ``(layer, name, start, end, pid, thread)``
in memory.  Worker processes ship their spans home inside the worker
call's result dict (under :data:`SPAN_KEY`); a wrapper on
``WorkerPoolSupervisor.run`` removes them again before the scheduler
sees the result, so the program's own data is untouched.

Layer names are the program's module names.  ``service.scheduler`` has
no synchronous public functions (it is a set of coroutines), so its
spans are the callbacks its event loop runs (``asyncio.Handle._run``):
the scheduler's busy time on the loop thread.
"""

from __future__ import annotations

import asyncio.events
import functools
import importlib
import os
import sys
import threading
from time import perf_counter_ns
from typing import Any, Callable, List, Optional, Tuple

from perfbench.stats import Span

#: Result-dict key carrying a worker process's spans to the parent.
SPAN_KEY = "_perfbench_spans"

#: Worker-call entry points: one span per executor round trip.
WORKER_ENTRIES = ("execute_job_batch_payload", "solve_shard_payload", "execute_request_payload")

#: Spans counted as settling a result into its wire form.
SETTLE_NAMES = (
    "outcome_from_batch",
    "SolverBatchResult.merge",
    "SolverBatchResult.to_dict",
    "SolverBatchResult.from_dict",
)

#: Spans counted as request parsing and serialising.
PARSE_NAMES = ("SolveRequest.from_dict", "SolveRequest.to_dict")


def _kernel_info(args: tuple, result: Any) -> dict:
    """Work done by one annealing launch, from its problem and result."""
    problem = args[0].problem
    if hasattr(problem, "evaluators"):  # multi-game launches are always delta
        n, m = problem.evaluators[0].game.shape
        mode = "delta"
    else:
        n, m = problem.evaluator.game.shape
        delta = (getattr(problem, "evaluation", "full") == "delta"
                 and n * m >= problem.MIN_INCREMENTAL_CELLS)
        mode = "delta" if delta else "full"
    return {
        "shape": (n, m),
        "mode": mode,
        "chains": int(result.batch_size),
        "iterations": int(result.num_iterations),
        "accepted": int(result.num_accepted.sum()),
    }


#: (layer, "module:qualname", describe) for every wrapped function.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("api", "repro.api:sweep", None),
    ("api", "repro.api:solve_many", None),
    ("service.cache", "repro.service.cache:ResultCache.get", None),
    ("service.cache", "repro.service.cache:ResultCache.put", None),
    ("service.cache", "repro.service.cache:ResultCache.put_many", None),
    ("service.jobs", "repro.service.jobs:SolveRequest.from_dict", None),
    ("service.jobs", "repro.service.jobs:SolveRequest.to_dict", None),
    ("service.jobs", "repro.service.jobs:SolveOutcome.from_dict", None),
    ("service.jobs", "repro.service.jobs:SolveOutcome.to_dict", None),
    ("service.batching", "repro.service.batching:execute_job_batch_payload", None),
    ("service.portfolio", "repro.service.portfolio:solve_shard_payload", None),
    ("service.portfolio", "repro.service.portfolio:execute_request_payload", None),
    ("service.portfolio", "repro.service.portfolio:outcome_from_batch", None),
    ("service.portfolio", "repro.core.result:SolverBatchResult.merge", None),
    ("service.portfolio", "repro.core.result:SolverBatchResult.to_dict", None),
    ("service.portfolio", "repro.core.result:SolverBatchResult.from_dict", None),
    ("games", "repro.games.matcache:MaterializationCache.get", None),
    ("games", "repro.games.spec:GameSpec.materialize_tracked", None),
    ("games", "repro.games.spec:GameSpec.materialize", None),
    ("core", "repro.core.solver:solve_shards_fused", None),
    ("core", "repro.core.solver:CNashSolver.solve_batch", None),
    ("annealing", "repro.annealing.vectorized:FusedAnnealer.run", _kernel_info),
    ("annealing", "repro.annealing.vectorized:FusedAnnealer.run_multi", _kernel_info),
    ("annealing", "repro.annealing.vectorized:VectorizedAnnealer.run", _kernel_info),
    ("hardware", "repro.hardware.bicrossbar:BiCrossbar.evaluate_batch", None),
)


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Use :meth:`install` before the client (and its worker pool) is
    created and :meth:`uninstall` after it is closed.
    """

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self.pid = self.parent_pid
        self.records: List[tuple] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with no spans and no open calls.
        self.pid = os.getpid()
        self.records = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, name: str, start_ns: int, end_ns: int,
               info: Optional[dict] = None) -> None:
        self.records.append(
            (layer, name, start_ns, end_ns, self.pid, threading.get_native_id(), info)
        )

    def spans(self) -> List[Span]:
        """Every span recorded so far, as :class:`~perfbench.stats.Span` objects."""
        return [
            Span(layer, name, start / 1e9, end / 1e9, (pid, tid), info)
            for layer, name, start, end, pid, tid, info in self.records
        ]

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable,
              describe: Optional[Callable] = None) -> Callable:
        recorder = self
        ships = fn.__name__ in WORKER_ENTRIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            stack.append(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                recorder.record(layer, name, start, perf_counter_ns())
                raise
            end = perf_counter_ns()
            stack.pop()
            recorder.record(layer, name, start, end,
                            describe(args, result) if describe else None)
            if ships and not stack and recorder.pid != recorder.parent_pid:
                # Top-level call in a worker process: send the spans home.
                result[SPAN_KEY], recorder.records = recorder.records, []
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target, the scheduler's event loop and the span return path."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        for layer, target, describe in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." not in qualname:
                original = getattr(module, qualname)
                wrapped = self._wrap(layer, qualname, original, describe)
                # Replace every module-level reference (``from x import f``).
                for name, loaded in list(sys.modules.items()):
                    if loaded is None or not name.startswith("repro"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attr, wrapped)
                continue
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                value = classmethod(self._wrap(layer, qualname, raw.__func__, describe))
            else:
                value = self._wrap(layer, qualname, raw, describe)
            self._patch(owner, attr, value)

        handle_run = asyncio.events.Handle._run
        self._patch(asyncio.events.Handle, "_run",
                    self._wrap("service.scheduler", "event-loop callback", handle_run))

        from repro.service.resilience.supervisor import WorkerPoolSupervisor

        supervised_run = WorkerPoolSupervisor.run
        recorder = self

        @functools.wraps(supervised_run)
        async def run(self, fn, *args, **kwargs):
            result = await supervised_run(self, fn, *args, **kwargs)
            if isinstance(result, dict) and SPAN_KEY in result:
                recorder.records.extend(result.pop(SPAN_KEY))
            return result

        self._patch(WorkerPoolSupervisor, "run", run)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

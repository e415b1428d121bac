"""Same-session reference rates and process bookkeeping."""

from __future__ import annotations

import multiprocessing
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple, Union

import numpy as np

from perfbench.workloads import SOLVE_CONFIG, SWEEP_SOLVE, sweep_stream
from repro.core.config import CNashConfig
from repro.core.max_qubo import IdealEvaluator
from repro.core.two_phase_sa import run_two_phase_sa_multi

#: Games of one full sweep-solve dispatch (16 jobs: 12 at 64x64, 4 at 256x256).
SOLO_GAMES = 16
#: Iterations of the solo reference launches (the per-proposal rate is
#: set by per-iteration overhead, so a shorter launch measures the same rate).
SOLO_ITERATIONS = 400


def _proc_kib(path: str, key: str) -> int:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _pss_kib(pid: Union[int, str]) -> int:
    """Proportional set size of a process (its VmRSS where PSS is unavailable).

    PSS splits each page among the processes sharing it, so pages a
    forked worker still shares with the parent count once in a sum.
    """
    return (_proc_kib(f"/proc/{pid}/smaps_rollup", "Pss")
            or _proc_kib(f"/proc/{pid}/status", "VmRSS"))


class MemorySampler:
    """Peak total memory of this process and its worker processes over a pass.

    A thread sums the processes' PSS every ``interval_s``.  Sampling
    stops inside :meth:`paused`, where the benchmark's own checks run,
    so the peak is the program's.  The workers are the live children
    when the sampler starts.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_kib = 0
        self._pids: List[Union[int, str]] = []
        self._paused = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-memory", daemon=True)

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0

    def _sample(self) -> None:
        if not self._paused:
            self.peak_kib = max(self.peak_kib, sum(_pss_kib(pid) for pid in self._pids))

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "MemorySampler":
        self._pids = ["self"] + [child.pid for child in multiprocessing.active_children()]
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @contextmanager
    def paused(self) -> Iterator[None]:
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


def stop_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process to end; terminate stragglers."""
    for child in multiprocessing.active_children():
        child.join(timeout_s)
        if child.is_alive():
            child.terminate()
            child.join(timeout_s)


def l3_bytes() -> int:
    """Last-level cache size from sysfs (0 when unknown)."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as handle:
            text = handle.read().strip()
    except OSError:
        return 0
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def memory_bandwidth() -> Tuple[float, str]:
    """Single-thread read bandwidth over an array four times the L3.

    Returns ``(bytes/s, description)``; the rate is 0 when the array
    would not fit comfortably in available memory.
    """
    l3 = l3_bytes()
    size = 4 * l3 if l3 else 1 << 30
    available = _proc_kib("/proc/meminfo", "MemAvailable") * 1024
    if available and size > available // 3:
        return 0.0, (f"not measured: a {size / 2**30:.2f} GiB array would not fit; "
                     f"report computed bytes only")
    data = np.ones(size // 8)
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        np.add.reduce(data)
        rates.append(data.nbytes / (time.perf_counter() - start))
    del data
    return statistics.median(rates), (
        f"single-thread read of a {size / 2**30:.2f} GiB array (4 x {l3 / 2**20:.0f} MiB L3), "
        f"median of 5")


def solo_kernel_rate(seed: int) -> float:
    """One-core proposals/s of ``run_two_phase_sa_multi`` on sweep-solve's games.

    Runs the first full dispatch's worth of sweep-solve games in process,
    as the two same-shape fused launches a worker would make (768 and 256
    chains), and returns total proposals over total seconds.
    """
    stream = sweep_stream(SWEEP_SOLVE, seed)
    groups = {}
    for _ in range(SOLO_GAMES):
        spec = next(stream)
        game = spec.materialize()
        groups.setdefault(game.shape, []).append(game)
    config = CNashConfig.from_dict({**SOLVE_CONFIG.to_dict(), "num_iterations": SOLO_ITERATIONS})
    proposals, seconds = 0, 0.0
    for index, games in enumerate(groups.values()):
        launches = [(SWEEP_SOLVE.num_runs, seed + index * SOLO_GAMES + j) for j in range(len(games))]
        evaluators = [IdealEvaluator(game) for game in games]
        start = time.perf_counter()
        run_two_phase_sa_multi(evaluators, config, launches)
        seconds += time.perf_counter() - start
        proposals += SOLO_ITERATIONS * SWEEP_SOLVE.num_runs * len(games)
    return proposals / seconds

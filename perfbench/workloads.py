"""The benchmark's named workloads, generated from the workload seed alone.

Every workload is a closed loop with one caller thread.  The program only
sees the generated games and requests; the seed never reaches it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.backends import SolveSpec
from repro.core.config import CNashConfig
from repro.games.spec import GameSpec

#: Game and request seeds are drawn below this bound; warm-up games use
#: seeds at or above it, so they never coincide with workload games.
SEED_SPACE = 2**31


@dataclass(frozen=True)
class Workload:
    """One named input set: its executor, budget and why it exists.

    A pass is split into segments of about ``segment_seconds`` each;
    rates are medians over the segments and latency percentiles pool
    them.  With ``segment_games`` set, a segment is exactly
    that many games instead of a deadline, so every pass does the same
    work.
    """

    name: str
    executor: str
    why: str
    num_runs: int
    segment_seconds: float
    segment_games: int = 0

    def segments(self, seconds: float) -> int:
        """How many segments a pass of ``seconds`` has."""
        return max(1, round(seconds / self.segment_seconds))

    def rng(self, seed: int) -> np.random.Generator:
        """The workload's own generator for a benchmark seed."""
        tag = int.from_bytes(self.name.encode("utf-8"), "little") % SEED_SPACE
        return np.random.default_rng([int(seed), tag])


SWEEP_OVERHEAD = Workload(
    name="sweep-overhead",
    executor="thread",
    why="64x64 games at a tiny budget with a quarter repeated: the serving path dominates",
    num_runs=2,
    segment_seconds=2.0,
)
SWEEP_SOLVE = Workload(
    name="sweep-solve",
    executor="process",
    why="64x64 and 256x256 games at a large budget: the fused kernel and core use dominate",
    num_runs=64,
    # One in-flight window (api.sweep's default of 32 games) per segment;
    # a window takes about 6 s on a 2-CPU Xeon host, and 20 s passes get
    # four windows.
    segment_seconds=5.0,
    segment_games=32,
)
PAPER_TABLE1 = Workload(
    name="paper-table1",
    executor="process",
    why="the paper's three games, ideal and FeFET hardware, multi-shard: the quality reference",
    num_runs=128,
    segment_seconds=2.0,
)
WORKLOADS = {w.name: w for w in (SWEEP_OVERHEAD, SWEEP_SOLVE, PAPER_TABLE1)}

OVERHEAD_CONFIG = CNashConfig(num_intervals=4, num_iterations=120)
SOLVE_CONFIG = CNashConfig(num_intervals=8, num_iterations=2000)

#: (library spec, num_intervals) of the paper's Table-1 games.
PAPER_GAMES: Tuple[Tuple[str, int], ...] = (
    ("library:battle_of_the_sexes", 6),
    ("library:bird_game", 8),
    ("library:modified_prisoners_dilemma", 8),
)
PAPER_ITERATIONS = 300
#: Warm-up games with the paper games' shapes (2x2, 3x3, 8x8).
PAPER_WARMUP_GAMES = (
    GameSpec.library("stag_hunt"),
    GameSpec.library("coordination_game", num_actions=3),
    GameSpec.library("coordination_game", num_actions=8),
)

#: One in four sweep-overhead entries repeats an earlier game.
REPEAT_EVERY = 4
#: Repeats draw from this many most recent unrepeated games, so some
#: land in the same in-flight window (coalesced) and some after it
#: (result-cache hits).
REPEAT_REACH = 48


def random_spec(seed: int, size: int) -> GameSpec:
    return GameSpec.generator("random", seed=int(seed), num_row_actions=size)


def sweep_spec(workload: Workload, seed: int) -> SolveSpec:
    """The one request budget every game of a sweep workload runs under."""
    config = OVERHEAD_CONFIG if workload is SWEEP_OVERHEAD else SOLVE_CONFIG
    request_seed = int(workload.rng(seed).integers(SEED_SPACE))
    return SolveSpec(num_runs=workload.num_runs, seed=request_seed, options={"config": config})


def sweep_stream(workload: Workload, seed: int) -> Iterator[GameSpec]:
    """The endless, seed-determined game stream of a sweep workload.

    ``sweep-overhead``: 64x64 games; in every block of four entries one
    (at a seeded position) repeats a recent game that has not repeated
    yet, so a quarter of the stream is repeats.  ``sweep-solve``: three
    64x64 games for every 256x256 game, in a fixed pattern so every
    in-flight window holds the same mix.
    """
    rng = workload.rng(seed)
    rng.integers(SEED_SPACE)  # the request seed (see sweep_spec)
    if workload is SWEEP_SOLVE:
        for index in itertools.count():
            size = 256 if index % 4 == 3 else 64
            yield random_spec(rng.integers(SEED_SPACE), size)
    unrepeated: List[GameSpec] = []
    while True:
        repeat_at = int(rng.integers(REPEAT_EVERY))
        for position in range(REPEAT_EVERY):
            if position == repeat_at and unrepeated:
                reach = unrepeated[-REPEAT_REACH:]
                chosen = reach[int(rng.integers(len(reach)))]
                unrepeated.remove(chosen)
                yield chosen
                continue
            spec = random_spec(rng.integers(SEED_SPACE), 64)
            unrepeated.append(spec)
            del unrepeated[:-REPEAT_REACH]
            yield spec


def paper_round(workload: Workload, seed: int, round_index: int) -> List[tuple]:
    """Round ``round_index`` of paper-table1: each game, ideal then hardware.

    Every round uses a fresh request seed, so no job is a cache hit.
    """
    base = int(workload.rng(seed).integers(SEED_SPACE // 2))
    jobs = []
    for game, intervals in PAPER_GAMES:
        for use_hardware in (False, True):
            config = CNashConfig(
                num_intervals=intervals,
                num_iterations=PAPER_ITERATIONS,
                use_hardware=use_hardware,
            )
            spec = SolveSpec(num_runs=workload.num_runs, seed=base + round_index,
                             options={"config": config})
            jobs.append((GameSpec.parse(game), "cnash", spec))
    return jobs


def warmup_jobs(workload: Workload, count: int, iterations: int = 0) -> List[tuple]:
    """Jobs on games outside the workload, at its budget (or fewer iterations)."""
    jobs = []
    for index in range(count):
        if workload is PAPER_TABLE1:
            # Same shapes and configurations as the paper games, other games.
            _, _, spec = paper_round(workload, 0, 0)[index % 6]
            game = PAPER_WARMUP_GAMES[(index % 6) // 2]
        else:
            size = 256 if workload is SWEEP_SOLVE and index % 4 == 3 else 64
            game = random_spec(SEED_SPACE + index, size)
            spec = sweep_spec(workload, 0)
        config = spec.options["config"]
        if iterations:
            config = CNashConfig.from_dict({**config.to_dict(), "num_iterations": iterations})
        jobs.append((game, "cnash", SolveSpec(num_runs=spec.num_runs, seed=SEED_SPACE + index,
                                               options={"config": config})))
    return jobs


def until(stream: Iterator, deadline: float) -> Iterator:
    """Pass an endless ``stream`` through until ``time.perf_counter()`` reaches ``deadline``.

    Items are drawn only while time remains, so a stream shared by
    consecutive segments loses nothing at a segment boundary.
    """
    while time.perf_counter() < deadline:
        yield next(stream)


def pure_equilibria(payoff_row: np.ndarray, payoff_col: np.ndarray) -> Sequence[Tuple[int, int]]:
    """Every pure Nash equilibrium: each action a best response to the other."""
    row_best = payoff_row >= payoff_row.max(axis=0, keepdims=True)
    col_best = payoff_col >= payoff_col.max(axis=1, keepdims=True)
    return [tuple(map(int, cell)) for cell in np.argwhere(row_best & col_best)]

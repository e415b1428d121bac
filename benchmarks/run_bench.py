#!/usr/bin/env python
"""Persistent perf-trajectory harness for the annealing kernels.

Measures, on this machine:

* **Kernel throughput** — proposals/second of the fused kernel with
  full evaluation (``FusedTwoPhaseProblem``) and of the solver's own
  route, which runs incremental *delta* evaluation from the 36-cell
  crossover up (``run_two_phase_sa_batch``), on random integer-payoff
  games, including the headline 64x64 / B=1000 / I=32 workload and the
  paper-sized 2x2 / 3x3 games, where both columns run full evaluation.
  The paper-sized rows also time full evaluation through the FeFET
  bi-crossbar model (``HardwareEvaluator``, column ``fused_hardware``):
  Battle of the Sexes always, the Bird game in full runs.
* **Cost per iteration** — microseconds per fused-kernel iteration of
  small launches, where the fixed per-step cost dominates: 64 chains on
  the paper's three games through the solver's own route (full
  evaluation at 2x2 and 3x3, delta at 8x8) and through the FeFET
  hardware model, plus delta launches on the rectangular 300x2 and 40x3
  games at 64 and 512 chains.
* **End-to-end Table-1 workload** — ``CNashSolver.solve_batch`` on the
  paper's three games for each ``execution`` mode, runs/second and
  success rate.

Results are printed; ``--json PATH`` also writes them as JSON, so the
trajectory can be tracked over time (the tracked ``BENCH_PR4.json`` at
the repo root is one such file)::

    PYTHONPATH=src python benchmarks/run_bench.py --json BENCH_PR4.json
    PYTHONPATH=src python benchmarks/run_bench.py --smoke --assert-speedup 1.0

``--smoke`` shrinks every workload for CI; ``--assert-speedup X`` exits
non-zero unless the delta route is at least ``X`` times as fast as
fused full evaluation on the largest benchmarked game (64x64 in both
modes).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.annealing import AnnealingConfig, FusedAnnealer
from repro.core import (
    CNashConfig,
    CNashSolver,
    FusedTwoPhaseProblem,
    HardwareEvaluator,
    IdealEvaluator,
    run_two_phase_sa_batch,
)
from repro.games import battle_of_the_sexes, bird_game, modified_prisoners_dilemma
from repro.games.generators import random_game
from repro.hardware import BiCrossbar


#: Kernel rows that also time full evaluation through the FeFET hardware
#: model (the Bird game row runs in full runs only).
HARDWARE_ROWS = ("battle of the sexes 2x2", "bird game 3x3")


def _best_of(repeats, fn):
    """Minimum wall-clock over ``repeats`` runs (robust to CI noise)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_kernels(smoke: bool, repeats: int):
    """Proposals/sec of fused full evaluation vs the delta route per workload."""
    if smoke:
        workloads = [
            ("random 64x64", random_game(64, 64, integer_payoffs=True, seed=1), 8, 128, 300),
            ("random 16x16", random_game(16, 16, integer_payoffs=True, seed=1), 8, 128, 300),
            ("battle of the sexes 2x2", battle_of_the_sexes(), 8, 128, 300),
        ]
    else:
        workloads = [
            ("random 64x64", random_game(64, 64, integer_payoffs=True, seed=1), 32, 1000, 300),
            ("random 16x16", random_game(16, 16, integer_payoffs=True, seed=1), 8, 1000, 1000),
            ("battle of the sexes 2x2", battle_of_the_sexes(), 8, 1000, 2000),
            ("bird game 3x3", bird_game(), 8, 1000, 2000),
        ]
    records = []
    for name, game, num_intervals, batch_size, num_iterations in workloads:
        hardware = name in HARDWARE_ROWS
        evaluator = IdealEvaluator(game)
        annealing = AnnealingConfig(num_iterations=num_iterations)
        # The same schedule as ``annealing`` (the AnnealingConfig default).
        config = CNashConfig(
            num_intervals=num_intervals,
            num_iterations=num_iterations,
            initial_temperature=5.0,
            final_temperature=0.01,
        )
        proposals = batch_size * num_iterations

        def run_full():
            FusedAnnealer(
                FusedTwoPhaseProblem(evaluator, num_intervals), annealing
            ).run(batch_size, seed=0)

        def run_delta():
            run_two_phase_sa_batch(evaluator, config, batch_size, seed=0)

        timings = {
            "fused_full": _best_of(repeats, run_full),
            "fused_delta": _best_of(repeats, run_delta),
        }
        if hardware:
            hardware_evaluator = HardwareEvaluator(game, BiCrossbar(game, num_intervals, seed=0))

            def run_hardware():
                FusedAnnealer(
                    FusedTwoPhaseProblem(hardware_evaluator, num_intervals), annealing
                ).run(batch_size, seed=0)

            timings["fused_hardware"] = _best_of(repeats, run_hardware)
        record = {
            "workload": name,
            "shape": list(game.shape),
            "num_intervals": num_intervals,
            "batch_size": batch_size,
            "num_iterations": num_iterations,
            "proposals": proposals,
            "seconds": {key: round(value, 4) for key, value in timings.items()},
            "proposals_per_second": {
                key: round(proposals / value) for key, value in timings.items()
            },
            "delta_speedup_vs_fused_full": round(
                timings["fused_full"] / timings["fused_delta"], 2
            ),
        }
        records.append(record)
        rates = record["proposals_per_second"]
        hardware_rate = (
            f", hardware {rates['fused_hardware']:,} prop/s" if hardware else ""
        )
        print(
            f"[kernel] {name}: "
            f"full {rates['fused_full']:,} prop/s, "
            f"delta {rates['fused_delta']:,} prop/s "
            f"({record['delta_speedup_vs_fused_full']}x vs fused full)"
            f"{hardware_rate}"
        )
    return records


def bench_per_iteration(smoke: bool, repeats: int):
    """Microseconds per fused-kernel iteration of small launches."""
    paper = [battle_of_the_sexes(), bird_game(), modified_prisoners_dilemma()]
    rectangular = [random_game(300, 2, seed=1), random_game(40, 3, seed=1)]
    num_intervals = 6
    num_iterations = 200 if smoke else 1000
    rows = []
    for game in paper[:1] if smoke else paper:
        rows.append((game, "ideal", 64))
        rows.append((game, "hardware", 64))
    for game in rectangular[:1] if smoke else rectangular:
        rows.extend((game, "ideal", chains) for chains in ((64,) if smoke else (64, 512)))
    config = CNashConfig(num_intervals=num_intervals, num_iterations=num_iterations)
    records = []
    for game, evaluator_name, chains in rows:
        if evaluator_name == "ideal":
            evaluator = IdealEvaluator(game)

            def run():
                run_two_phase_sa_batch(evaluator, config, chains, seed=0)
        else:
            evaluator = HardwareEvaluator(game, BiCrossbar(game, num_intervals, seed=0))
            annealing = AnnealingConfig(num_iterations=num_iterations, schedule=config.schedule())

            def run():
                FusedAnnealer(FusedTwoPhaseProblem(evaluator, num_intervals), annealing).run(
                    chains, seed=0
                )

        n, m = game.shape
        route = "delta" if evaluator.supports_incremental() and n * m >= 36 else "full"
        seconds = _best_of(repeats, run)
        record = {
            "game": game.name,
            "shape": [n, m],
            "evaluator": evaluator_name,
            "route": route,
            "chains": chains,
            "num_iterations": num_iterations,
            "us_per_iteration": round(seconds / num_iterations * 1e6, 1),
        }
        records.append(record)
        print(
            f"[per-iteration] {n}x{m} {evaluator_name} ({route}), {chains} chains: "
            f"{record['us_per_iteration']} us/iteration"
        )
    return records


def bench_end_to_end(smoke: bool):
    """Table-1 workload through ``CNashSolver.solve_batch`` per mode."""
    if smoke:
        games = [(battle_of_the_sexes(), 300, 24, 8)]
    else:
        games = [
            (battle_of_the_sexes(), 2000, 200, 20),
            (bird_game(), 2000, 200, 20),
            (modified_prisoners_dilemma(), 2000, 200, 20),
        ]
    records = []
    for game, num_iterations, vector_runs, sequential_runs in games:
        modes = [("sequential", sequential_runs), ("vectorized", vector_runs)]
        entry = {"game": game.name, "num_iterations": num_iterations, "modes": {}}
        for execution, num_runs in modes:
            config = CNashConfig(
                num_intervals=8, num_iterations=num_iterations, execution=execution
            )
            solver = CNashSolver(game, config)
            start = time.perf_counter()
            batch = solver.solve_batch(num_runs=num_runs, seed=0)
            elapsed = time.perf_counter() - start
            entry["modes"][execution] = {
                "num_runs": num_runs,
                "seconds": round(elapsed, 4),
                "runs_per_second": round(num_runs / elapsed, 2),
                "success_rate": round(batch.success_rate, 4),
            }
        sequential = entry["modes"]["sequential"]["runs_per_second"]
        vectorized = entry["modes"]["vectorized"]["runs_per_second"]
        entry["vectorized_speedup_vs_sequential"] = round(vectorized / sequential, 2)
        records.append(entry)
        print(
            f"[end-to-end] {game.name}: sequential {sequential:.1f} runs/s, "
            f"vectorized {vectorized:.1f} runs/s"
        )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--json", type=Path, default=None, help="also write the results to this JSON file"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="kernel timing repeats (best-of)"
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless delta >= X times fused full evaluation on the largest game",
    )
    parser.add_argument(
        "--skip-end-to-end", action="store_true", help="kernel benchmarks only"
    )
    args = parser.parse_args(argv)

    kernels = bench_kernels(args.smoke, max(1, args.repeats))
    per_iteration = bench_per_iteration(args.smoke, max(1, args.repeats))
    end_to_end = [] if args.skip_end_to_end else bench_end_to_end(args.smoke)

    headline = max(kernels, key=lambda record: record["shape"][0] * record["shape"][1])
    payload = {
        "bench": "PR4 incremental delta-objective annealing kernel",
        "smoke": args.smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernel_throughput": kernels,
        "per_iteration": per_iteration,
        "end_to_end_table1": end_to_end,
        "headline": {
            "workload": headline["workload"],
            "delta_speedup_vs_fused_full": headline["delta_speedup_vs_fused_full"],
        },
    }
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.assert_speedup is not None:
        speedup = headline["delta_speedup_vs_fused_full"]
        if speedup < args.assert_speedup:
            print(
                f"FAIL: delta kernel speedup {speedup}x on {headline['workload']} "
                f"is below the required {args.assert_speedup}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: delta kernel {speedup}x vs fused full on {headline['workload']} "
            f"(required >= {args.assert_speedup}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

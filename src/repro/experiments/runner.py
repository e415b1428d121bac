"""Command-line runner for the paper-reproduction experiments.

Usage (after ``pip install -e .``)::

    cnash-experiments table1            # Table 1 at the default scale
    cnash-experiments fig7 fig8         # several experiments in one go
    cnash-experiments all --scale smoke # everything, quickly
    python -m repro.experiments all     # equivalent module invocation
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Sequence

from repro.experiments import (
    fig7_robustness,
    fig8_solution_distribution,
    fig9_distinct_solutions,
    fig10_time_to_solution,
    table1_success_rate,
)

_EXPERIMENTS: Dict[str, Callable[[str, int], object]] = {
    "table1": table1_success_rate.main,
    "fig7": lambda scale, seed: fig7_robustness.main(seed=seed),
    "fig8": fig8_solution_distribution.main,
    "fig9": fig9_distinct_solutions.main,
    "fig10": fig10_time_to_solution.main,
}

_ORDER = ("table1", "fig7", "fig8", "fig9", "fig10")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="cnash-experiments",
        description="Reproduce the tables and figures of the C-Nash paper (DAC 2024).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=list(_ORDER) + ["all"],
        help="which experiments to run",
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=["smoke", "default", "paper"],
        help="run budget (the whole set on a 2-CPU Xeon: default about 20 s, "
        "paper about 4 min)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--service",
        action="store_true",
        help="route every C-Nash batch through the repro.service scheduler "
        "(sharded worker-pool execution + result cache) instead of solving in-process",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=None,
        help="worker pool size for --service (default: executor default)",
    )
    parser.add_argument(
        "--service-shard-size",
        type=int,
        default=None,
        help="runs per shard for --service (default: scheduler default)",
    )
    parser.add_argument(
        "--service-executor",
        default="process",
        choices=["process", "thread", "inline"],
        help="worker pool kind for --service",
    )
    return parser


def _service_backend(client):
    """A :func:`repro.experiments.common.set_solve_backend` adapter.

    Routes every C-Nash batch through :func:`repro.api.solve` with the
    service client attached, so the scheduler shards it across the
    worker pool and serves repeats from the result cache.
    """
    import repro.api as api
    from repro.backends import SolveSpec

    def solve(game, config, num_runs, seed):
        report = api.solve(
            game,
            backend="cnash",
            spec=SolveSpec(num_runs=num_runs, seed=seed, options={"config": config}),
            client=client,
        )
        batch = report.batch_result()
        assert batch is not None  # the cnash backend always carries a batch
        return batch

    return solve


def main(argv: Sequence[str] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    selected: List[str] = list(args.experiments)
    if "all" in selected:
        selected = list(_ORDER)

    client = None
    if args.service:
        from repro.experiments.common import set_solve_backend
        from repro.service.client import InProcessClient
        from repro.service.scheduler import DEFAULT_SHARD_SIZE

        client = InProcessClient(
            max_workers=args.service_workers,
            shard_size=(
                DEFAULT_SHARD_SIZE
                if args.service_shard_size is None
                else args.service_shard_size
            ),
            executor=args.service_executor,
        )
        previous = set_solve_backend(_service_backend(client))
    try:
        for name in selected:
            print()
            mode = " via repro.service" if args.service else ""
            print(f"### Running {name} (scale={args.scale}, seed={args.seed}){mode}")
            print()
            _EXPERIMENTS[name](args.scale, args.seed)
    finally:
        if client is not None:
            set_solve_backend(previous)
            client.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

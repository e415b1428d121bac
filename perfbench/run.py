"""Benchmark entry point.

    python3 perfbench/run.py --workload sweep-overhead --seed 1 --seconds 20 --trace 0

Prints one line per metric, notes, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
when the correctness gate fails and 2 when the program cannot be
imported from ``src/`` or the workload is unknown.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Import the benchmark as the ``perfbench`` package and the program
    # from this checkout's sources.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

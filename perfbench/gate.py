"""Correctness gate: independent equilibrium checks and solo-dispatch replays.

Every delivered equilibrium is re-verified as an epsilon-Nash
equilibrium of the materialised game with the benchmark's own regret
arithmetic, not the solver's classification.  A seeded sample of jobs is
replayed solo (``max_batch_jobs=1`` on the inline executor) and compared
byte for byte with the batched or sharded outcome, ignoring timing and
trace fields.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.workloads import PAPER_TABLE1, pure_equilibria
from repro.games.spec import GameSpec
from repro.games.support_enumeration import support_enumeration
from repro.service.client import InProcessClient

#: Outcome fields that describe how a result was produced, not what it is.
EXECUTION_FIELDS = frozenset({"wall_clock_seconds", "trace", "attempts"})

#: Materialised games the verifier keeps (repeats arrive within this reach).
GAME_CACHE = 64


def canonical(value: Any) -> str:
    """JSON text of an outcome dict without its execution fields."""

    def strip(node: Any) -> Any:
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k not in EXECUTION_FIELDS}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(value), sort_keys=True)


def epsilon(request, payoff_row: np.ndarray, payoff_col: np.ndarray) -> float:
    """The C-Nash tolerance: 1.5 x payoff scale / I unless the request sets one."""
    if request.epsilon is not None:
        return float(request.epsilon)
    if request.config.epsilon is not None:
        return float(request.config.epsilon)
    scale = float(max(np.abs(payoff_row).max(), np.abs(payoff_col).max())) or 1.0
    return 1.5 * scale / request.config.num_intervals


class Verifier:
    """Checks delivered outcomes against the games they claim to solve.

    Ground truth is every equilibrium (support enumeration) for the
    paper's small games, and every pure equilibrium for the sweeps'
    64x64 and 256x256 games, where full enumeration is intractable.
    """

    def __init__(self, workload) -> None:
        self.full_truth = workload is PAPER_TABLE1
        self._games: "OrderedDict[str, Tuple[np.ndarray, np.ndarray, list]]" = OrderedDict()
        #: Ground truth outlives :meth:`forget`: it is small, and support
        #: enumeration of the 8x8 paper game takes seconds.
        self._truth: "OrderedDict[str, list]" = OrderedDict()

    def _game(self, spec: GameSpec):
        key = spec.fingerprint()
        entry = self._games.get(key)
        if entry is None:
            game = spec.materialize()
            a, b = np.asarray(game.payoff_row, float), np.asarray(game.payoff_col, float)
            truth = self._truth.get(key)
            if truth is None:
                if self.full_truth:
                    truth = [(p.p, p.q) for p in support_enumeration(game).profiles]
                else:
                    n, m = a.shape
                    truth = [(np.eye(n)[i], np.eye(m)[j]) for i, j in pure_equilibria(a, b)]
                self._truth[key] = truth
                if len(self._truth) > GAME_CACHE:
                    self._truth.popitem(last=False)
            entry = self._games[key] = (a, b, truth)
            if len(self._games) > GAME_CACHE:
                self._games.popitem(last=False)
        return entry

    def forget(self) -> None:
        """Drop every materialised payoff matrix."""
        self._games.clear()

    def check(self, request, record: Dict[str, Any]) -> Tuple[Optional[str], int, int]:
        """``(error or None, truth equilibria found, truth equilibria)``."""
        a, b, truth = self._game(request.game)
        if record["fingerprint"] != request.fingerprint():
            return "outcome answers another request", 0, len(truth)
        rate = record["success_rate"]
        equilibria = record["equilibria"]
        if not 0.0 <= rate <= 1.0:
            return f"success rate {rate} outside [0, 1]", 0, len(truth)
        if rate > 0 and not equilibria:
            return "successful runs but no equilibrium delivered", 0, len(truth)
        eps = epsilon(request, a, b)
        slack = 1e-9 * max(1.0, eps)
        profiles = []
        for entry in equilibria:
            p, q = np.asarray(entry["p"], float), np.asarray(entry["q"], float)
            if p.shape != (a.shape[0],) or q.shape != (a.shape[1],):
                return "equilibrium has the wrong shape", 0, len(truth)
            if p.min() < 0 or q.min() < 0 or abs(p.sum() - 1) > 1e-9 or abs(q.sum() - 1) > 1e-9:
                return "equilibrium is not a pair of distributions", 0, len(truth)
            row, col = a @ q, b.T @ p
            regret = max(row.max() - p @ row, col.max() - q @ col)
            if regret > eps + slack:
                return f"regret {regret:.6g} exceeds epsilon {eps:.6g}", 0, len(truth)
            profiles.append((p, q))
        atol = 0.5 / request.config.num_intervals + 1e-9
        found = sum(
            any(np.abs(p - tp).max() <= atol and np.abs(q - tq).max() <= atol
                for p, q in profiles)
            for tp, tq in truth
        )
        return None, found, len(truth)


class Gate:
    """Tallies of one run's correctness checks."""

    def __init__(self, workload) -> None:
        self.verifier = Verifier(workload)
        self.attempted = self.failed = self.checked = self.equilibria = 0
        self.found = self.truth = self.replayed = 0
        self.problems: List[str] = []

    def verify(self, jobs) -> None:
        """Check each job's delivered outcome, then drop its equilibria and payoffs.

        Dropping them keeps the benchmark's own memory flat however many
        jobs a pass delivers, so ``peak_rss_mb`` measures the program.
        """
        for job in jobs:
            self.attempted += 1
            if job.record is None:
                self.failed += 1
                self.problems.append(job.error or "job never delivered")
                continue
            error, found, truth = self.verifier.check(job.request, job.record)
            self.checked += 1
            self.equilibria += len(job.record.pop("equilibria"))
            self.found += found
            self.truth += truth
            if error:
                self.failed += 1
                self.problems.append(f"{job.request.game.display_name()}: {error}")
        self.verifier.forget()

    def replay(self, samples: Sequence[Tuple[Any, Dict[str, Any]]]) -> None:
        """Compare delivered outcomes with the same requests dispatched solo."""
        with InProcessClient(executor="inline", max_batch_jobs=1) as client:
            for request, delivered in samples:
                self.replayed += 1
                if canonical(client.solve(request).to_dict()) != canonical(delivered):
                    self.failed += 1
                    self.problems.append(f"{request.game.display_name()}: solo replay differs")

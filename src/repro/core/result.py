"""Result types returned by the C-Nash solver.

Both result types are JSON round-trippable (``to_dict`` / ``from_dict``)
so that batches can cross process and network boundaries — the service
layer (:mod:`repro.service`) ships shard results back from worker
processes and caches outcomes on disk in exactly this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.strategy import QuantizedStrategyPair
from repro.games.equilibrium import StrategyProfile


@dataclass
class SolverRunResult:
    """Outcome of a single C-Nash SA run.

    Attributes
    ----------
    best_state:
        The lowest-objective quantised strategy pair visited.
    best_objective:
        Its MAX-QUBO objective value (as seen by the evaluator used).
    is_equilibrium:
        Whether the best state is an epsilon-equilibrium of the game.
    classification:
        ``"pure"``, ``"mixed"`` or ``"error"`` (Fig. 8's categories).
    iterations:
        Number of SA iterations executed.
    iterations_to_best:
        Iteration index at which the best state was first reached (0 if
        the initial state was never improved upon).
    acceptance_rate:
        Fraction of proposed moves accepted.
    objective_history:
        Objective trajectory (only when history recording was enabled).
    """

    best_state: QuantizedStrategyPair
    best_objective: float
    is_equilibrium: bool
    classification: str
    iterations: int
    iterations_to_best: int
    acceptance_rate: float
    objective_history: List[float] = field(default_factory=list)

    @property
    def profile(self) -> StrategyProfile:
        """The best state as a strategy profile."""
        return self.best_state.to_profile()

    @property
    def success(self) -> bool:
        """Alias for :attr:`is_equilibrium` (the paper's success criterion)."""
        return self.is_equilibrium

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "p_counts": self.best_state.p_counts.tolist(),
            "q_counts": self.best_state.q_counts.tolist(),
            "num_intervals": int(self.best_state.num_intervals),
            "best_objective": float(self.best_objective),
            "is_equilibrium": bool(self.is_equilibrium),
            "classification": self.classification,
            "iterations": int(self.iterations),
            "iterations_to_best": int(self.iterations_to_best),
            "acceptance_rate": float(self.acceptance_rate),
            "objective_history": [float(value) for value in self.objective_history],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverRunResult":
        """Reconstruct a run result from :meth:`to_dict` output."""
        state = QuantizedStrategyPair(
            p_counts=np.asarray(data["p_counts"], dtype=int),
            q_counts=np.asarray(data["q_counts"], dtype=int),
            num_intervals=int(data["num_intervals"]),
        )
        return cls(
            best_state=state,
            best_objective=float(data["best_objective"]),
            is_equilibrium=bool(data["is_equilibrium"]),
            classification=str(data["classification"]),
            iterations=int(data["iterations"]),
            iterations_to_best=int(data["iterations_to_best"]),
            acceptance_rate=float(data["acceptance_rate"]),
            objective_history=[float(value) for value in data.get("objective_history", [])],
        )


@dataclass
class SolverBatchResult:
    """Aggregate of many independent SA runs on one game."""

    game_name: str
    runs: List[SolverRunResult]
    num_intervals: int
    wall_clock_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    @property
    def num_runs(self) -> int:
        """Number of runs in the batch."""
        return len(self.runs)

    @property
    def success_rate(self) -> float:
        """Fraction of runs that ended on an equilibrium (Table 1 metric)."""
        if not self.runs:
            return 0.0
        return sum(run.success for run in self.runs) / len(self.runs)

    @property
    def successful_profiles(self) -> List[StrategyProfile]:
        """Profiles of the successful runs (possibly with duplicates)."""
        return [run.profile for run in self.runs if run.success]

    def classification_fractions(self) -> dict:
        """Fractions of runs per classification (Fig. 8 metric)."""
        if not self.runs:
            return {"pure": 0.0, "mixed": 0.0, "error": 0.0}
        total = len(self.runs)
        fractions = {"pure": 0.0, "mixed": 0.0, "error": 0.0}
        for run in self.runs:
            fractions[run.classification] += 1.0
        return {key: value / total for key, value in fractions.items()}

    def to_dict(self) -> dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "game_name": self.game_name,
            "num_intervals": int(self.num_intervals),
            "wall_clock_seconds": float(self.wall_clock_seconds),
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SolverBatchResult":
        """Reconstruct a batch from :meth:`to_dict` output."""
        return cls(
            game_name=str(data["game_name"]),
            runs=[SolverRunResult.from_dict(run) for run in data["runs"]],
            num_intervals=int(data["num_intervals"]),
            wall_clock_seconds=float(data.get("wall_clock_seconds", 0.0)),
        )

    @classmethod
    def merge(cls, batches: Sequence["SolverBatchResult"]) -> "SolverBatchResult":
        """Concatenate shard batches of one game into a single batch.

        The service layer shards a ``num_runs=N`` request across worker
        processes and merges the per-shard batches back together; run
        order follows shard order, so a fixed shard plan gives a merged
        batch independent of how many workers executed it.  Wall-clock
        times are summed (total compute, not the parallel span).
        """
        batches = list(batches)
        if not batches:
            raise ValueError("cannot merge an empty sequence of batches")
        first = batches[0]
        for batch in batches[1:]:
            if batch.game_name != first.game_name:
                raise ValueError(
                    f"cannot merge batches of different games: "
                    f"{first.game_name!r} vs {batch.game_name!r}"
                )
            if batch.num_intervals != first.num_intervals:
                raise ValueError(
                    f"cannot merge batches with different num_intervals: "
                    f"{first.num_intervals} vs {batch.num_intervals}"
                )
        runs: List[SolverRunResult] = []
        for batch in batches:
            runs.extend(batch.runs)
        return cls(
            game_name=first.game_name,
            runs=runs,
            num_intervals=first.num_intervals,
            wall_clock_seconds=float(sum(batch.wall_clock_seconds for batch in batches)),
        )

    def mean_iterations_to_solution(self) -> Optional[float]:
        """Average iterations-to-best over the *successful* runs.

        Returns ``None`` when no run succeeded.  This is the quantity the
        hardware timing model converts into time-to-solution (Fig. 10).
        """
        successful = [run.iterations_to_best for run in self.runs if run.success]
        if not successful:
            return None
        return float(np.mean(successful))

"""Baseline Nash solvers and reference data.

The paper compares C-Nash against two D-Wave quantum annealers running
the S-QUBO formulation.  This package provides a classical stand-in for
those machines (same formulation, machine-profile-based degradation and
timing), an exhaustive grid-search baseline, and the literature-reported
numbers from the paper's tables/figures for side-by-side reporting.
"""

from repro.baselines.dwave_like import (
    BaselineBatchResult,
    BaselineRunResult,
    DWaveLikeSolver,
)
from repro.baselines.exhaustive import ExhaustiveSearchResult, exhaustive_grid_search
from repro.baselines.literature import (
    FIG8_SOLUTION_DISTRIBUTIONS,
    FIG9_SOLUTIONS_FOUND,
    FIG9_TARGET_SOLUTIONS,
    FIG10_SPEEDUP_OVER_CNASH,
    PAPER_GAME_NAMES,
    PAPER_SA_ITERATIONS,
    PAPER_SA_RUNS,
    TABLE1_SUCCESS_RATE_PERCENT,
    SolutionDistribution,
    canonical_game_name,
)
from repro.baselines.machines import (
    DWAVE_2000Q6,
    DWAVE_ADVANTAGE_4_1,
    AnnealerProfile,
    available_machines,
    get_machine,
)

__all__ = [
    "DWaveLikeSolver",
    "BaselineRunResult",
    "BaselineBatchResult",
    "exhaustive_grid_search",
    "ExhaustiveSearchResult",
    "AnnealerProfile",
    "DWAVE_2000Q6",
    "DWAVE_ADVANTAGE_4_1",
    "available_machines",
    "get_machine",
    "SolutionDistribution",
    "TABLE1_SUCCESS_RATE_PERCENT",
    "FIG8_SOLUTION_DISTRIBUTIONS",
    "FIG9_TARGET_SOLUTIONS",
    "FIG9_SOLUTIONS_FOUND",
    "FIG10_SPEEDUP_OVER_CNASH",
    "PAPER_GAME_NAMES",
    "PAPER_SA_RUNS",
    "PAPER_SA_ITERATIONS",
    "canonical_game_name",
]

"""C-Nash core: MAX-QUBO transformation, two-phase SA and the solver API.

This package implements the paper's primary contribution: the lossless
MAX-QUBO formulation of the Nash-equilibrium problem (Sec. 3.1), the
quantised mixed-strategy representation the crossbar mapping induces
(Sec. 3.2), the two-phase simulated-annealing controller (Sec. 3.4 /
Alg. 1) and the :class:`~repro.core.solver.CNashSolver` front end that
ties them to either an exact evaluator or the FeFET hardware model.
"""

from repro.core.config import PAPER_ITERATIONS, PAPER_NUM_RUNS, CNashConfig
from repro.core.max_qubo import (
    GridOptimum,
    HardwareEvaluator,
    IdealEvaluator,
    ObjectiveEvaluator,
    composition_grid,
    enumerate_grid_optimum,
    max_qubo_breakdown,
    max_qubo_objective,
)
from repro.core.result import SolverBatchResult, SolverRunResult
from repro.core.solver import CNashSolver
from repro.core.strategy import (
    BatchedStrategyState,
    QuantizedStrategyPair,
    StrategyMoveGenerator,
    TransferMoveBatch,
    sample_transfer_moves,
)
from repro.core.two_phase_sa import (
    FusedTwoPhaseProblem,
    TwoPhaseAnnealingProblem,
    TwoPhaseSARun,
    run_two_phase_sa,
    run_two_phase_sa_batch,
)

__all__ = [
    "CNashSolver",
    "CNashConfig",
    "PAPER_ITERATIONS",
    "PAPER_NUM_RUNS",
    "QuantizedStrategyPair",
    "BatchedStrategyState",
    "StrategyMoveGenerator",
    "TransferMoveBatch",
    "sample_transfer_moves",
    "max_qubo_objective",
    "max_qubo_breakdown",
    "ObjectiveEvaluator",
    "IdealEvaluator",
    "HardwareEvaluator",
    "GridOptimum",
    "composition_grid",
    "enumerate_grid_optimum",
    "TwoPhaseAnnealingProblem",
    "FusedTwoPhaseProblem",
    "TwoPhaseSARun",
    "run_two_phase_sa",
    "run_two_phase_sa_batch",
    "SolverRunResult",
    "SolverBatchResult",
]

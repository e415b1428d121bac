"""D-Wave-like baseline Nash solvers over the S-QUBO formulation.

The paper's baselines run the slack-QUBO formulation on D-Wave quantum
annealers.  Without access to those machines, this module provides a
*simulated annealer* baseline that reproduces the relevant behaviour:

* it solves the same lossy S-QUBO formulation (pure strategies only,
  slack variables, penalty weights);
* it degrades the QUBO coefficients the way sparse-connectivity analog
  hardware does — quantising couplings to the machine's effective
  precision and adding chain-length-dependent control noise — using the
  machine profiles of :mod:`repro.baselines.machines`;
* its per-sample timing follows the machine profile, so time-to-solution
  comparisons (Fig. 10) use realistic baseline costs.

The decoded samples are classified exactly like C-Nash output (error /
pure NE / mixed NE), noting that this formulation can *never* produce a
mixed solution — which is one of the paper's central points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.baselines.machines import AnnealerProfile, DWAVE_ADVANTAGE_4_1
from repro.games.bimatrix import BimatrixGame
from repro.games.equilibrium import EquilibriumSet, StrategyProfile, classify_profile
from repro.qubo.annealer import (
    BinaryAnnealerConfig,
    BinaryAnnealResult,
    anneal_qubo,
    anneal_qubo_batch,
)
from repro.qubo.model import QuboModel
from repro.qubo.s_qubo import SQuboFormulation, SQuboWeights, build_s_qubo
from repro.utils.rng import SeedLike, as_generator, spawn_generators


@dataclass
class BaselineRunResult:
    """Outcome of one baseline sample (one anneal-and-read cycle)."""

    profile: Optional[StrategyProfile]
    feasible: bool
    is_equilibrium: bool
    classification: str
    energy: float

    @property
    def success(self) -> bool:
        """Whether the sample decoded to a Nash equilibrium."""
        return self.is_equilibrium


@dataclass
class BaselineBatchResult:
    """Aggregate of many baseline samples on one game."""

    game_name: str
    solver_name: str
    runs: List[BaselineRunResult]
    wall_clock_seconds: float = 0.0
    hardware_time_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    @property
    def success_rate(self) -> float:
        """Fraction of samples that decoded to an equilibrium (Table 1 metric)."""
        if not self.runs:
            return 0.0
        return sum(run.success for run in self.runs) / len(self.runs)

    def classification_fractions(self) -> dict:
        """Fractions per outcome class (Fig. 8 metric)."""
        fractions = {"pure": 0.0, "mixed": 0.0, "error": 0.0}
        if not self.runs:
            return fractions
        for run in self.runs:
            fractions[run.classification] += 1.0
        return {key: value / len(self.runs) for key, value in fractions.items()}

    @property
    def successful_profiles(self) -> List[StrategyProfile]:
        """Profiles of the successful samples."""
        return [run.profile for run in self.runs if run.success and run.profile is not None]


class DWaveLikeSolver:
    """A classical stand-in for a D-Wave machine solving the S-QUBO form.

    Parameters
    ----------
    game:
        The game to solve.
    machine:
        The machine profile whose precision/connectivity/timing to model.
    weights:
        S-QUBO penalty weights.
    num_sweeps:
        Sweeps of the classical annealer per sample (the knob standing in
        for the machine's anneal schedule).
    epsilon:
        Equilibrium tolerance for classifying decoded samples; defaults
        to exact (pure equilibria decode exactly).
    seed:
        Seed controlling the hardware-degradation noise sample.
    """

    def __init__(
        self,
        game: BimatrixGame,
        machine: AnnealerProfile = DWAVE_ADVANTAGE_4_1,
        weights: Optional[SQuboWeights] = None,
        num_sweeps: int = 200,
        epsilon: float = 1e-6,
        seed: SeedLike = None,
    ) -> None:
        if num_sweeps < 1:
            raise ValueError(f"num_sweeps must be >= 1, got {num_sweeps}")
        self.game = game
        self.machine = machine
        self.num_sweeps = num_sweeps
        self.epsilon = epsilon
        self.formulation: SQuboFormulation = build_s_qubo(game, weights=weights)
        rng = as_generator(seed)
        self.effective_model = self._degrade_model(self.formulation.model, rng)

    # ------------------------------------------------------------------
    # Hardware degradation
    # ------------------------------------------------------------------
    def _degrade_model(self, model: QuboModel, rng: np.random.Generator) -> QuboModel:
        """Apply precision quantisation and embedding noise to the QUBO.

        Analog control error scales with the embedding chain length a
        dense problem needs on the machine's sparse topology.
        """
        matrix = model.q_matrix.copy()
        scale = float(np.abs(matrix).max())
        if scale == 0:
            return model
        # Coupling precision: quantise to the machine's effective bit depth.
        levels = 2**self.machine.coupling_precision_bits - 1
        step = scale / levels
        quantised = np.round(matrix / step) * step
        # Integrated control error grows with chain length.
        chain_length = self.machine.embedding_overhead(model.num_variables)
        noise_sigma = 0.01 * scale * np.sqrt(chain_length)
        noise = rng.normal(0.0, noise_sigma, size=matrix.shape)
        noise = (noise + noise.T) / 2.0
        return QuboModel(quantised + noise, offset=model.offset, variable_names=model.variable_names)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, seed: SeedLike = None) -> BaselineRunResult:
        """Draw one sample (one anneal-and-read cycle) and classify it."""
        result = anneal_qubo(
            self.effective_model,
            config=BinaryAnnealerConfig(num_sweeps=self.num_sweeps),
            seed=seed,
        )
        return self._classify_sample(result)

    def _classify_sample(self, result: BinaryAnnealResult) -> BaselineRunResult:
        """Decode one anneal result and classify it against the game."""
        decoded = self.formulation.decode(result.best_assignment)
        if not decoded.feasible or decoded.profile is None:
            return BaselineRunResult(
                profile=None,
                feasible=False,
                is_equilibrium=False,
                classification="error",
                energy=result.best_energy,
            )
        classification = classify_profile(
            self.game, decoded.profile, epsilon=self.epsilon, purity_atol=1e-6
        )
        return BaselineRunResult(
            profile=decoded.profile,
            feasible=True,
            is_equilibrium=classification != "error",
            classification=classification,
            energy=result.best_energy,
        )

    def sample_batch(
        self,
        num_samples: int,
        seed: SeedLike = None,
        progress=None,
        execution: str = "vectorized",
    ) -> BaselineBatchResult:
        """Draw ``num_samples`` independent samples (a D-Wave submission).

        All reads anneal in lockstep on the chain-parallel engine
        (:func:`~repro.qubo.annealer.anneal_qubo_batch`) by default, so
        baseline sweeps scale the same way as the C-Nash solver; pass
        ``execution="sequential"`` for the one-read-at-a-time reference.
        ``progress(completed, total)`` follows the same convention as
        :meth:`CNashSolver.solve_batch`: completed samples on the
        sequential path, the annealed fraction of the sweep budget
        scaled to sample counts on the vectorized one.
        """
        if num_samples <= 0:
            raise ValueError(f"num_samples must be positive, got {num_samples}")
        start = time.perf_counter()
        if execution == "sequential":
            # Reference path: per-sample spawned generators, bit-compatible
            # with the pre-vectorization seeding of this method.
            results: List[BinaryAnnealResult] = []
            for index, rng in enumerate(spawn_generators(seed, num_samples)):
                results.append(
                    anneal_qubo(
                        self.effective_model,
                        config=BinaryAnnealerConfig(num_sweeps=self.num_sweeps),
                        seed=rng,
                    )
                )
                if progress is not None:
                    progress(index + 1, num_samples)
        else:
            results = anneal_qubo_batch(
                self.effective_model,
                num_samples,
                config=BinaryAnnealerConfig(num_sweeps=self.num_sweeps),
                seed=seed,
                execution=execution,
                progress=progress,
            )
        runs = [self._classify_sample(result) for result in results]
        elapsed = time.perf_counter() - start
        return BaselineBatchResult(
            game_name=self.game.name,
            solver_name=self.machine.name,
            runs=runs,
            wall_clock_seconds=elapsed,
            hardware_time_seconds=self.machine.batch_time_s(num_samples),
        )

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------
    def distinct_solutions(self, batch: BaselineBatchResult, atol: float = 1e-3) -> EquilibriumSet:
        """De-duplicated equilibria found across a batch of samples."""
        return EquilibriumSet.from_profiles(self.game, batch.successful_profiles, atol=atol)

    def time_to_solution_s(self, batch: BaselineBatchResult) -> Optional[float]:
        """Expected machine time until the first successful sample.

        The expected number of samples until a success is
        ``1 / success_rate``; each costs one anneal-and-read cycle, plus
        one programming cycle per submission.
        """
        if batch.success_rate == 0:
            return None
        expected_samples = 1.0 / batch.success_rate
        return (
            self.machine.programming_time_ms * 1e-3
            + expected_samples * self.machine.sample_time_s
        )

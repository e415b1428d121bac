"""Configuration of the C-Nash solver."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.annealing.acceptance import (
    AcceptanceRule,
    GlauberAcceptance,
    GreedyAcceptance,
    MetropolisAcceptance,
)
from repro.annealing.temperature import GeometricSchedule, TemperatureSchedule

#: Built-in acceptance rules reconstructable from their class name.
ACCEPTANCE_REGISTRY = {
    cls.__name__: cls for cls in (MetropolisAcceptance, GreedyAcceptance, GlauberAcceptance)
}


def acceptance_to_dict(rule: AcceptanceRule) -> Dict[str, Any]:
    """Canonical JSON form of a (dataclass) acceptance rule."""
    name = type(rule).__name__
    if name not in ACCEPTANCE_REGISTRY:
        raise ValueError(
            f"acceptance rule {name!r} is not serialisable; "
            f"supported: {', '.join(sorted(ACCEPTANCE_REGISTRY))}"
        )
    params = {
        f.name: getattr(rule, f.name) for f in dataclasses.fields(rule)  # type: ignore[arg-type]
    }
    return {"name": name, "params": params}


def acceptance_from_dict(data: Dict[str, Any]) -> AcceptanceRule:
    """Inverse of :func:`acceptance_to_dict`."""
    name = data["name"]
    if name not in ACCEPTANCE_REGISTRY:
        raise ValueError(f"unknown acceptance rule {name!r}")
    return ACCEPTANCE_REGISTRY[name](**data.get("params", {}))


@dataclass(frozen=True)
class CNashConfig:
    """Solver configuration.

    Parameters
    ----------
    num_intervals:
        Strategy quantisation ``I`` (probabilities live on a ``1/I``
        grid).  The paper's mapping example uses ``I = 4``; the default
        of 8 resolves the mixed equilibria of all three benchmark games.
    num_iterations:
        SA iterations per run (the paper uses 10 000 / 15 000 / 50 000
        for the three games; the default is sized for the default grid).
    initial_temperature / final_temperature:
        The ``T_max`` / ``T_min`` of Alg. 1, in units of the objective.
    use_hardware:
        Evaluate the objective through the FeFET bi-crossbar model
        (device variability, read noise, ADC and WTA non-idealities)
        instead of exact floating point.
    cells_per_element:
        ``t`` for the hardware mapping (0 = automatic).
    adc_bits:
        ADC resolution of the hardware datapath.
    epsilon:
        Equilibrium tolerance used when classifying the solver output;
        when ``None`` a tolerance matched to the quantisation step and
        payoff scale is derived automatically.
    pure_start_bias:
        Probability that a run starts from a random pure strategy pair
        rather than a random mixed one.
    record_history:
        Record the objective trajectory of each run (memory heavy for
        long runs).
    execution:
        Batch execution strategy for :meth:`CNashSolver.solve_batch`:
        ``"vectorized"`` (default) runs all SA chains in lockstep as
        stacked array operations, ``"sequential"`` runs them one at a
        time (the reference implementation).  Both sample the same move
        and acceptance distributions; single ``solve`` calls always use
        the sequential engine.

        Every vectorized batch runs on the fused kernel, which picks its
        candidate-energy strategy from what it can see: the exact
        evaluator on games of at least 36 payoff cells gets O(n+m)
        rank-1 delta updates, with a periodic full re-sync bounding
        float drift; the hardware evaluator (physical two-phase reads),
        custom evaluators and smaller games re-evaluate the whole
        objective per proposal.  The fused kernel's block-sampled
        random stream differs from the per-iteration stream of the
        earlier vectorized engine, so seeded vectorized batches sample
        different (identically distributed) runs than releases that
        predate it; ``execution="sequential"`` remains the stream-stable
        reference.
    """

    num_intervals: int = 8
    num_iterations: int = 5000
    initial_temperature: float = 1.0
    final_temperature: float = 1e-3
    use_hardware: bool = False
    cells_per_element: int = 0
    adc_bits: int = 10
    epsilon: Optional[float] = None
    pure_start_bias: float = 0.5
    record_history: bool = False
    execution: str = "vectorized"
    acceptance: AcceptanceRule = field(default_factory=MetropolisAcceptance)

    #: Supported batch execution strategies.
    EXECUTION_MODES = ("vectorized", "sequential")

    def __post_init__(self) -> None:
        if self.num_intervals < 1:
            raise ValueError(f"num_intervals must be >= 1, got {self.num_intervals}")
        if self.num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1, got {self.num_iterations}")
        if self.initial_temperature <= 0 or self.final_temperature <= 0:
            raise ValueError("temperatures must be positive")
        if self.final_temperature > self.initial_temperature:
            raise ValueError("final_temperature must not exceed initial_temperature")
        if not (0.0 <= self.pure_start_bias <= 1.0):
            raise ValueError(f"pure_start_bias must be in [0, 1], got {self.pure_start_bias}")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.adc_bits < 1:
            raise ValueError(f"adc_bits must be >= 1, got {self.adc_bits}")
        if self.execution not in self.EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {self.EXECUTION_MODES}, got {self.execution!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form of the configuration (inverse of :meth:`from_dict`).

        This is the wire representation used by the service layer and the
        unified backend API; its keys are part of the request-fingerprint
        contract, so adding a field to the config means extending this
        dict (and bumping any persisted caches).
        """
        return {
            "num_intervals": self.num_intervals,
            "num_iterations": self.num_iterations,
            "initial_temperature": self.initial_temperature,
            "final_temperature": self.final_temperature,
            "use_hardware": self.use_hardware,
            "cells_per_element": self.cells_per_element,
            "adc_bits": self.adc_bits,
            "epsilon": self.epsilon,
            "pure_start_bias": self.pure_start_bias,
            "record_history": self.record_history,
            "execution": self.execution,
            "acceptance": acceptance_to_dict(self.acceptance),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CNashConfig":
        """Reconstruct a configuration from :meth:`to_dict` output."""
        payload = dict(data)
        payload["acceptance"] = acceptance_from_dict(payload["acceptance"])
        return cls(**payload)

    def schedule(self) -> TemperatureSchedule:
        """The temperature schedule implied by the configured bounds."""
        return GeometricSchedule(initial=self.initial_temperature, final=self.final_temperature)

    def effective_epsilon(self, payoff_scale: float) -> float:
        """The equilibrium tolerance to use for a game with the given payoff scale.

        Quantising probabilities to ``1/I`` perturbs expected payoffs by
        at most roughly ``payoff_scale / I`` per player, so the automatic
        tolerance scales with both.
        """
        if self.epsilon is not None:
            return self.epsilon
        if payoff_scale <= 0:
            payoff_scale = 1.0
        return 1.5 * payoff_scale / self.num_intervals


#: Paper-scale iteration counts for the three benchmark games (Sec. 4.2).
PAPER_ITERATIONS = {
    "Battle of the Sexes": 10_000,
    "Bird Game": 15_000,
    "Modified Prisoner's Dilemma (8 actions)": 50_000,
}

#: Number of SA runs per game used in the paper's evaluation.
PAPER_NUM_RUNS = 5000

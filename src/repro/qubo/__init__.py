"""QUBO substrate: model, builder, S-QUBO baseline formulation and solvers.

The baselines the paper compares against solve the Nash-equilibrium
problem through a slack-QUBO (S-QUBO) transformation on quantum
annealers.  This package provides the QUBO representation, an incremental
builder, the S-QUBO formulation itself, a brute-force reference solver
and a classical binary simulated annealer.
"""

from repro.qubo.annealer import (
    BinaryAnnealerConfig,
    BinaryAnnealResult,
    FusedBinaryQuboProblem,
    anneal_qubo,
    anneal_qubo_batch,
)
from repro.qubo.brute_force import BruteForceResult, brute_force_solve, enumerate_assignments
from repro.qubo.builder import QuboBuilder
from repro.qubo.encoding import FixedPointEncoding, decode_one_hot, one_hot_names
from repro.qubo.ising import (
    IsingModel,
    bits_to_spins,
    ising_to_qubo,
    qubo_to_ising,
    spins_to_bits,
)
from repro.qubo.model import QuboModel
from repro.qubo.s_qubo import (
    SQuboFormulation,
    SQuboSample,
    SQuboWeights,
    build_s_qubo,
)

__all__ = [
    "QuboModel",
    "QuboBuilder",
    "IsingModel",
    "qubo_to_ising",
    "ising_to_qubo",
    "spins_to_bits",
    "bits_to_spins",
    "FixedPointEncoding",
    "one_hot_names",
    "decode_one_hot",
    "SQuboFormulation",
    "SQuboSample",
    "SQuboWeights",
    "build_s_qubo",
    "brute_force_solve",
    "BruteForceResult",
    "enumerate_assignments",
    "anneal_qubo",
    "anneal_qubo_batch",
    "FusedBinaryQuboProblem",
    "BinaryAnnealerConfig",
    "BinaryAnnealResult",
]

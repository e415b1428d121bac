"""Classical single-spin-flip simulated annealer for QUBO models.

This is the binary annealer used by the D-Wave-like baseline solvers
(:mod:`repro.baselines`): it minimises a :class:`~repro.qubo.model.QuboModel`
with Metropolis single-bit flips under a configurable temperature
schedule.  The C-Nash solver itself does *not* use this module — it runs
the two-phase SA over quantized mixed strategies instead
(:mod:`repro.core.two_phase_sa`).

Multi-read sampling (:func:`anneal_qubo_batch`) runs on the same fused
chain-parallel engine as the C-Nash solver
(:class:`~repro.annealing.vectorized.FusedAnnealer`): all reads advance
in lockstep with O(batch x n) delta updates per proposal, so baseline
comparisons scale the same way as the main solver.  :func:`anneal_qubo`
is its sequential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.annealing.acceptance import MetropolisAcceptance
from repro.annealing.engine import AnnealingConfig
from repro.annealing.temperature import GeometricSchedule, TemperatureSchedule
from repro.annealing.vectorized import (
    FusedAnnealer,
    FusedBatchProblem,
    run_scaled_progress_callback,
)
from repro.qubo.model import QuboModel
from repro.utils.rng import SeedLike, as_generator


@dataclass
class BinaryAnnealerConfig:
    """Configuration of the binary QUBO annealer."""

    num_sweeps: int = 1000
    schedule: TemperatureSchedule = field(
        default_factory=lambda: GeometricSchedule(initial=5.0, final=0.01)
    )
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.num_sweeps <= 0:
            raise ValueError(f"num_sweeps must be positive, got {self.num_sweeps}")


@dataclass
class BinaryAnnealResult:
    """Outcome of one annealing run."""

    best_assignment: np.ndarray
    best_energy: float
    final_assignment: np.ndarray
    final_energy: float
    num_sweeps: int
    num_flips_accepted: int
    energy_history: List[float] = field(default_factory=list)


def anneal_qubo(
    model: QuboModel,
    config: Optional[BinaryAnnealerConfig] = None,
    seed: SeedLike = None,
    initial_assignment: Optional[np.ndarray] = None,
) -> BinaryAnnealResult:
    """Minimise ``model`` with single-bit-flip simulated annealing.

    Each sweep proposes one flip per variable (in random order) and
    accepts with the Metropolis criterion at the sweep's temperature.
    """
    config = config or BinaryAnnealerConfig()
    rng = as_generator(seed)
    n = model.num_variables
    if initial_assignment is None:
        state = rng.integers(0, 2, size=n).astype(float)
    else:
        state = np.asarray(initial_assignment, dtype=float).copy()
        if state.shape != (n,):
            raise ValueError(f"initial_assignment must have shape ({n},), got {state.shape}")

    energy = model.energy(state)
    best_state = state.copy()
    best_energy = energy
    accepted = 0
    history: List[float] = []

    for sweep in range(config.num_sweeps):
        temperature = config.schedule.temperature(sweep, config.num_sweeps)
        order = rng.permutation(n)
        for index in order:
            delta = model.energy_delta(state, int(index))
            if delta <= 0 or (
                temperature > 0 and rng.random() < np.exp(-delta / temperature)
            ):
                state[index] = 1.0 - state[index]
                energy += delta
                accepted += 1
                if energy < best_energy:
                    best_energy = energy
                    best_state = state.copy()
        if config.record_history:
            history.append(energy)

    return BinaryAnnealResult(
        best_assignment=best_state,
        best_energy=float(best_energy),
        final_assignment=state,
        final_energy=float(energy),
        num_sweeps=config.num_sweeps,
        num_flips_accepted=accepted,
        energy_history=history,
    )


@dataclass(frozen=True)
class _PerSweepSchedule(TemperatureSchedule):
    """Adapter holding the temperature constant within each sweep.

    The sequential annealer evaluates its schedule once per sweep and
    performs ``num_variables`` flips at that temperature; the vectorized
    engine evaluates per flip iteration.  Mapping the flip index back to
    its sweep index keeps the two temperature trajectories identical for
    *any* schedule, including iteration-index-dependent ones such as
    :class:`~repro.annealing.temperature.LogarithmicSchedule`.
    """

    inner: TemperatureSchedule
    num_variables: int

    def temperature(self, iteration: int, num_iterations: int) -> float:
        num_sweeps = max(1, num_iterations // self.num_variables)
        return self.inner.temperature(iteration // self.num_variables, num_sweeps)

    def temperatures(self, num_iterations: int) -> np.ndarray:
        # One inner evaluation per *sweep* instead of per flip; values are
        # bit-identical to per-iteration calls by construction.
        if num_iterations <= 0:
            return np.empty(0)
        num_sweeps = max(1, num_iterations // self.num_variables)
        indices = np.arange(num_iterations) // self.num_variables
        per_sweep = np.array(
            [self.inner.temperature(index, num_sweeps) for index in range(int(indices[-1]) + 1)]
        )
        return per_sweep[indices]


def _batched_flip_deltas(
    q_matrix: np.ndarray, assignments: np.ndarray, flips: np.ndarray, current_bits: np.ndarray
) -> np.ndarray:
    """Energy change of flipping bit ``flips[b]`` in every read ``b``.

    The same O(n) delta as :meth:`QuboModel.energy_delta`, for the whole
    batch: flipping ``x_k`` by ``dx = 1 - 2 x_k`` changes the energy by
    ``2 dx sum_{j != k} Q[k, j] x_j + Q[k, k] dx`` (since ``x_k`` is
    binary; assumes the symmetric ``Q`` that :class:`QuboModel` stores).
    """
    delta_x = 1.0 - 2.0 * current_bits
    q_rows = q_matrix[flips]
    diagonal = q_matrix[flips, flips]
    off_diagonal = np.einsum("bj,bj->b", q_rows, assignments) - diagonal * current_bits
    return 2.0 * delta_x * off_diagonal + diagonal * delta_x


class _BinaryBatchState:
    """Stacked assignments of all reads, one row per read."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: np.ndarray):
        self.assignments = assignments


class FusedBinaryQuboProblem(FusedBatchProblem[_BinaryBatchState]):
    """Permutation-sweep single-bit-flip minimisation on the fused kernel.

    Proposals follow the sequential annealer's *permutation-sweep*
    kernel: each read flips every bit exactly once per sweep in an
    independent random order (iid-uniform flips would leave ~1/e of the
    bits unproposed per sweep and measurably shift the baseline success
    statistics), so ``num_variables`` proposals are one sweep.  Flip
    energies are O(batch × n) deltas against problem-owned mutable
    assignment buffers, with structured (read, bit) staged flips and
    permutation queues drained in blocks, so accept/reject needs no
    per-iteration state allocation.  The queues make an instance
    stateful: use one per :meth:`FusedAnnealer.run` call.
    """

    def __init__(self, model: QuboModel):
        self.model = model
        self._q_matrix = np.ascontiguousarray(model.q_matrix)
        self._queue: Optional[np.ndarray] = None
        self._queue_cursor = 0

    def begin(
        self,
        batch_size: int,
        rng: np.random.Generator,
        initial_states: Optional[_BinaryBatchState] = None,
    ) -> np.ndarray:
        num_variables = self.model.num_variables
        if initial_states is None:
            assignments = rng.integers(0, 2, size=(batch_size, num_variables)).astype(float)
        else:
            assignments = np.array(initial_states.assignments, dtype=float)
        self._assignments = assignments
        self._rows = np.arange(batch_size)
        self._energies = np.array(self.model.energies(assignments), dtype=float)
        self._queue = None
        self._queue_cursor = 0
        return self._energies

    def draw_block(self, num_steps: int, rng: np.random.Generator) -> None:
        """The next ``num_steps`` sweep positions, one bit per read per step."""
        num_variables = self.model.num_variables
        batch_size = self._assignments.shape[0]
        segments = []
        have = 0
        while have < num_steps:
            if self._queue is None or self._queue_cursor >= num_variables:
                self._queue = rng.permuted(
                    np.tile(np.arange(num_variables), (batch_size, 1)), axis=1
                )
                self._queue_cursor = 0
            take = min(num_steps - have, num_variables - self._queue_cursor)
            segments.append(self._queue[:, self._queue_cursor : self._queue_cursor + take])
            self._queue_cursor += take
            have += take
        self._flips = segments[0] if len(segments) == 1 else np.concatenate(segments, axis=1)

    def propose(self, step: int) -> np.ndarray:
        assignments = self._assignments
        flips = self._flips[:, step]
        current_bits = assignments[self._rows, flips]
        self._staged_flips = flips
        self._staged_bits = current_bits
        return self._energies + _batched_flip_deltas(
            self._q_matrix, assignments, flips, current_bits
        )

    def commit(self, accept: np.ndarray) -> None:
        rows = self._rows[accept]
        if rows.size:
            flips = self._staged_flips[accept]
            self._assignments[rows, flips] = 1.0 - self._staged_bits[accept]

    def resync(self) -> Optional[np.ndarray]:
        # Flip deltas accumulate float error on long runs; rebuild the
        # energies from the assignments via the full quadratic form.
        np.copyto(self._energies, self.model.energies(self._assignments))
        return self._energies

    def make_snapshot(self) -> np.ndarray:
        return self._assignments.copy()

    def update_snapshot(self, snapshot: np.ndarray, mask: np.ndarray) -> None:
        np.copyto(snapshot, self._assignments, where=mask[:, None])

    def export_snapshot(self, snapshot: np.ndarray) -> _BinaryBatchState:
        return _BinaryBatchState(snapshot)

    def export_states(self) -> _BinaryBatchState:
        return _BinaryBatchState(self._assignments.copy())

    def current_states(self) -> _BinaryBatchState:
        return _BinaryBatchState(self._assignments)

    def unstack(self, states: _BinaryBatchState, index: int) -> np.ndarray:
        return states.assignments[index].copy()


def anneal_qubo_batch(
    model: QuboModel,
    num_reads: int,
    config: Optional[BinaryAnnealerConfig] = None,
    seed: SeedLike = None,
    execution: str = "vectorized",
    progress=None,
) -> List[BinaryAnnealResult]:
    """Run ``num_reads`` independent annealing runs (a D-Wave-style sample set).

    With ``execution="vectorized"`` (the default) all reads run in
    lockstep on the fused chain-parallel engine
    (:class:`~repro.annealing.vectorized.FusedAnnealer`): each of the
    ``num_sweeps * num_variables`` iterations proposes one bit flip per
    read via an O(batch × n) delta and applies the Metropolis rule to
    the whole batch in place, with block-sampled randomness and a
    periodic energy resync against the full quadratic form.
    ``execution="sequential"`` keeps the reference behaviour of
    independent :func:`anneal_qubo` calls.  Both use the same Markov
    kernel — every bit flipped exactly once per sweep in an independent
    random permutation per read, at per-sweep temperatures — so read
    statistics match in distribution (only the RNG streams differ).
    When history is recorded, the vectorized path reports one energy per
    sweep (the sequential convention).

    ``progress(completed, total)`` reports completed reads on the
    sequential path; on the vectorized path (where all reads finish
    together) it reports the completed fraction of the sweep budget
    scaled to read counts, ending at ``(num_reads, num_reads)`` either
    way.
    """
    if num_reads <= 0:
        raise ValueError(f"num_reads must be positive, got {num_reads}")
    if execution == "sequential":
        rng = as_generator(seed)
        results = []
        for index in range(num_reads):
            results.append(anneal_qubo(model, config=config, seed=rng))
            if progress is not None:
                progress(index + 1, num_reads)
        return results
    if execution != "vectorized":
        raise ValueError(
            f"execution must be 'vectorized' or 'sequential', got {execution!r}"
        )
    config = config or BinaryAnnealerConfig()
    num_variables = model.num_variables
    callback = None
    if progress is not None:
        callback = run_scaled_progress_callback(
            progress, config.num_sweeps * num_variables, num_reads
        )
    problem = FusedBinaryQuboProblem(model)
    annealer = FusedAnnealer(
        problem,
        AnnealingConfig(
            num_iterations=config.num_sweeps * num_variables,
            schedule=_PerSweepSchedule(config.schedule, num_variables),
            acceptance=MetropolisAcceptance(),
            record_history=config.record_history,
            # Record at sweep boundaries only (the sequential convention);
            # per-flip history would be a num_variables-fold memory blowup.
            history_stride=num_variables,
        ),
    )
    batch = annealer.run(num_reads, seed=seed, callback=callback)
    results: List[BinaryAnnealResult] = []
    for index in range(num_reads):
        # One entry per sweep boundary, matching the sequential runs.
        history = batch.chain_history(index)
        results.append(
            BinaryAnnealResult(
                best_assignment=problem.unstack(batch.best_states, index),
                best_energy=float(batch.best_energies[index]),
                final_assignment=problem.unstack(batch.final_states, index),
                final_energy=float(batch.final_energies[index]),
                num_sweeps=config.num_sweeps,
                num_flips_accepted=int(batch.num_accepted[index]),
                energy_history=history,
            )
        )
    return results

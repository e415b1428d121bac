"""Quantized strategy pairs and the SA move generator.

The C-Nash hardware represents each player's mixed strategy as integer
interval counts: action ``i`` of the row player is played with
probability ``counts[i] / I``, with the counts summing to ``I``.  The SA
logic (Alg. 1) explores this grid by randomly moving one interval of
probability mass from one action to another, which preserves the simplex
constraint by construction ("satisfied by circuits" in the paper's
words).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.games.equilibrium import StrategyProfile
from repro.hardware.mapping import StrategyQuantizer


@dataclass(frozen=True)
class QuantizedStrategyPair:
    """A pair of quantised strategies stored as interval counts.

    Attributes
    ----------
    p_counts, q_counts:
        Integer arrays summing to ``num_intervals`` for the row and
        column players respectively.
    num_intervals:
        The quantisation ``I``.
    """

    p_counts: np.ndarray
    q_counts: np.ndarray
    num_intervals: int

    def __post_init__(self) -> None:
        p = np.asarray(self.p_counts, dtype=int)
        q = np.asarray(self.q_counts, dtype=int)
        if self.num_intervals < 1:
            raise ValueError(f"num_intervals must be >= 1, got {self.num_intervals}")
        for name, counts in (("p_counts", p), ("q_counts", q)):
            if counts.ndim != 1 or counts.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D array")
            if np.any(counts < 0):
                raise ValueError(f"{name} must be non-negative, got {counts}")
            if counts.sum() != self.num_intervals:
                raise ValueError(
                    f"{name} must sum to {self.num_intervals}, got {int(counts.sum())}"
                )
        object.__setattr__(self, "p_counts", p)
        object.__setattr__(self, "q_counts", q)

    @property
    def p(self) -> np.ndarray:
        """Row player's probabilities."""
        return self.p_counts.astype(float) / self.num_intervals

    @property
    def q(self) -> np.ndarray:
        """Column player's probabilities."""
        return self.q_counts.astype(float) / self.num_intervals

    def to_profile(self) -> StrategyProfile:
        """Convert to a :class:`~repro.games.equilibrium.StrategyProfile`.

        Grid states are probability vectors by construction (counts are
        non-negative and sum to the interval total), so the profile is
        built through the validation-free trusted constructor.
        """
        return StrategyProfile.trusted(self.p, self.q)

    def is_pure(self) -> bool:
        """True when both players put all intervals on a single action."""
        return bool(self.p_counts.max() == self.num_intervals and self.q_counts.max() == self.num_intervals)

    def key(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Hashable representation (used to de-duplicate visited states)."""
        return tuple(int(c) for c in self.p_counts), tuple(int(c) for c in self.q_counts)

    @classmethod
    def from_probabilities(
        cls, p: np.ndarray, q: np.ndarray, num_intervals: int
    ) -> "QuantizedStrategyPair":
        """Quantise a pair of probability vectors onto the grid."""
        quantizer = StrategyQuantizer(num_intervals)
        return cls(
            p_counts=quantizer.to_counts(p),
            q_counts=quantizer.to_counts(q),
            num_intervals=num_intervals,
        )

    @classmethod
    def uniform(cls, num_row_actions: int, num_col_actions: int, num_intervals: int) -> "QuantizedStrategyPair":
        """The (quantised) uniform strategy pair."""
        quantizer = StrategyQuantizer(num_intervals)
        p = np.full(num_row_actions, 1.0 / num_row_actions)
        q = np.full(num_col_actions, 1.0 / num_col_actions)
        return cls(quantizer.to_counts(p), quantizer.to_counts(q), num_intervals)


def _nth_positive(
    positive: np.ndarray, num_positive: np.ndarray, pick: np.ndarray
) -> np.ndarray:
    """Column of the ``pick[r]``-th ``True`` of every row ``r`` of ``positive``.

    ``num_positive`` holds the per-row ``True`` counts and every
    ``pick[r]`` must lie in ``[0, num_positive[r])``.  Reads the answer
    out of the flat ``True`` positions (row-major, so ascending within a
    row) instead of a per-row running count over every cell: the only
    cumsum runs over the rows.
    """
    num_rows, num_cols = positive.shape
    flat = np.flatnonzero(positive)
    first = np.cumsum(num_positive) - num_positive
    return flat[first + pick] - np.arange(0, num_rows * num_cols, num_cols)


@dataclass
class TransferMoveBatch:
    """One structured interval-transfer move per chain.

    Instead of materialising candidate count arrays, the fused annealing
    kernel represents each chain's proposal as *(player, from-action,
    to-action)*: the moving player transfers one interval of probability
    mass from ``source`` to ``target``.  Chains are grouped by moving
    player so evaluators can apply the two rank-1 update families with
    one gather each.  Chains whose chosen player has fewer than two
    actions appear in neither group — their proposal is the identity
    move (matching :meth:`StrategyMoveGenerator.propose`, which leaves
    such a player unchanged).
    """

    #: Chain indices whose *row* player moves, with per-entry actions.
    p_rows: np.ndarray
    p_source: np.ndarray
    p_target: np.ndarray
    #: Chain indices whose *column* player moves, with per-entry actions.
    q_rows: np.ndarray
    q_source: np.ndarray
    q_target: np.ndarray

    def apply(
        self,
        p_counts: np.ndarray,
        q_counts: np.ndarray,
        accept: Optional[np.ndarray] = None,
    ) -> None:
        """Apply the moves in place, optionally only where ``accept`` is set."""
        for rows, source, target, counts in (
            (self.p_rows, self.p_source, self.p_target, p_counts),
            (self.q_rows, self.q_source, self.q_target, q_counts),
        ):
            if accept is not None:
                keep = accept[rows]
                rows, source, target = rows[keep], source[keep], target[keep]
            if rows.size:
                counts[rows, source] -= 1
                counts[rows, target] += 1


_EMPTY_INDEX = np.empty(0, dtype=np.int64)


def _pick_transfer(
    counts: np.ndarray, rows: np.ndarray, u_donor: np.ndarray, u_receiver: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Donor/receiver actions for the chains in ``rows``, from uniforms.

    Samples the same distribution as the scalar
    :meth:`StrategyMoveGenerator._transfer` — donor uniform over the
    actions holding at least one interval, receiver uniform over the
    remaining actions — for every chain of ``rows`` at once and from
    pre-drawn ``U[0, 1)`` variates instead of fresh generator calls, so
    a whole block of iterations can share one draw.
    """
    num_actions = counts.shape[1]
    if num_actions < 2 or rows.size == 0:
        return _EMPTY_INDEX, _EMPTY_INDEX, _EMPTY_INDEX
    sub = counts[rows]
    positive = sub > 0
    num_positive = positive.sum(axis=1)
    pick = np.minimum(
        (u_donor[rows] * num_positive).astype(np.int64), num_positive - 1
    )
    source = _nth_positive(positive, num_positive, pick)
    target = (u_receiver[rows] * (num_actions - 1)).astype(np.int64)
    np.minimum(target, num_actions - 2, out=target)
    target += target >= source
    return rows, source, target


def sample_transfer_moves(
    p_counts: np.ndarray,
    q_counts: np.ndarray,
    u_player: np.ndarray,
    u_donor: np.ndarray,
    u_receiver: np.ndarray,
) -> TransferMoveBatch:
    """One structured SA move per chain from three rows of block uniforms.

    Each chain perturbs its row player when ``u_player < 0.5`` and its
    column player otherwise; the move transfers a single interval of
    probability mass between two actions of that player (the Alg.-1
    neighbourhood, identical in distribution to
    :meth:`StrategyMoveGenerator.propose`).
    """
    move_p = u_player < 0.5
    p_rows, p_source, p_target = _pick_transfer(
        p_counts, np.flatnonzero(move_p), u_donor, u_receiver
    )
    q_rows, q_source, q_target = _pick_transfer(
        q_counts, np.flatnonzero(~move_p), u_donor, u_receiver
    )
    return TransferMoveBatch(p_rows, p_source, p_target, q_rows, q_source, q_target)


@dataclass(frozen=True)
class BatchedStrategyState:
    """A stacked batch of quantised strategy pairs.

    The chain-parallel execution engine keeps all ``B`` SA chains in one
    object: ``p_counts`` is a ``(B, n)`` integer array (each row summing
    to ``num_intervals``) and ``q_counts`` a ``(B, m)`` array.  Unlike
    :class:`QuantizedStrategyPair` there is no per-construction
    revalidation — the transfer moves preserve the simplex constraint by
    construction, and hot-loop allocations stay O(B) array ops.
    """

    p_counts: np.ndarray
    q_counts: np.ndarray
    num_intervals: int

    @property
    def batch_size(self) -> int:
        """Number of stacked chains ``B``."""
        return int(self.p_counts.shape[0])

    @property
    def p(self) -> np.ndarray:
        """Row-player probabilities, shape ``(B, n)``."""
        return self.p_counts.astype(float) / self.num_intervals

    @property
    def q(self) -> np.ndarray:
        """Column-player probabilities, shape ``(B, m)``."""
        return self.q_counts.astype(float) / self.num_intervals

    def state(self, index: int) -> QuantizedStrategyPair:
        """Chain ``index``'s strategy pair as a validated scalar state."""
        return QuantizedStrategyPair(
            self.p_counts[index].copy(), self.q_counts[index].copy(), self.num_intervals
        )

    def validate(self) -> "BatchedStrategyState":
        """Check the stacked simplex constraints (not used in the hot loop)."""
        for name, counts in (("p_counts", self.p_counts), ("q_counts", self.q_counts)):
            if counts.ndim != 2 or counts.shape[1] == 0:
                raise ValueError(f"{name} must be a non-empty 2-D array, got {counts.shape}")
            if np.any(counts < 0):
                raise ValueError(f"{name} must be non-negative")
            if np.any(counts.sum(axis=1) != self.num_intervals):
                raise ValueError(f"every {name} row must sum to {self.num_intervals}")
        if self.p_counts.shape[0] != self.q_counts.shape[0]:
            raise ValueError(
                f"p_counts and q_counts disagree on batch size: "
                f"{self.p_counts.shape[0]} vs {self.q_counts.shape[0]}"
            )
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        batch_size: int,
        num_row_actions: int,
        num_col_actions: int,
        num_intervals: int,
        rng: np.random.Generator,
        pure_bias: float = 0.5,
    ) -> "BatchedStrategyState":
        """Sample ``batch_size`` independent initial strategy pairs.

        Per chain and player: with probability ``pure_bias`` a random
        pure strategy, otherwise a multinomial draw over the simplex grid
        — the batched counterpart of
        :meth:`StrategyMoveGenerator.random_state`.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if not (0.0 <= pure_bias <= 1.0):
            raise ValueError(f"pure_bias must be in [0, 1], got {pure_bias}")

        def sample(num_actions: int) -> np.ndarray:
            pure = rng.random(batch_size) < pure_bias
            mixed = rng.multinomial(
                num_intervals, np.full(num_actions, 1.0 / num_actions), size=batch_size
            )
            pure_counts = np.zeros((batch_size, num_actions), dtype=int)
            pure_counts[
                np.arange(batch_size), rng.integers(num_actions, size=batch_size)
            ] = num_intervals
            return np.where(pure[:, None], pure_counts, mixed)

        return cls(sample(num_row_actions), sample(num_col_actions), num_intervals)

    @classmethod
    def from_pairs(cls, pairs: Sequence[QuantizedStrategyPair]) -> "BatchedStrategyState":
        """Stack scalar strategy pairs (all with the same quantisation)."""
        if len(pairs) == 0:
            raise ValueError("cannot stack an empty sequence of strategy pairs")
        intervals = pairs[0].num_intervals
        if any(pair.num_intervals != intervals for pair in pairs):
            raise ValueError("all pairs must share the same num_intervals")
        return cls(
            np.stack([pair.p_counts for pair in pairs]),
            np.stack([pair.q_counts for pair in pairs]),
            intervals,
        )

    @classmethod
    def broadcast(cls, pair: QuantizedStrategyPair, batch_size: int) -> "BatchedStrategyState":
        """Replicate one strategy pair across ``batch_size`` chains."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        return cls(
            np.tile(pair.p_counts, (batch_size, 1)),
            np.tile(pair.q_counts, (batch_size, 1)),
            pair.num_intervals,
        )


class StrategyMoveGenerator:
    """Generates random neighbouring strategy pairs for the SA search.

    A move picks one player and transfers one interval of probability
    mass from a randomly chosen donor action (with at least one
    interval) to a different randomly chosen receiver action.  Moves
    therefore always stay on the simplex grid.
    """

    @staticmethod
    def _transfer(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        result = counts.copy()
        if result.size < 2:
            return result
        donors = np.flatnonzero(result > 0)
        donor = int(rng.choice(donors))
        receiver = int(rng.integers(result.size - 1))
        if receiver >= donor:
            receiver += 1
        result[donor] -= 1
        result[receiver] += 1
        return result

    def propose(
        self, state: QuantizedStrategyPair, rng: np.random.Generator
    ) -> QuantizedStrategyPair:
        """Return a neighbouring strategy pair."""
        p_counts = state.p_counts
        q_counts = state.q_counts
        if rng.random() < 0.5:
            p_counts = self._transfer(p_counts, rng)
        else:
            q_counts = self._transfer(q_counts, rng)
        return QuantizedStrategyPair(p_counts, q_counts, state.num_intervals)

    def random_state(
        self,
        num_row_actions: int,
        num_col_actions: int,
        num_intervals: int,
        rng: np.random.Generator,
        pure_bias: float = 0.5,
    ) -> QuantizedStrategyPair:
        """Generate a random initial strategy pair.

        With probability ``pure_bias`` each player starts from a random
        pure strategy; otherwise from a random point of the simplex grid
        (multinomial over actions).  Mixing both kinds of starts helps
        the annealer reach both pure and mixed equilibria.
        """
        if not (0.0 <= pure_bias <= 1.0):
            raise ValueError(f"pure_bias must be in [0, 1], got {pure_bias}")

        def sample(num_actions: int) -> np.ndarray:
            if rng.random() < pure_bias:
                counts = np.zeros(num_actions, dtype=int)
                counts[int(rng.integers(num_actions))] = num_intervals
                return counts
            return rng.multinomial(num_intervals, np.full(num_actions, 1.0 / num_actions))

        return QuantizedStrategyPair(
            sample(num_row_actions), sample(num_col_actions), num_intervals
        )

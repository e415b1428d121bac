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


def stack_counts(p_counts: np.ndarray, q_counts: np.ndarray) -> np.ndarray:
    """Both players' counts as one C-contiguous ``(2B, w)`` array, ``w = max(n, m)``.

    Row ``b`` holds chain ``b``'s row-player counts and row ``B + b`` its
    column-player counts (row ``player·B + chain``, player 0 being the
    row player); the narrower player's extra columns hold 0.
    """
    batch_size, num_rows = p_counts.shape
    num_cols = q_counts.shape[1]
    counts = np.zeros((2 * batch_size, max(num_rows, num_cols)), dtype=np.int64)
    counts[:batch_size, :num_rows] = p_counts
    counts[batch_size:, :num_cols] = q_counts
    return counts


class ActionSupport:
    """A count array with every row's positive actions listed.

    ``actions[r, :size[r]]`` holds, in ascending order, the actions of
    row ``r`` that have at least one interval in ``counts[r]``; the
    remaining slots hold the sentinel ``n`` (the number of columns).
    ``I`` intervals sit on at most ``min(n, I)`` actions, so the width
    ``min(n, I) + 1`` leaves every row at least one sentinel slot: the
    last column is always free.  A move's donor is read out of the list
    in ``O(1)`` per row instead of by a scan over all ``n`` counts, and
    :meth:`transfer` keeps the lists current as moves commit, touching
    only the moved rows.  The fused problems keep one list over both
    players' rows of a :func:`stack_counts` array.
    """

    def __init__(self, counts: np.ndarray, num_intervals: Optional[int] = None) -> None:
        """``num_intervals`` is ``I``; without it the lists are ``n + 1`` wide.

        ``counts`` must be C-contiguous: :meth:`transfer` writes through a
        flat view of it.
        """
        if not counts.flags.c_contiguous:
            raise ValueError("ActionSupport needs a C-contiguous count array")
        num_chains, num_actions = counts.shape
        width = 1 + (num_actions if num_intervals is None else min(num_actions, num_intervals))
        positive = counts > 0
        self.counts = counts
        self.num_actions = num_actions
        self.size = positive.sum(axis=1)
        self.actions = np.full((num_chains, width), num_actions, dtype=np.int64)
        # Row-major positions list each row's actions in ascending order;
        # a position minus its row's first position is the action's slot.
        chains, positive_actions = np.nonzero(positive)
        first = np.cumsum(self.size) - self.size
        self.actions[chains, np.arange(chains.size) - first[chains]] = positive_actions
        # Flat views and per-row flat offsets: one flat index reads and
        # writes the same cells as 2-D advanced indexing, at lower cost.
        self._flat_counts = counts.reshape(-1)
        self._flat_actions = self.actions.reshape(-1)
        self._count_base = np.arange(num_chains) * num_actions
        self._list_base = np.arange(num_chains) * width

    def pick(self, rows: np.ndarray, u_donor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Donor action and its slot for every row of ``rows``.

        The donor of ``rows[k]`` is the ``floor(u·size)``-th positive
        action in ascending order (``u = u_donor[k]``, the row's own
        uniform), clamped to the last one.
        """
        size = self.size[rows]
        slot = (u_donor * size).astype(np.int64)
        np.minimum(slot, size - 1, out=slot)
        return self._flat_actions[self._list_base[rows] + slot], slot

    def transfer(
        self, rows: np.ndarray, source: np.ndarray, target: np.ndarray, slot: np.ndarray
    ) -> None:
        """Move one interval from ``source`` to ``target`` in each row of ``rows``.

        ``slot`` is each donor's slot, as :meth:`pick` returned it.  A
        donor left empty frees its slot; a receiver that gains its first
        interval takes the donor's freed slot, else the last column (a
        sentinel); an unchanged support rewrites the last column with the
        sentinel.  Re-sorting the touched rows restores the order.
        """
        counts = self._flat_counts
        base = self._count_base[rows]
        at_source = base + source
        at_target = base + target
        left = counts[at_source] - 1
        counts[at_source] = left
        gained = counts[at_target] + 1
        counts[at_target] = gained
        opened = gained == 1
        emptied = left == 0
        write = np.where(emptied, slot, self.actions.shape[1] - 1)
        write += self._list_base[rows]
        self._flat_actions[write] = np.where(opened, target, self.num_actions)
        lists = self.actions.take(rows, axis=0)
        lists.sort(axis=1)
        self.actions[rows] = lists
        self.size[rows] = self.size[rows] + opened - emptied


#: Per step of a block: the mover rows, every chain's donor uniform and
#: receiver base, and each mover row's chain (``None`` when entry ``k`` is
#: chain ``k``).
TransferPlan = Tuple[
    Sequence[np.ndarray],
    Sequence[np.ndarray],
    Sequence[np.ndarray],
    Optional[Sequence[np.ndarray]],
]


def plan_transfers(
    shape: Tuple[int, int],
    u_player: np.ndarray,
    u_donor: np.ndarray,
    u_receiver: np.ndarray,
) -> TransferPlan:
    """Everything a block's moves need before their donors are known.

    The uniforms are ``(steps, B)`` rows of one block.  Chain ``b`` moves
    its row player when ``u_player < 0.5`` and its column player
    otherwise, so its mover row in a :func:`stack_counts` array is
    ``b + B·(u_player ≥ 0.5)``.  With ``a`` the mover's action count, the
    receiver base ``t0 = min(int(u_receiver·(a − 1)), a − 2)`` becomes the
    receiver ``t0 + (t0 ≥ donor)`` once :func:`_pick_transfer` has picked
    the donor.

    On square games every chain moves and entry ``k`` of a step is chain
    ``k``.  Rectangular games list each step's mover rows in ascending
    order — the row player's movers first, so that each player's moves
    are one slice — and a mover with a single action keeps the identity
    move, so its chain is left out of that step (1×n and n×1 games).
    """
    batch_size = u_player.shape[1]
    num_rows, num_cols = shape
    column = u_player >= 0.5
    # In place: mixed-type expressions over a whole block cost more.
    rows = column.astype(np.int64)
    rows *= batch_size
    rows += np.arange(batch_size)
    if num_rows == num_cols >= 2:
        receiver = (u_receiver * (num_rows - 1)).astype(np.int64)
        np.minimum(receiver, num_rows - 2, out=receiver)
        return rows, u_donor, receiver, None
    # The product u·(a − 1) of the square case, as the float (a − 1)·u.
    receiver = np.where(column, float(num_cols - 1), float(num_rows - 1))
    receiver *= u_receiver
    receiver = receiver.astype(np.int64)
    np.minimum(receiver, np.where(column, num_cols - 2, num_rows - 2), out=receiver)
    rows.sort(axis=1)
    chains = rows % batch_size
    if min(num_rows, num_cols) >= 2:
        return rows, u_donor, receiver, chains
    # Drop a one-action player's rows: its movers open or close each step.
    row_movers = batch_size - np.count_nonzero(column, axis=1)
    starts = row_movers if num_rows < 2 else np.zeros_like(row_movers)
    stops = row_movers if num_cols < 2 else np.full_like(row_movers, batch_size)
    return (
        [step[start:stop] for step, start, stop in zip(rows, starts, stops)],
        u_donor,
        receiver,
        [step[start:stop] for step, start, stop in zip(chains, starts, stops)],
    )


@dataclass
class TransferMoveBatch:
    """One structured interval-transfer move per chain.

    Instead of materialising candidate count arrays, the fused annealing
    kernel represents each chain's proposal as *(mover row, from-action,
    to-action)*: row ``rows[k]`` of a :func:`stack_counts` array (row
    ``player·B + chain``) transfers one interval of probability mass from
    ``source[k]`` to ``target[k]``, one entry per chain at most, in the
    order of :func:`plan_transfers`.  Chains whose mover has fewer than
    two actions have no entry — their proposal is the identity move
    (matching :meth:`StrategyMoveGenerator.propose`, which leaves such a
    player unchanged).
    """

    rows: np.ndarray
    source: np.ndarray
    target: np.ndarray
    #: Each donor's slot in its row's :class:`ActionSupport` list.
    slot: np.ndarray
    #: Each entry's chain; ``None`` when entry ``k`` is chain ``k``.  A
    #: batch made by :meth:`accepted` records ``keep`` instead.
    chains: Optional[np.ndarray] = None
    #: On a batch made by :meth:`accepted`: which entries of the
    #: unfiltered batch it kept.
    keep: Optional[np.ndarray] = None

    def accepted(self, accept: np.ndarray) -> "TransferMoveBatch":
        """The moves of the chains that ``accept`` (one flag per chain) marks.

        The result's ``keep`` mask lets arrays computed per entry of this
        batch be filtered the same way.
        """
        keep = accept if self.chains is None else accept[self.chains]
        return TransferMoveBatch(
            self.rows[keep], self.source[keep], self.target[keep], self.slot[keep], keep=keep
        )

    def apply(self, p_counts: np.ndarray, q_counts: np.ndarray) -> None:
        """Apply every move of the batch to the two players' counts in place.

        To apply only some chains' moves, apply :meth:`accepted`'s batch.
        The fused kernel moves single cells through flat indices instead;
        this is the plain reference its tests replay against.
        """
        batch_size = p_counts.shape[0]
        column = self.rows >= batch_size
        for counts, mask, first in ((p_counts, ~column, 0), (q_counts, column, batch_size)):
            rows = self.rows[mask] - first
            counts[rows, self.source[mask]] -= 1
            counts[rows, self.target[mask]] += 1


def _pick_transfer(
    support: ActionSupport,
    rows: np.ndarray,
    u_donor: np.ndarray,
    receiver: np.ndarray,
    chains: Optional[np.ndarray] = None,
) -> TransferMoveBatch:
    """One step's moves: a donor per mover row, then its receiver.

    Samples the same distribution as the scalar
    :meth:`StrategyMoveGenerator._transfer` — donor uniform over the
    actions holding at least one interval, receiver uniform over the
    remaining actions — for every row of ``rows`` at once and from
    pre-drawn ``U[0, 1)`` variates instead of fresh generator calls, so
    a whole block of iterations can share one draw.  The arguments after
    ``support`` are one step of :func:`plan_transfers`.
    """
    if chains is not None:
        u_donor = u_donor[chains]
        receiver = receiver[chains]
    source, slot = support.pick(rows, u_donor)
    return TransferMoveBatch(rows, source, receiver + (receiver >= source), slot, chains)


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
    :meth:`StrategyMoveGenerator.propose`).  Stateless: stacks the counts
    and builds their :class:`ActionSupport` list, then samples exactly as
    the fused kernel does from its maintained list.
    """
    shape = (p_counts.shape[1], q_counts.shape[1])
    rows, donor, receiver, chains = plan_transfers(
        shape, u_player[None], u_donor[None], u_receiver[None]
    )
    support = ActionSupport(stack_counts(p_counts, q_counts))
    return _pick_transfer(
        support, rows[0], donor[0], receiver[0], None if chains is None else chains[0]
    )


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

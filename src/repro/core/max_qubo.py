"""The MAX-QUBO transformation and its evaluators.

Sec. 3.1 of the paper converts the Mangasarian–Stone quadratic program
for Nash equilibria into the *lossless* MAX-QUBO form

    min_{p, q}  f(p, q) = max(Mq) + max(N^T p) - p^T (M + N) q        (Eq. 9)

with the simplex constraints enforced structurally.  The objective is
non-negative for every strategy pair and equals zero exactly at the Nash
equilibria, so minimising it (over the quantised strategy grid) searches
for equilibria without any slack variables or penalty weights.

Two evaluators are provided behind a common interface:

* :class:`IdealEvaluator` — exact floating-point evaluation, used for the
  large statistical sweeps and as the reference in tests;
* :class:`HardwareEvaluator` — evaluation through the FeFET bi-crossbar,
  WTA trees and ADCs (:class:`~repro.hardware.bicrossbar.BiCrossbar`),
  i.e. what the silicon would compute, with device variability and
  quantisation included.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.games.bimatrix import BimatrixGame
from repro.core.strategy import (
    BatchedStrategyState,
    QuantizedStrategyPair,
    TransferMoveBatch,
)
from repro.hardware.bicrossbar import BiCrossbar, ObjectiveBreakdown


def max_qubo_objective(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> float:
    """Exact MAX-QUBO objective value for probability vectors ``p, q``.

    ``f(p, q) = max(Mq) + max(N^T p) - p^T (M + N) q``; non-negative, and
    zero exactly when ``(p, q)`` is a Nash equilibrium.
    """
    row_values = game.row_action_values(q)
    col_values = game.col_action_values(p)
    bilinear = float(p @ (game.payoff_row + game.payoff_col) @ q)
    return float(row_values.max() + col_values.max() - bilinear)


def max_qubo_breakdown(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> ObjectiveBreakdown:
    """Exact values of the three MAX-QUBO components."""
    row_values = game.row_action_values(q)
    col_values = game.col_action_values(p)
    bilinear = float(p @ (game.payoff_row + game.payoff_col) @ q)
    return ObjectiveBreakdown(
        max_row_value=float(row_values.max()),
        max_col_value=float(col_values.max()),
        vmv_value=bilinear,
    )


class ObjectiveEvaluator(ABC):
    """Evaluates the MAX-QUBO objective for quantised strategy pairs."""

    @abstractmethod
    def evaluate(self, state: QuantizedStrategyPair) -> float:
        """Objective value (lower is better, zero at an equilibrium)."""

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Objective values for a stacked batch of states, shape ``(B,)``.

        The default unstacks and calls :meth:`evaluate` per chain, so any
        custom evaluator works with the vectorized execution engine; the
        built-in evaluators override it with true array-level paths.
        """
        return np.array(
            [self.evaluate(states.state(index)) for index in range(states.batch_size)]
        )

    @property
    @abstractmethod
    def game(self) -> BimatrixGame:
        """The game whose objective is being evaluated."""

    def evaluate_breakdown(self, state: QuantizedStrategyPair) -> ObjectiveBreakdown:
        """The three objective components (default: exact recomputation)."""
        return max_qubo_breakdown(self.game, state.p, state.q)

    def supports_incremental(self) -> bool:
        """Whether the objective admits incremental (delta) evaluation.

        Incremental evaluation computes candidate energies for
        interval-transfer moves via rank-1 updates of a
        :class:`StackedIncrementalState` instead of full ``O(B·n·m)``
        products.  The base class answers ``False`` — custom evaluators
        and the hardware path (which performs physical two-phase reads
        of the whole objective) run full evaluation.
        """
        return False


class IdealEvaluator(ObjectiveEvaluator):
    """Exact (noise-free, infinite-precision) MAX-QUBO evaluation."""

    def __init__(self, game: BimatrixGame):
        self._game = game
        # Pre-compute the combined payoff for the bilinear term.
        self._combined = game.payoff_row + game.payoff_col

    @property
    def game(self) -> BimatrixGame:
        return self._game

    def evaluate(self, state: QuantizedStrategyPair) -> float:
        p = state.p
        q = state.q
        row_values = self._game.payoff_row @ q
        col_values = self._game.payoff_col.T @ p
        bilinear = float(p @ self._combined @ q)
        return float(row_values.max() + col_values.max() - bilinear)

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Exact objectives for all chains as one stacked computation.

        ``max(M Q^T, axis=rows) + max(N^T P^T, axis=cols) - diag(P C Q^T)``
        evaluated as two matrix products plus one einsum over the whole
        ``(B, n)`` / ``(B, m)`` probability stack.
        """
        p = states.p
        q = states.q
        row_values = q @ self._game.payoff_row.T
        col_values = p @ self._game.payoff_col
        bilinear = np.einsum("bi,ij,bj->b", p, self._combined, q)
        return row_values.max(axis=1) + col_values.max(axis=1) - bilinear

    def supports_incremental(self) -> bool:
        return True


@dataclass(frozen=True)
class _MoverRows:
    """The mover rows one gather/add/max pass of :class:`StackedIncrementalState` serves.

    A move of local row ``r`` (stacked row ``first + r``) from action
    ``j`` to ``k`` shifts ``values[r]`` by ``moves[base[r] + k] −
    moves[base[r] + j]`` over ``I``, reads the bilinear change from the
    flat ``reads`` at ``r·read_width + k`` and ``+ j``, and on commit adds
    ``combined[base[r] + k] − combined[base[r] + j]`` over ``I`` to
    ``updates[update_rows[r]]`` (to ``updates[r]`` when ``update_rows``
    is ``None``).
    """

    first: int
    values: np.ndarray
    reads: np.ndarray
    read_width: int
    updates: np.ndarray
    update_rows: Optional[np.ndarray]
    base: np.ndarray
    moves: np.ndarray
    combined: np.ndarray


class StackedIncrementalState:
    """Per-chain action-value caches for O(n+m) delta evaluation.

    The MAX-QUBO objective of chain ``b`` is

        ``f = max(M q) + max(N^T p) - p^T (M + N) q``

    and an interval-transfer move only shifts ``1/I`` of probability mass
    between two actions of one player, so the candidate objective is a
    rank-1 perturbation of cached quantities rather than a fresh
    ``O(n·m)`` product.  The cache holds, for every chain:

    * ``col_values = N^T p`` (``(B, m)``), which a row-player move
      changes, and ``row_values = M q`` (``(B, n)``), which a
      column-player move changes;
    * their maxima, stacked as ``maxima`` (``(2B,)``): ``maxima[b]`` is
      ``max(N^T p)`` and ``maxima[B + b]`` is ``max(M q)``;
    * ``bilinear = p^T C q`` with ``C = M + N``;
    * the helper products ``w = C q`` (``(B, n)``), which a row-player
      move reads, and ``u = p^T C`` (``(B, m)``), which a column-player
      move reads, turning the bilinear update into two gathers.

    Moves come as a :class:`~repro.core.strategy.TransferMoveBatch` over
    the stacked rows ``player·B + chain``, in the order of
    :func:`~repro.core.strategy.plan_transfers` (on rectangular games,
    ascending rows).  A column-player move
    ``j -> k`` updates ``row_values`` by ``(M[:, k] − M[:, j]) / I`` and
    shifts the bilinear term by ``(u[k] − u[j]) / I``; on commit it adds
    ``(C[:, k] − C[:, j]) / I`` to ``w``.  The row player is symmetric
    through ``col_values``/``w``/``u``.  On square games the values and
    the helpers are stacked like the moves — ``(2B, w)`` arrays whose row
    ``r`` is what a move of row ``r`` changes or reads — and the payoff
    rows and columns are one ``(K·n + K·m, n)`` table, so a step is one
    gather, one add and one row max for both players.  Rectangular games
    keep each player's arrays at their exact widths and run the same
    pass once per player.  :meth:`resync` recomputes everything from the
    counts with the same full-product expressions as
    :meth:`IdealEvaluator.evaluate_batch`, bounding float drift on long
    runs (call it every K iterations).  With payoffs and ``1/I`` exactly
    representable (integer payoffs, power-of-two ``I``) every update is
    exact dyadic arithmetic, so the delta path is bit-identical to full
    evaluation; otherwise it agrees to float rounding.

    The chains may belong to *several* same-shape games: the batched
    dispatch path fuses the SA chains of many independent games (one
    scheduler job each) into a single kernel launch, so the
    per-iteration Python overhead of the fused loop is paid once per
    batch instead of once per job.  Chain ``b`` belongs to game
    ``chain_games[b]`` and every payoff gather indexes a stack of the
    ``K`` games' rows and columns with that per-chain game index; a solo
    launch is a one-game stack.

    Bit-identity contract: a chain advances *flip-for-flip* identically
    whichever games share its stack.

    * the per-iteration math (:meth:`candidate_energies`,
      :meth:`commit`) is purely per-chain — elementwise arithmetic,
      row gathers and row-wise maxima — so the values of chain ``b``
      depend only on chain ``b``'s rows and its own game's matrices;
    * the summation-order-sensitive reductions (the matmuls/einsum of
      :meth:`resync`) are computed per contiguous game block over the
      exact expressions (and the exact array layouts — a leading-axis
      slice of a C-contiguous stack is itself C-contiguous) of
      :meth:`IdealEvaluator.evaluate_batch`, so resynced caches do not
      depend on the other games either.

    ``chain_games`` must be sorted (chains of one game form one
    contiguous block); the launch builder guarantees this by
    construction.
    """

    def __init__(
        self,
        games: "Sequence[BimatrixGame]",
        chain_games: np.ndarray,
        states: BatchedStrategyState,
        combined: Optional["Sequence[np.ndarray]"] = None,
    ) -> None:
        if not games:
            raise ValueError("need at least one game")
        shape = games[0].shape
        for game in games[1:]:
            if game.shape != shape:
                raise ValueError(
                    f"all stacked games must share one shape, got {shape} and {game.shape}"
                )
        if combined is None:
            combined = [game.payoff_row + game.payoff_col for game in games]
        # np.stack always yields fresh C-contiguous stacks, and the cols
        # variants are built as one vectorised transpose-copy of the
        # stack rather than per-game copies.  All stay C-contiguous: the
        # per-iteration gathers want contiguous rows, and layout selects
        # the BLAS path in resync, which must not depend on the number of
        # stacked games.
        self._row_payoff = np.stack([game.payoff_row for game in games])
        self._col_payoff_rows = np.stack([game.payoff_col for game in games])
        self._combined_rows = np.stack(list(combined))
        self._combined_cols = np.ascontiguousarray(
            self._combined_rows.transpose(0, 2, 1)
        )
        chain_games = np.asarray(chain_games, dtype=np.int64)
        batch_size = states.batch_size
        if chain_games.shape != (batch_size,):
            raise ValueError(
                f"chain_games must have shape ({batch_size},), "
                f"got {chain_games.shape}"
            )
        if np.any(np.diff(chain_games) < 0):
            raise ValueError("chain_games must be sorted (contiguous per-game blocks)")
        if chain_games.size and not (
            0 <= chain_games[0] and chain_games[-1] < len(games)
        ):
            raise ValueError("chain_games indexes outside the game stack")
        # Contiguous chain slice of every game block (possibly empty).
        starts = np.searchsorted(chain_games, np.arange(len(games)), side="left")
        stops = np.searchsorted(chain_games, np.arange(len(games)), side="right")
        self._blocks = [slice(int(a), int(b)) for a, b in zip(starts, stops)]
        self._batch_size = batch_size
        self._inv_intervals = 1.0 / states.num_intervals
        self._parts = self._mover_rows(chain_games, shape, len(games))
        self.maxima = np.empty(2 * batch_size)
        self.bilinear = np.empty(batch_size)
        self._staged: Optional[list] = None
        self.resync(states)

    def _mover_rows(
        self, chain_games: np.ndarray, shape: Tuple[int, int], num_games: int
    ) -> List[_MoverRows]:
        """Allocate the caches and group the mover rows into gather passes.

        A row-player move (row ``b``) reads rows of ``N`` and adds rows
        of ``C`` to ``u``; a column-player move (row ``B + b``) reads
        columns of ``M`` and adds columns of ``C`` to ``w``.  The move
        tables list those rows and columns flat, ``(K·n, m)`` and
        ``(K·m, n)``; ``base`` is each mover row's game offset into them.
        """
        num_rows, num_cols = shape
        batch_size = self._batch_size
        row_moves = self._col_payoff_rows.reshape(-1, num_cols)
        row_combined = self._combined_rows.reshape(-1, num_cols)
        col_moves = np.ascontiguousarray(self._row_payoff.transpose(0, 2, 1)).reshape(
            -1, num_rows
        )
        col_combined = self._combined_cols.reshape(-1, num_rows)
        row_base = chain_games * num_rows
        col_base = chain_games * num_cols
        if num_rows == num_cols:
            # Row r of values/helpers is what a move of stacked row r
            # changes/reads; an accepted move updates the other player's
            # helper row.
            values = np.empty((2 * batch_size, num_rows))
            helpers = np.empty((2 * batch_size, num_rows))
            self.col_values, self.row_values = values[:batch_size], values[batch_size:]
            self.w, self.u = helpers[:batch_size], helpers[batch_size:]
            chains = np.arange(batch_size)
            return [
                _MoverRows(
                    first=0,
                    values=values,
                    reads=helpers.reshape(-1),
                    read_width=num_rows,
                    updates=helpers,
                    update_rows=np.concatenate((chains + batch_size, chains)),
                    base=np.concatenate((row_base, col_base + num_games * num_rows)),
                    moves=np.concatenate((row_moves, col_moves)),
                    combined=np.concatenate((row_combined, col_combined)),
                )
            ]
        # Stacking a rectangular game would pad the narrower player to
        # max(n, m) and gather the padding too; keep each player exact.
        self.col_values = np.empty((batch_size, num_cols))
        self.row_values = np.empty((batch_size, num_rows))
        self.w = np.empty((batch_size, num_rows))
        self.u = np.empty((batch_size, num_cols))
        return [
            _MoverRows(
                0, self.col_values, self.w.reshape(-1), num_rows, self.u, None,
                row_base, row_moves, row_combined,
            ),
            _MoverRows(
                batch_size, self.row_values, self.u.reshape(-1), num_cols, self.w, None,
                col_base, col_moves, col_combined,
            ),
        ]

    def resync(self, states: BatchedStrategyState) -> np.ndarray:
        """Rebuild every cache per game block via full products; returns the energies."""
        p = states.p
        q = states.q
        for index, block in enumerate(self._blocks):
            if block.start == block.stop:
                continue
            # The expressions (and layouts) of IdealEvaluator.evaluate_batch,
            # applied to this game's block.
            self.row_values[block] = q[block] @ self._row_payoff[index].T
            self.col_values[block] = p[block] @ self._col_payoff_rows[index]
            self.bilinear[block] = np.einsum(
                "bi,ij,bj->b", p[block], self._combined_rows[index], q[block]
            )
            self.u[block] = p[block] @ self._combined_rows[index]
            self.w[block] = q[block] @ self._combined_cols[index]
        batch_size = self._batch_size
        self.maxima[:batch_size] = self.col_values.max(axis=1)
        self.maxima[batch_size:] = self.row_values.max(axis=1)
        self._staged = None
        return self.energies()

    def energies(self) -> np.ndarray:
        """Current per-chain objectives from the cached components."""
        batch_size = self._batch_size
        return self.maxima[batch_size:] + self.maxima[:batch_size] - self.bilinear

    def _split(self, moves: TransferMoveBatch) -> list:
        """Each gather pass's ``(entries, local rows, source, target)`` of ``moves``.

        ``entries`` is the slice of ``moves`` the pass serves: all of them
        on square games; on rectangular games the row player's movers,
        which :func:`~repro.core.strategy.plan_transfers` lists first, and
        then the column player's.
        """
        rows, source, target = moves.rows, moves.source, moves.target
        if len(self._parts) == 1:
            return [(slice(None), rows, source, target)]
        split = int(np.searchsorted(rows, self._batch_size))
        head, tail = slice(None, split), slice(split, None)
        return [
            (head, rows[head], source[head], target[head]),
            (tail, rows[tail] - self._batch_size, source[tail], target[tail]),
        ]

    def candidate_energies(self, moves: TransferMoveBatch) -> np.ndarray:
        """Per-chain candidate objectives via game-indexed rank-1 updates."""
        inv = self._inv_intervals
        batch_size = self._batch_size
        cand_maxima = self.maxima.copy()
        cand_bilinear = self.bilinear.copy()
        self._staged = []
        for part, (entries, rows, source, target) in zip(self._parts, self._split(moves)):
            if not rows.size:
                self._staged.append(None)
                continue
            base = part.base[rows]
            delta = (part.moves[base + target] - part.moves[base + source]) * inv
            values = part.values[rows] + delta
            cand_maxima[part.first + rows] = values.max(axis=1)
            at = rows * part.read_width
            change = (part.reads[at + target] - part.reads[at + source]) * inv
            if rows.size == batch_size:
                # One entry per chain, in chain order.
                cand_bilinear += change
            else:
                # Only rectangular passes skip chains; their rows are chains.
                cand_bilinear[rows] += change
            self._staged.append((entries, base, values))
        self._cand_maxima = cand_maxima
        self._cand_bilinear = cand_bilinear
        return cand_maxima[batch_size:] + cand_maxima[:batch_size] - cand_bilinear

    def commit(self, accept: np.ndarray, accepted: TransferMoveBatch) -> None:
        """Fold the staged candidate caches into the accepted chains.

        ``accepted`` is the staged batch's ``accepted(accept)``: the caller
        filters the moves once and shares them with its count update; its
        ``keep`` mask filters the staged deltas here.
        """
        if self._staged is None:
            raise RuntimeError("commit() without a staged candidate_energies() call")
        inv = self._inv_intervals
        for part, (_, rows, source, target), staged in zip(
            self._parts, self._split(accepted), self._staged
        ):
            if not rows.size:
                continue
            entries, base, values = staged
            keep = accepted.keep[entries]
            part.values[rows] = values[keep]
            base = base[keep]
            updates = rows if part.update_rows is None else part.update_rows[rows]
            part.updates[updates] += (
                part.combined[base + target] - part.combined[base + source]
            ) * inv
        np.copyto(
            self.maxima.reshape(2, -1), self._cand_maxima.reshape(2, -1), where=accept
        )
        np.copyto(self.bilinear, self._cand_bilinear, where=accept)
        self._staged = None

    @classmethod
    def from_evaluators(
        cls,
        evaluators: "Sequence[IdealEvaluator]",
        chain_games: np.ndarray,
        states: BatchedStrategyState,
    ) -> "StackedIncrementalState":
        """Build the stacked cache from per-game :class:`IdealEvaluator` objects.

        Reuses each evaluator's precomputed combined payoff so the
        bilinear matrices are the *same floats* a solo launch uses.
        """
        return cls(
            [evaluator.game for evaluator in evaluators],
            chain_games,
            states,
            combined=[evaluator._combined for evaluator in evaluators],
        )


class HardwareEvaluator(ObjectiveEvaluator):
    """MAX-QUBO evaluation through the FeFET bi-crossbar datapath.

    The evaluator owns a :class:`~repro.hardware.bicrossbar.BiCrossbar`
    configured for the game; every evaluation performs the two-phase
    computation (crossbar MV reads + WTA for the max terms, crossbar VMV
    reads for the bilinear term) including device variability, read noise
    and ADC quantisation.

    Note that the bi-crossbar operates on the *shifted* (non-negative)
    payoffs; shifting changes the objective by a constant only at fixed
    ``p``/``q`` sums, so the annealer's accept/reject decisions — which
    depend on objective differences — are unaffected.
    """

    def __init__(self, game: BimatrixGame, bicrossbar: BiCrossbar):
        expected = game.shape
        actual = bicrossbar.game.shape
        if expected != actual:
            raise ValueError(
                f"bicrossbar shape {actual} does not match game shape {expected}"
            )
        self._game = game
        self.bicrossbar = bicrossbar

    @property
    def game(self) -> BimatrixGame:
        return self._game

    @property
    def num_intervals(self) -> int:
        """The strategy quantisation of the underlying hardware."""
        return self.bicrossbar.num_intervals

    def evaluate(self, state: QuantizedStrategyPair) -> float:
        if state.num_intervals != self.bicrossbar.num_intervals:
            raise ValueError(
                f"state quantised with I={state.num_intervals} but hardware uses "
                f"I={self.bicrossbar.num_intervals}"
            )
        return self.bicrossbar.evaluate(state.p_counts, state.q_counts).objective

    def evaluate_breakdown(self, state: QuantizedStrategyPair) -> ObjectiveBreakdown:
        return self.bicrossbar.evaluate(state.p_counts, state.q_counts)

    def evaluate_batch(self, states: BatchedStrategyState) -> np.ndarray:
        """Objectives for all chains through the batched bi-crossbar path.

        Read noise is sampled and ADC quantisation applied over the whole
        chain batch in one pass, so hardware-in-the-loop sweeps scale the
        same way as the ideal evaluator.
        """
        if states.num_intervals != self.bicrossbar.num_intervals:
            raise ValueError(
                f"states quantised with I={states.num_intervals} but hardware uses "
                f"I={self.bicrossbar.num_intervals}"
            )
        return self.bicrossbar.evaluate_batch(states.p_counts, states.q_counts).objective


@dataclass(frozen=True)
class GridOptimum:
    """Result of exhaustively scanning the quantised strategy grid."""

    best_state: QuantizedStrategyPair
    best_objective: float
    num_states: int


def composition_grid(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` as a stacked count array.

    Shape ``(C(total+parts-1, parts-1), parts)``, every row summing to
    ``total``, in the deterministic enumeration order the scalar grid
    scan used (so tie-breaking in :func:`enumerate_grid_optimum` is
    unchanged).
    """
    from itertools import combinations_with_replacement

    dividers = np.array(
        list(combinations_with_replacement(range(parts), total)), dtype=np.int64
    ).reshape(-1, total)
    grid = np.zeros((dividers.shape[0], parts), dtype=int)
    rows = np.repeat(np.arange(dividers.shape[0]), total)
    np.add.at(grid, (rows, dividers.ravel()), 1)
    return grid


def enumerate_grid_optimum(
    game: BimatrixGame,
    num_intervals: int,
    evaluator: Optional[ObjectiveEvaluator] = None,
    chunk_size: int = 4096,
) -> GridOptimum:
    """Exhaustively minimise the MAX-QUBO objective over the strategy grid.

    Only practical for small games / coarse grids (the grid has
    ``C(I+n-1, n-1) * C(I+m-1, m-1)`` points); used in tests to verify
    that the annealer reaches the grid optimum.

    The scan stacks the composition grids of both players and scores the
    cross product through :meth:`ObjectiveEvaluator.evaluate_batch` in
    chunks of ``chunk_size`` states, so the built-in evaluators process
    the whole grid as a handful of array operations (custom evaluators
    without a batch override fall back to per-state evaluation inside
    ``evaluate_batch`` and still see identical results).  The first grid
    point attaining the minimum — in row-player-major order, as the old
    per-state loop visited them — is returned.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    evaluator = evaluator or IdealEvaluator(game)
    n, m = game.shape
    p_grid = composition_grid(num_intervals, n)
    q_grid = composition_grid(num_intervals, m)
    num_q = q_grid.shape[0]
    num_states = p_grid.shape[0] * num_q
    best_objective = np.inf
    best_flat = 0
    for start in range(0, num_states, chunk_size):
        flat = np.arange(start, min(start + chunk_size, num_states))
        states = BatchedStrategyState(
            p_grid[flat // num_q], q_grid[flat % num_q], num_intervals
        )
        values = np.asarray(evaluator.evaluate_batch(states), dtype=float)
        index = int(np.argmin(values))
        if values[index] < best_objective:
            best_objective = float(values[index])
            best_flat = int(flat[index])
    best_state = QuantizedStrategyPair(
        p_grid[best_flat // num_q].copy(), q_grid[best_flat % num_q].copy(), num_intervals
    )
    return GridOptimum(
        best_state=best_state, best_objective=float(best_objective), num_states=num_states
    )

"""Payoff crossbars and the C-Nash bi-crossbar compute engine.

:class:`PayoffCrossbar` wraps one physical :class:`~repro.hardware.crossbar.FeFETCrossbar`
programmed with a payoff matrix in the Fig. 4 layout and exposes the two
analog operations the architecture needs:

* ``mv``  — matrix-vector product ``M q`` (Phase 1: all word lines of a
  row block driven, drain lines selected by the quantised ``q``), one
  current per row action;
* ``vmv`` — vector-matrix-vector product ``p^T M q`` (Phase 2: word lines
  selected by ``p``, drain lines by ``q``), a single summed current.

For efficiency the per-block cell currents are pre-reduced into a
cumulative tensor ``G[i, j, a, b]`` = total current of block ``(i, j)``
when its first ``a`` rows and first ``b`` column replicas are activated,
so each evaluation is a tensor lookup instead of a full array sweep; the
numbers are identical to summing the physical array because cell
variability is static.

:class:`BiCrossbar` combines the ``M`` crossbar and the ``N^T`` crossbar
with the two WTA trees and the ADCs (Fig. 3) to evaluate the complete
MAX-QUBO objective for a quantised strategy pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.games.bimatrix import BimatrixGame
from repro.hardware.adc import ADC
from repro.hardware.cell import CellParameters
from repro.hardware.corners import ProcessCorner, TT
from repro.hardware.crossbar import FeFETCrossbar
from repro.hardware.mapping import CrossbarLayout, PayoffMapping, layout_for_payoff
from repro.hardware.noise import PAPER_VARIABILITY, VariabilityModel
from repro.hardware.wta import WTAParameters, WTATree
from repro.utils.rng import SeedLike, as_generator


class PayoffCrossbar:
    """One payoff matrix programmed onto a FeFET crossbar."""

    def __init__(
        self,
        payoff: np.ndarray,
        num_intervals: int,
        cells_per_element: int = 0,
        cell_parameters: Optional[CellParameters] = None,
        variability: Optional[VariabilityModel] = None,
        corner: ProcessCorner = TT,
        seed: SeedLike = None,
    ) -> None:
        self.layout, self.mapping = layout_for_payoff(payoff, num_intervals, cells_per_element)
        self.cell_parameters = cell_parameters or CellParameters()
        self.variability = variability if variability is not None else PAPER_VARIABILITY
        self.corner = corner
        self._rng = as_generator(seed)
        self.crossbar = FeFETCrossbar(
            rows=self.layout.physical_rows,
            columns=self.layout.physical_columns,
            cell_parameters=self.cell_parameters,
            variability=self.variability,
            corner=corner,
            seed=self._rng,
        )
        self.crossbar.program(self.layout.bit_pattern(self.mapping))
        self._block_cumulative = self._build_block_cumulative()
        # Flat view of the table for the batched reads: block (i, j) read
        # with a rows and b column replicas active sits at flat index
        # ``((i * m + j) * (I + 1) + a) * (I + 1) + b``; ``_mv_bases`` holds
        # that index at a = I, b = 0.
        n, m, stride = self._block_cumulative.shape[:3]
        self._flat_blocks = self._block_cumulative.ravel()
        self._mv_bases = (np.arange(n * m).reshape(n, m) * stride + stride - 1) * stride

    # ------------------------------------------------------------------
    # Pre-reduction
    # ------------------------------------------------------------------
    def _build_block_cumulative(self) -> np.ndarray:
        """Cumulative per-block current tensor ``G[i, j, a, b]`` (amperes)."""
        layout = self.layout
        n, m, intervals = layout.num_row_actions, layout.num_col_actions, layout.num_intervals
        t = layout.cells_per_element
        currents = self.crossbar.effective_cell_currents()
        # Reshape into (n, I, m, I, t): row action, row interval, column action,
        # column replica, cell within replica.
        reshaped = currents.reshape(n, intervals, m, intervals, t)
        per_replica = reshaped.sum(axis=4)  # (n, I, m, I)
        cumulative_rows = np.cumsum(per_replica, axis=1)
        cumulative = np.cumsum(cumulative_rows, axis=3)  # (n, I, m, I)
        # Pad with zeros for "0 rows activated" / "0 replicas activated".
        padded = np.zeros((n, intervals + 1, m, intervals + 1))
        padded[:, 1:, :, 1:] = cumulative
        # Reorder to (n, m, I+1, I+1) for direct indexing.
        return np.ascontiguousarray(np.transpose(padded, (0, 2, 1, 3)))

    # ------------------------------------------------------------------
    # Scaling helpers
    # ------------------------------------------------------------------
    @property
    def unit_current_a(self) -> float:
        """Nominal single-cell ON current at this corner."""
        return self.crossbar.unit_current_a

    @property
    def value_per_cell(self) -> float:
        """Payoff value represented by a single programmed cell."""
        return self.mapping.value_per_cell

    def _apply_read_noise(self, currents: np.ndarray) -> np.ndarray:
        return currents * self.variability.sample_read_noise(currents.shape, seed=self._rng)

    # ------------------------------------------------------------------
    # Analog operations
    # ------------------------------------------------------------------
    def vmv_current_a(
        self, row_counts: np.ndarray, col_counts: np.ndarray, include_read_noise: bool = True
    ) -> float:
        """Total array current implementing ``p^T M q`` (Phase 2)."""
        row_counts, col_counts = self._validate_counts(row_counts, col_counts)
        n, m = self.layout.num_row_actions, self.layout.num_col_actions
        block = self._block_cumulative[
            np.arange(n)[:, None], np.arange(m)[None, :], row_counts[:, None], col_counts[None, :]
        ]
        total = np.array(block.sum())
        if include_read_noise:
            total = self._apply_read_noise(total)
        return float(total)

    def mv_currents_a(
        self, col_counts: np.ndarray, include_read_noise: bool = True
    ) -> np.ndarray:
        """Per-row-action currents implementing ``M q`` (Phase 1).

        All word lines of each row block are driven (the unit-vector input
        of Phase 1), so each row action's summed current encodes one
        element of ``M q``.
        """
        _, col_counts = self._validate_counts(None, col_counts)
        n, m = self.layout.num_row_actions, self.layout.num_col_actions
        intervals = self.layout.num_intervals
        block = self._block_cumulative[
            np.arange(n)[:, None], np.arange(m)[None, :], intervals, col_counts[None, :]
        ]
        currents = block.sum(axis=1)
        if include_read_noise:
            currents = self._apply_read_noise(currents)
        return currents

    def _gather_blocks(
        self, row_counts: np.ndarray, col_counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Block currents of both phases for a chain batch, each ``(B, n, m)``.

        The Phase-1 array holds ``G[i, j, I, b_j]`` (every row of each
        block driven), the Phase-2 array ``G[i, j, a_i, b_j]``, where
        ``a = row_counts`` and ``b = col_counts``.  Unchecked: the caller
        validates the counts.
        """
        intervals = self.layout.num_intervals
        index = self._mv_bases + col_counts[:, None, :]
        phase1 = self._flat_blocks.take(index)
        # Phase 2 reads a_i rows where Phase 1 read I of them.
        index += ((row_counts - intervals) * (intervals + 1))[:, :, None]
        return phase1, self._flat_blocks.take(index)

    # ------------------------------------------------------------------
    # Decoding currents back into payoff values
    # ------------------------------------------------------------------
    @property
    def decode_scale(self) -> float:
        """Current (amperes) per unit of payoff value, for both phases."""
        intervals = self.layout.num_intervals
        return self.unit_current_a * intervals * intervals / self.value_per_cell

    def decode_vmv(self, current_a):
        """Convert Phase-2 current(s) back into ``p^T M q`` value(s).

        Accepts a scalar (returns ``float``) or a batch array (returns an
        array of the same shape).
        """
        values = np.asarray(current_a, dtype=float) / self.decode_scale
        if values.ndim == 0:
            return float(values)
        return values

    def decode_mv(self, currents_a: np.ndarray) -> np.ndarray:
        """Convert Phase-1 currents back into the ``M q`` vector."""
        return np.asarray(currents_a, dtype=float) / self.decode_scale

    def max_mv_current_a(self) -> float:
        """Upper bound of a Phase-1 current (used to size ADC full scale)."""
        intervals = self.layout.num_intervals
        max_level = float(self.mapping.levels().max()) if self.mapping.levels().size else 0.0
        return (
            self.unit_current_a
            * intervals
            * intervals
            * max_level
            * self.layout.num_col_actions
        )

    def _validate_counts(
        self, row_counts: Optional[np.ndarray], col_counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        intervals = self.layout.num_intervals
        if row_counts is not None:
            row_counts = np.asarray(row_counts, dtype=int)
            if row_counts.shape != (self.layout.num_row_actions,):
                raise ValueError(
                    f"row_counts must have shape ({self.layout.num_row_actions},), got {row_counts.shape}"
                )
            if np.any(row_counts < 0) or np.any(row_counts > intervals):
                raise ValueError(f"row_counts must be within [0, {intervals}]")
        col_counts = np.asarray(col_counts, dtype=int)
        if col_counts.shape != (self.layout.num_col_actions,):
            raise ValueError(
                f"col_counts must have shape ({self.layout.num_col_actions},), got {col_counts.shape}"
            )
        if np.any(col_counts < 0) or np.any(col_counts > intervals):
            raise ValueError(f"col_counts must be within [0, {intervals}]")
        return row_counts, col_counts


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The three MAX-QUBO objective components as evaluated by the hardware."""

    max_row_value: float
    max_col_value: float
    vmv_value: float

    @property
    def objective(self) -> float:
        """``max(Mq) + max(N^T p) - p^T (M+N) q`` (Eq. (9))."""
        return self.max_row_value + self.max_col_value - self.vmv_value


@dataclass(frozen=True)
class BatchObjectiveBreakdown:
    """Stacked MAX-QUBO components for a whole chain batch (``(B,)`` arrays)."""

    max_row_values: np.ndarray
    max_col_values: np.ndarray
    vmv_values: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of evaluated strategy pairs."""
        return int(self.max_row_values.shape[0])

    @property
    def objective(self) -> np.ndarray:
        """Per-chain ``max(Mq) + max(N^T p) - p^T (M+N) q`` values."""
        return self.max_row_values + self.max_col_values - self.vmv_values

    def breakdown(self, index: int) -> ObjectiveBreakdown:
        """The scalar breakdown of chain ``index``."""
        return ObjectiveBreakdown(
            max_row_value=float(self.max_row_values[index]),
            max_col_value=float(self.max_col_values[index]),
            vmv_value=float(self.vmv_values[index]),
        )


class BiCrossbar:
    """The complete C-Nash datapath: two payoff crossbars, WTA trees and ADCs.

    Parameters
    ----------
    game:
        The (non-negative) game to map; games with negative payoffs are
        shifted automatically, which does not change their equilibria.
    num_intervals:
        Strategy quantisation ``I``.
    cells_per_element:
        Cells per payoff element ``t`` (0 = automatic from the max payoff).
    adc_bits:
        Resolution of the ADCs digitising the crossbar / WTA outputs.
    """

    def __init__(
        self,
        game: BimatrixGame,
        num_intervals: int,
        cells_per_element: int = 0,
        cell_parameters: Optional[CellParameters] = None,
        variability: Optional[VariabilityModel] = None,
        wta_parameters: Optional[WTAParameters] = None,
        adc_bits: int = 10,
        corner: ProcessCorner = TT,
        seed: SeedLike = None,
    ) -> None:
        rng = as_generator(seed)
        self.game = game.shifted() if (game.payoff_row.min() < 0 or game.payoff_col.min() < 0) else game
        self.num_intervals = num_intervals
        self.corner = corner
        self.row_crossbar = PayoffCrossbar(
            self.game.payoff_row,
            num_intervals,
            cells_per_element=cells_per_element,
            cell_parameters=cell_parameters,
            variability=variability,
            corner=corner,
            seed=rng,
        )
        self.col_crossbar = PayoffCrossbar(
            self.game.payoff_col.T,
            num_intervals,
            cells_per_element=cells_per_element,
            cell_parameters=cell_parameters,
            variability=variability,
            corner=corner,
            seed=rng,
        )
        n, m = self.game.shape
        self.row_wta = WTATree(n, parameters=wta_parameters, corner=corner, seed=rng)
        self.col_wta = WTATree(m, parameters=wta_parameters, corner=corner, seed=rng)
        full_scale = max(
            self.row_crossbar.max_mv_current_a(), self.col_crossbar.max_mv_current_a()
        )
        self.adc = ADC(num_bits=adc_bits, full_scale_current_a=max(full_scale, 1e-9))
        # The read noise of every read comes from this generator, which
        # the two payoff crossbars share.
        self._rng = rng
        # Per-row divisors of evaluate_batch's (4, B) read array.
        row_scale, col_scale = self.row_crossbar.decode_scale, self.col_crossbar.decode_scale
        self._decode_scales = np.array([[row_scale], [col_scale], [row_scale], [col_scale]])

    # ------------------------------------------------------------------
    # Phase 1: MAX terms
    # ------------------------------------------------------------------
    def phase1(self, p_counts: np.ndarray, q_counts: np.ndarray) -> Tuple[float, float]:
        """Compute ``max(Mq)`` and ``max(N^T p)`` through crossbars + WTA + ADC."""
        row_currents = self.row_crossbar.mv_currents_a(q_counts)
        col_currents = self.col_crossbar.mv_currents_a(p_counts)
        max_row_current = self.adc.convert(self.row_wta.output_current_a(row_currents))
        max_col_current = self.adc.convert(self.col_wta.output_current_a(col_currents))
        return (
            self.row_crossbar.decode_mv(np.array([max_row_current]))[0],
            self.col_crossbar.decode_mv(np.array([max_col_current]))[0],
        )

    # ------------------------------------------------------------------
    # Phase 2: VMV term
    # ------------------------------------------------------------------
    def phase2(self, p_counts: np.ndarray, q_counts: np.ndarray) -> float:
        """Compute ``p^T (M + N) q`` through the two crossbars + ADC."""
        row_current = self.adc.convert(self.row_crossbar.vmv_current_a(p_counts, q_counts))
        col_current = self.adc.convert(self.col_crossbar.vmv_current_a(q_counts, p_counts))
        return float(
            self.row_crossbar.decode_vmv(row_current) + self.col_crossbar.decode_vmv(col_current)
        )

    # ------------------------------------------------------------------
    # Full objective
    # ------------------------------------------------------------------
    def evaluate(self, p_counts: np.ndarray, q_counts: np.ndarray) -> ObjectiveBreakdown:
        """Evaluate the MAX-QUBO objective for a quantised strategy pair."""
        max_row, max_col = self.phase1(p_counts, q_counts)
        vmv = self.phase2(p_counts, q_counts)
        return ObjectiveBreakdown(max_row_value=max_row, max_col_value=max_col, vmv_value=vmv)

    def evaluate_batch(
        self, p_counts: np.ndarray, q_counts: np.ndarray
    ) -> BatchObjectiveBreakdown:
        """Evaluate the MAX-QUBO objective for a whole batch of strategy pairs.

        ``p_counts`` is ``(B, n)`` and ``q_counts`` ``(B, m)``.  The batch
        takes the four reads of :meth:`evaluate` in one pass: Phase 1 of
        the ``M`` and ``N^T`` crossbars (``(B, n)`` and ``(B, m)``
        currents), then Phase 2 of each (``(B,)`` totals).  Their read
        noise is one draw split in that order, which is the stream the
        four reads drew one by one.  The WTA trees reduce the Phase-1
        currents, and one ADC pass converts all four reads.  Each value
        equals chain-by-chain :meth:`evaluate` with the same read noise.
        """
        p_counts, q_counts = self._check_batch_counts(p_counts, q_counts)
        batch = p_counts.shape[0]
        n, m = self.game.shape
        rows, cols = self.row_crossbar, self.col_crossbar
        row_phase1, row_phase2 = rows._gather_blocks(p_counts, q_counts)
        col_phase1, col_phase2 = cols._gather_blocks(q_counts, p_counts)
        currents = np.concatenate(
            [
                row_phase1.sum(axis=2).ravel(),
                col_phase1.sum(axis=2).ravel(),
                row_phase2.sum(axis=(1, 2)),
                col_phase2.sum(axis=(1, 2)),
            ]
        )
        currents *= rows.variability.sample_read_noise(currents.size, seed=self._rng)
        reads = np.concatenate(
            [
                self.row_wta.output_currents_batch_a(currents[: batch * n].reshape(batch, n)),
                self.col_wta.output_currents_batch_a(
                    currents[batch * n : batch * (n + m)].reshape(batch, m)
                ),
                currents[batch * (n + m) :],
            ]
        ).reshape(4, batch)
        values = self.adc.convert(reads) / self._decode_scales
        return BatchObjectiveBreakdown(
            max_row_values=values[0], max_col_values=values[1], vmv_values=values[2] + values[3]
        )

    def _check_batch_counts(
        self, p_counts: np.ndarray, q_counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        intervals = self.num_intervals
        n, m = self.game.shape
        p_counts = np.asarray(p_counts, dtype=np.int64)
        q_counts = np.asarray(q_counts, dtype=np.int64)
        for label, counts, width in (("p_counts", p_counts, n), ("q_counts", q_counts, m)):
            if counts.ndim != 2 or counts.shape[1] != width:
                raise ValueError(f"{label} must have shape (batch, {width}), got {counts.shape}")
            # Read as unsigned, a negative count is larger than any I.
            if counts.view(np.uint64).max(initial=0) > intervals:
                raise ValueError(f"{label} must be within [0, {intervals}]")
        if p_counts.shape[0] != q_counts.shape[0]:
            raise ValueError(
                f"p_counts and q_counts disagree on batch size: "
                f"{p_counts.shape[0]} vs {q_counts.shape[0]}"
            )
        return p_counts, q_counts

    @property
    def total_cells(self) -> int:
        """Total number of 1FeFET1R cells across both crossbars."""
        return self.row_crossbar.layout.num_cells + self.col_crossbar.layout.num_cells

    @property
    def total_wta_cells(self) -> int:
        """Total number of 2-input WTA cells across both trees."""
        return self.row_wta.num_cells + self.col_wta.num_cells

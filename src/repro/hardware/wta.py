"""Winner-takes-all (WTA) cells and trees.

The MAX terms of the MAX-QUBO objective are computed in the current
domain by a tree of 2-input WTA cells (Sec. 3.3).  Each cell uses a
high-swing self-biased cascode current mirror plus a cross-coupled PMOS
pair so that its output current is ``max(I1, I2) = min(I1, I2) + |I1 - I2|``
(Eq. (10)), with a small copy error (the paper reports a 0.25 % output
offset and 0.08 ns settling time per cell, Fig. 5(c)).

The behavioural model reproduces exactly that: the maximum of the two
inputs with a relative offset drawn per cell, a latency per tree level,
and process-corner dependent scaling of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.corners import ProcessCorner, TT
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class WTAParameters:
    """Electrical parameters of one 2-input WTA cell."""

    output_offset_fraction: float = 0.0025
    latency_ns: float = 0.08
    input_referred_noise_a: float = 1.0e-9

    def __post_init__(self) -> None:
        if self.output_offset_fraction < 0:
            raise ValueError(
                f"output_offset_fraction must be non-negative, got {self.output_offset_fraction}"
            )
        if self.latency_ns <= 0:
            raise ValueError(f"latency_ns must be positive, got {self.latency_ns}")
        if self.input_referred_noise_a < 0:
            raise ValueError(
                f"input_referred_noise_a must be non-negative, got {self.input_referred_noise_a}"
            )


class WTACell:
    """A 2-input current-mode winner-takes-all cell."""

    def __init__(
        self,
        parameters: Optional[WTAParameters] = None,
        corner: ProcessCorner = TT,
        seed: SeedLike = None,
    ) -> None:
        self.parameters = parameters or WTAParameters()
        self.corner = corner
        rng = as_generator(seed)
        # The systematic copy error of this cell's mirrors, fixed at fabrication.
        self._offset_fraction = float(
            rng.normal(0.0, self.parameters.output_offset_fraction)
        )

    @property
    def latency_ns(self) -> float:
        """Settling latency of the cell at this corner."""
        return self.parameters.latency_ns * self.corner.latency_scale

    def output_current_a(self, input_1_a: float, input_2_a: float) -> float:
        """``max(I1, I2)`` with the cell's static offset and mirror gain.

        Implements Eq. (10): the smaller input and the difference are
        copied through the cascode mirror and summed; the copy error is a
        small multiplicative offset.
        """
        if input_1_a < 0 or input_2_a < 0:
            raise ValueError("WTA input currents must be non-negative")
        smaller = min(input_1_a, input_2_a)
        extra = abs(input_1_a - input_2_a)
        ideal = smaller + extra
        return float(ideal * (1.0 + self._offset_fraction) * self.corner.mirror_gain)

    def transient_output_a(
        self, input_1_a: float, input_2_a: float, times_ns: np.ndarray
    ) -> np.ndarray:
        """First-order settling waveform of the output current.

        Used to regenerate the Fig. 5(c)/7(b)-style transient plots: the
        output settles exponentially to the static value with a time
        constant derived from the cell latency (latency = time to reach
        ~95 % of the final value).
        """
        final = self.output_current_a(input_1_a, input_2_a)
        times = np.asarray(times_ns, dtype=float)
        if np.any(times < 0):
            raise ValueError("times must be non-negative")
        time_constant = self.latency_ns / 3.0
        return final * (1.0 - np.exp(-times / time_constant))


class WTATree:
    """A binary tree of 2-input WTA cells computing the maximum of D inputs.

    For ``D`` inputs the tree needs ``2^K - 1`` cells where
    ``K = ceil(log2 D)`` (Sec. 3.3); inputs beyond a power of two are
    padded with zero current, which never wins.
    """

    def __init__(
        self,
        num_inputs: int,
        parameters: Optional[WTAParameters] = None,
        corner: ProcessCorner = TT,
        seed: SeedLike = None,
    ) -> None:
        if num_inputs < 1:
            raise ValueError(f"num_inputs must be >= 1, got {num_inputs}")
        self.num_inputs = num_inputs
        self.parameters = parameters or WTAParameters()
        self.corner = corner
        rng = as_generator(seed)
        self.num_levels = int(np.ceil(np.log2(num_inputs))) if num_inputs > 1 else 0
        padded = 2**self.num_levels
        self._cells: List[List[WTACell]] = []
        width = padded
        for _ in range(self.num_levels):
            width //= 2
            self._cells.append(
                [WTACell(self.parameters, corner=corner, seed=rng) for _ in range(width)]
            )
        # Per-level static offset factors as ``(width, 1)`` columns, one
        # row per cell, for the batched evaluation path.
        self._level_offsets: List[np.ndarray] = [
            np.array([[1.0 + cell._offset_fraction] for cell in level])
            for level in self._cells
        ]

    @property
    def num_cells(self) -> int:
        """Total number of 2-input WTA cells in the tree (``2^K - 1``)."""
        return sum(len(level) for level in self._cells)

    @property
    def latency_ns(self) -> float:
        """Total settling latency: one cell latency per tree level."""
        if self.num_levels == 0:
            return 0.0
        return self.num_levels * self._cells[0][0].latency_ns

    def output_current_a(self, input_currents_a: np.ndarray) -> float:
        """The tree's output current: approximately ``max(inputs)``."""
        inputs = np.asarray(input_currents_a, dtype=float)
        if inputs.shape != (self.num_inputs,):
            raise ValueError(
                f"expected {self.num_inputs} input currents, got shape {inputs.shape}"
            )
        if np.any(inputs < 0):
            raise ValueError("WTA input currents must be non-negative")
        padded_width = 2**self.num_levels if self.num_levels > 0 else 1
        values = np.zeros(padded_width)
        values[: self.num_inputs] = inputs
        for level in self._cells:
            next_values = np.empty(len(level))
            for index, cell in enumerate(level):
                next_values[index] = cell.output_current_a(
                    float(values[2 * index]), float(values[2 * index + 1])
                )
            values = next_values
        return float(values[0])

    def output_currents_batch_a(self, input_currents_a: np.ndarray) -> np.ndarray:
        """Tree outputs for a ``(B, num_inputs)`` batch of input vectors.

        Every chain passes through the *same* physical tree (the per-cell
        offsets are fixed at fabrication), so the batched result is
        bit-identical to calling :meth:`output_current_a` per chain.
        """
        inputs = np.asarray(input_currents_a, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.num_inputs:
            raise ValueError(
                f"expected shape (batch, {self.num_inputs}), got {inputs.shape}"
            )
        if inputs.min(initial=0.0) < 0:
            raise ValueError("WTA input currents must be non-negative")
        # Tree inputs along axis 0, chains along axis 1: each level's
        # ufuncs then run over contiguous rows of chains.
        padded_width = 2**self.num_levels
        if padded_width == self.num_inputs:
            values = np.array(inputs.T, order="C")
        else:
            values = np.zeros((padded_width, inputs.shape[0]))
            values[: self.num_inputs] = inputs.T
        for offsets in self._level_offsets:
            left, right = values[0::2], values[1::2]
            # Same arithmetic and operation order as WTACell.output_current_a
            # (min + |diff|, then offset, then mirror gain), so the batched
            # path rounds identically to the scalar one.
            extra = np.abs(left - right)
            values = np.minimum(left, right)
            values += extra
            values *= offsets
            values *= self.corner.mirror_gain
        return values[0]

    def relative_error(self, input_currents_a: np.ndarray) -> float:
        """Relative deviation of the tree output from the exact maximum."""
        inputs = np.asarray(input_currents_a, dtype=float)
        exact = float(inputs.max())
        if exact == 0:
            return 0.0
        return abs(self.output_current_a(inputs) - exact) / exact


def wta_cells_required(num_inputs: int) -> int:
    """Number of 2-input WTA cells needed for ``num_inputs`` (``2^K - 1``)."""
    if num_inputs < 1:
        raise ValueError(f"num_inputs must be >= 1, got {num_inputs}")
    if num_inputs == 1:
        return 0
    levels = int(np.ceil(np.log2(num_inputs)))
    return 2**levels - 1

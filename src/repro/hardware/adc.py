"""Analog-to-digital converter model.

The crossbar source-line currents and the WTA tree output are digitised
before entering the two-phase SA logic (Fig. 3(b)/(c) shows the ADC and
sample-and-accumulate blocks).  The model quantises a current to a
configurable number of bits over a configurable full-scale range; the
quantisation step is what limits the precision of the objective values
the SA logic compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ADC:
    """A uniform quantiser from current (amperes) to digital codes.

    Parameters
    ----------
    num_bits:
        Resolution; 8 bits by default.
    full_scale_current_a:
        Current mapped to the maximum code.  Inputs above the full scale
        clip (as a real ADC would).
    """

    num_bits: int = 8
    full_scale_current_a: float = 100e-6

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError(f"num_bits must be >= 1, got {self.num_bits}")
        if self.full_scale_current_a <= 0:
            raise ValueError(
                f"full_scale_current_a must be positive, got {self.full_scale_current_a}"
            )

    @property
    def num_levels(self) -> int:
        """Number of quantisation levels."""
        return 2**self.num_bits

    @property
    def lsb_current_a(self) -> float:
        """Current corresponding to one least-significant bit."""
        return self.full_scale_current_a / (self.num_levels - 1)

    def _levels(self, current_a) -> np.ndarray:
        """Whole-numbered float codes of current(s), clipped at full scale."""
        values = np.asarray(current_a, dtype=float)
        if values.min(initial=0.0) < 0:
            raise ValueError("ADC input currents must be non-negative")
        return np.rint(np.clip(values, 0.0, self.full_scale_current_a) / self.lsb_current_a)

    def quantize(self, current_a):
        """Convert current(s) to integer codes (clipping at full scale)."""
        codes = self._levels(current_a).astype(int)
        if np.isscalar(current_a) or codes.ndim == 0:
            return int(codes)
        return codes

    def to_current(self, codes):
        """Convert digital codes back to the reconstructed current value(s)."""
        values = np.asarray(codes, dtype=float) * self.lsb_current_a
        if np.isscalar(codes) or values.ndim == 0:
            return float(values)
        return values

    def convert(self, current_a):
        """Quantise and reconstruct: the current as the SA logic perceives it.

        Equal to ``to_current(quantize(current_a))``: the codes are whole
        floats below ``2**num_bits``, so their round trip through ``int``
        is exact and is skipped.
        """
        values = self._levels(current_a) * self.lsb_current_a
        if np.isscalar(current_a) or values.ndim == 0:
            return float(values)
        return values

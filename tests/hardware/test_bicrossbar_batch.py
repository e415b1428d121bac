"""The batched bi-crossbar read against a chain-by-chain reference.

:meth:`BiCrossbar.evaluate_batch` reads the whole chain batch in one
pass.  The reference here builds the same result from the simplest
parts: per-chain scalar crossbar reads without read noise, one noise
vector drawn from a generator in the state the bi-crossbar's own
generator is in, split in the documented order (row Phase 1, column
Phase 1, row Phase 2, column Phase 2), the scalar WTA tree and the ADC.
Every component must be equal bit for bit, and both generators must be
left in the same state.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    BatchedStrategyState,
    CNashConfig,
    HardwareEvaluator,
    ObjectiveEvaluator,
    run_two_phase_sa_batch,
)
from repro.games import BimatrixGame, battle_of_the_sexes
from repro.hardware import IDEAL_VARIABILITY, PAPER_VARIABILITY, BiCrossbar

SHAPES = [(1, 5), (5, 1), (2, 2), (3, 3), (5, 3), (8, 8)]
VARIABILITY = {"noise": PAPER_VARIABILITY, "no_noise": IDEAL_VARIABILITY}


def integer_game(n, m, seed):
    rng = np.random.default_rng(seed)
    return BimatrixGame(
        rng.integers(0, 10, (n, m)).astype(float), rng.integers(0, 10, (n, m)).astype(float)
    )


def reference_breakdown(bicrossbar, p_counts, q_counts, rng):
    """``(max_row, max_col, vmv)`` arrays of the batch, chain by chain."""
    rows, cols = bicrossbar.row_crossbar, bicrossbar.col_crossbar
    batch, n = p_counts.shape
    m = q_counts.shape[1]
    row_mv = np.array([rows.mv_currents_a(q, include_read_noise=False) for q in q_counts])
    col_mv = np.array([cols.mv_currents_a(p, include_read_noise=False) for p in p_counts])
    row_vmv = np.array(
        [rows.vmv_current_a(p, q, include_read_noise=False) for p, q in zip(p_counts, q_counts)]
    )
    col_vmv = np.array(
        [cols.vmv_current_a(q, p, include_read_noise=False) for p, q in zip(p_counts, q_counts)]
    )
    fraction = rows.variability.read_noise_fraction
    if fraction:
        noise = 1.0 + rng.normal(0.0, fraction, batch * (n + m + 2))
        row_mv = row_mv * noise[: batch * n].reshape(batch, n)
        col_mv = col_mv * noise[batch * n : batch * (n + m)].reshape(batch, m)
        row_vmv = row_vmv * noise[batch * (n + m) : batch * (n + m + 1)]
        col_vmv = col_vmv * noise[batch * (n + m + 1) :]
    adc = bicrossbar.adc
    max_row = [adc.convert(bicrossbar.row_wta.output_current_a(c)) for c in row_mv]
    max_col = [adc.convert(bicrossbar.col_wta.output_current_a(c)) for c in col_mv]
    vmv_row = [adc.convert(float(c)) for c in row_vmv]
    vmv_col = [adc.convert(float(c)) for c in col_vmv]
    return (
        rows.decode_mv(np.array(max_row)),
        cols.decode_mv(np.array(max_col)),
        rows.decode_vmv(np.array(vmv_row)) + cols.decode_vmv(np.array(vmv_col)),
    )


@pytest.mark.parametrize("noise", sorted(VARIABILITY))
@pytest.mark.parametrize("num_intervals", [1, 4, 6, 8])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_batch_read_equals_chain_by_chain_reference(shape, num_intervals, noise):
    n, m = shape
    game = integer_game(n, m, seed=n * 10 + m)
    generator = np.random.default_rng(num_intervals)
    bicrossbar = BiCrossbar(game, num_intervals, variability=VARIABILITY[noise], seed=generator)
    states_rng = np.random.default_rng(99)
    for batch in (1, 7, 64):
        states = BatchedStrategyState.random(batch, n, m, num_intervals, states_rng)
        reference_rng = copy.deepcopy(generator)
        result = bicrossbar.evaluate_batch(states.p_counts, states.q_counts)
        max_row, max_col, vmv = reference_breakdown(
            bicrossbar, states.p_counts, states.q_counts, reference_rng
        )
        np.testing.assert_array_equal(result.max_row_values, max_row)
        np.testing.assert_array_equal(result.max_col_values, max_col)
        np.testing.assert_array_equal(result.vmv_values, vmv)
        assert copy.deepcopy(generator).random() == reference_rng.random()


class TestBatchReadErrors:
    @pytest.fixture
    def bicrossbar(self):
        return BiCrossbar(integer_game(2, 3, seed=0), num_intervals=4, seed=0)

    @pytest.mark.parametrize(
        "p_counts, q_counts",
        [
            ([[5, 0]], [[4, 0, 0]]),  # above I
            ([[-1, 5]], [[4, 0, 0]]),  # negative
            ([[4, 0]], [[0, 5, -1]]),
            ([[4, 0]], [[0, 0, 9]]),
        ],
    )
    def test_counts_outside_the_interval_range(self, bicrossbar, p_counts, q_counts):
        with pytest.raises(ValueError, match="within"):
            bicrossbar.evaluate_batch(np.array(p_counts), np.array(q_counts))

    @pytest.mark.parametrize(
        "p_counts, q_counts",
        [
            (np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int)),
            (np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int)),
            (np.zeros(2, dtype=int), np.zeros((1, 3), dtype=int)),
        ],
    )
    def test_wrong_widths(self, bicrossbar, p_counts, q_counts):
        with pytest.raises(ValueError, match="shape"):
            bicrossbar.evaluate_batch(p_counts, q_counts)

    def test_unequal_batch_sizes(self, bicrossbar):
        with pytest.raises(ValueError, match="batch size"):
            bicrossbar.evaluate_batch(np.full((3, 2), 2), np.zeros((2, 3), dtype=int))

    def test_interval_mismatch(self, bicrossbar):
        evaluator = HardwareEvaluator(bicrossbar.game, bicrossbar)
        states = BatchedStrategyState.random(4, 2, 3, 6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="I=6"):
            evaluator.evaluate_batch(states)


class ReferenceHardwareEvaluator(ObjectiveEvaluator):
    """The hardware objective, computed by :func:`reference_breakdown`."""

    def __init__(self, bicrossbar, rng):
        self.bicrossbar = bicrossbar
        self.rng = rng

    @property
    def game(self):
        return self.bicrossbar.game

    def evaluate(self, state):
        raise NotImplementedError("the kernel scores whole batches")

    def evaluate_batch(self, states):
        max_row, max_col, vmv = reference_breakdown(
            self.bicrossbar, states.p_counts, states.q_counts, self.rng
        )
        return max_row + max_col - vmv


def test_kernel_run_equals_reference_run():
    """A seeded hardware run is the run the reference evaluator drives."""
    game = battle_of_the_sexes()
    config = CNashConfig(num_intervals=6, num_iterations=120)

    def twin():
        generator = np.random.default_rng(5)
        return BiCrossbar(game, config.num_intervals, seed=generator), generator

    bicrossbar, _ = twin()
    reference_crossbar, reference_rng = twin()
    hardware = run_two_phase_sa_batch(HardwareEvaluator(game, bicrossbar), config, 16, seed=8)
    reference = run_two_phase_sa_batch(
        ReferenceHardwareEvaluator(reference_crossbar, reference_rng), config, 16, seed=8
    )
    np.testing.assert_array_equal(hardware.final_energies, reference.final_energies)
    np.testing.assert_array_equal(hardware.best_energies, reference.best_energies)
    np.testing.assert_array_equal(hardware.num_accepted, reference.num_accepted)
    np.testing.assert_array_equal(hardware.best_states.p_counts, reference.best_states.p_counts)
    np.testing.assert_array_equal(hardware.best_states.q_counts, reference.best_states.q_counts)

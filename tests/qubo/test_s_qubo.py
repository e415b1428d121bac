"""Tests for the S-QUBO baseline formulation and its solvers."""

import numpy as np
import pytest

from repro.games import battle_of_the_sexes, prisoners_dilemma
from repro.qubo import (
    BinaryAnnealerConfig,
    FixedPointEncoding,
    SQuboWeights,
    anneal_qubo,
    anneal_qubo_batch,
    brute_force_solve,
    build_s_qubo,
    decode_one_hot,
    enumerate_assignments,
    one_hot_names,
)


class TestFixedPointEncoding:
    def test_num_bits_covers_max_value(self):
        encoding = FixedPointEncoding("alpha", max_value=5.0, resolution=1.0)
        assert encoding.max_representable() >= 5.0

    def test_zero_max_value_single_bit(self):
        assert FixedPointEncoding("x", max_value=0.0).num_bits == 1

    def test_decode(self):
        encoding = FixedPointEncoding("v", max_value=7.0, resolution=1.0)
        bits = {"v[0]": 1, "v[1]": 1, "v[2]": 0}
        assert encoding.decode(bits) == pytest.approx(3.0)

    def test_fractional_resolution(self):
        encoding = FixedPointEncoding("v", max_value=1.0, resolution=0.25)
        assert encoding.num_bits >= 3
        bits = {name: 1 for name in encoding.bit_names}
        assert encoding.decode(bits) == pytest.approx(sum(encoding.bit_weights))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FixedPointEncoding("v", max_value=-1.0)
        with pytest.raises(ValueError):
            FixedPointEncoding("v", max_value=1.0, resolution=0.0)


class TestOneHot:
    def test_names(self):
        assert one_hot_names("p", 3) == ["p[0]", "p[1]", "p[2]"]

    def test_names_invalid_count(self):
        with pytest.raises(ValueError):
            one_hot_names("p", 0)

    def test_decode(self):
        bits = {"p[0]": 0, "p[1]": 1, "p[2]": 0}
        np.testing.assert_allclose(decode_one_hot(bits, "p", 3), [0.0, 1.0, 0.0])


class TestSQuboFormulation:
    def test_variable_count(self, bos):
        formulation = build_s_qubo(bos)
        # 2 p bits + 2 q bits + alpha/beta bits + per-row/column slack bits.
        assert formulation.num_variables >= 8

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            SQuboWeights(simplex_row=-1.0)

    def test_pure_equilibrium_is_low_energy(self, bos):
        formulation = build_s_qubo(bos)
        result = brute_force_solve(formulation.model)
        decoded = formulation.decode(result.best_assignment)
        # The global optimum must decode to a feasible pure strategy pair.
        assert decoded.feasible
        assert decoded.profile is not None
        assert decoded.profile.is_pure()

    def test_global_optimum_is_pure_equilibrium_of_pd(self, pd):
        formulation = build_s_qubo(pd)
        result = brute_force_solve(formulation.model)
        decoded = formulation.decode(result.best_assignment)
        assert decoded.feasible
        # Prisoner's dilemma has a unique pure NE at (defect, defect).
        np.testing.assert_allclose(decoded.profile.p, [0.0, 1.0])
        np.testing.assert_allclose(decoded.profile.q, [0.0, 1.0])

    def test_infeasible_assignment_decodes_as_error(self, bos):
        formulation = build_s_qubo(bos)
        assignment = np.zeros(formulation.num_variables)
        decoded = formulation.decode(assignment)
        assert not decoded.feasible
        assert decoded.profile is None

    def test_cannot_represent_mixed_strategies(self, bos):
        """The S-QUBO variables are one-hot bits: any feasible decoded profile is pure.

        This is the structural limitation of the baseline the paper points out.
        """
        formulation = build_s_qubo(bos)
        for assignment in enumerate_assignments(4):
            padded = np.zeros(formulation.num_variables)
            padded[:4] = assignment
            decoded = formulation.decode(padded)
            if decoded.feasible:
                assert decoded.profile.is_pure()


class TestBruteForce:
    def test_simple_minimum(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.array([[1.0, 0.0], [0.0, -2.0]]))
        result = brute_force_solve(model)
        np.testing.assert_allclose(result.best_assignment, [0.0, 1.0])
        assert result.best_energy == pytest.approx(-2.0)
        assert result.num_evaluated == 4

    def test_multiple_optima_reported(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.zeros((2, 2)))
        result = brute_force_solve(model)
        assert result.num_optima == 4

    def test_size_guard(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.eye(30))
        with pytest.raises(ValueError, match="limited"):
            brute_force_solve(model)

    def test_enumerate_assignments_count(self):
        assert len(list(enumerate_assignments(3))) == 8

    def test_enumerate_assignments_invalid(self):
        with pytest.raises(ValueError):
            list(enumerate_assignments(0))


class TestBinaryAnnealer:
    def test_finds_optimum_of_small_model(self):
        from repro.qubo import QuboModel

        rng = np.random.default_rng(1)
        q = rng.normal(size=(8, 8))
        model = QuboModel(q)
        exact = brute_force_solve(model)
        result = anneal_qubo(model, BinaryAnnealerConfig(num_sweeps=300), seed=0)
        assert result.best_energy == pytest.approx(exact.best_energy, abs=1e-9)

    def test_energy_bookkeeping_consistent(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.random.default_rng(2).normal(size=(6, 6)))
        result = anneal_qubo(model, BinaryAnnealerConfig(num_sweeps=50), seed=3)
        assert result.final_energy == pytest.approx(model.energy(result.final_assignment))
        assert result.best_energy == pytest.approx(model.energy(result.best_assignment))
        assert result.best_energy <= result.final_energy + 1e-9

    def test_initial_assignment_respected(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.eye(4))
        start = np.zeros(4)
        result = anneal_qubo(model, BinaryAnnealerConfig(num_sweeps=1), seed=0, initial_assignment=start)
        assert result.best_energy <= model.energy(start)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BinaryAnnealerConfig(num_sweeps=0)

    def test_history_recording(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.eye(3))
        result = anneal_qubo(
            model, BinaryAnnealerConfig(num_sweeps=10, record_history=True), seed=0
        )
        assert len(result.energy_history) == 10

    def test_batch(self):
        from repro.qubo import QuboModel

        model = QuboModel(np.eye(3))
        results = anneal_qubo_batch(model, num_reads=5, seed=0)
        assert len(results) == 5

    def test_batch_invalid(self):
        from repro.qubo import QuboModel

        with pytest.raises(ValueError):
            anneal_qubo_batch(QuboModel(np.eye(2)), num_reads=0)
        with pytest.raises(ValueError):
            anneal_qubo_batch(QuboModel(np.eye(2)), num_reads=1, execution="quantum")

    def test_vectorized_batch_finds_optimum_and_keeps_books(self):
        from repro.qubo import BinaryAnnealerConfig, QuboModel

        model = QuboModel(np.random.default_rng(7).normal(size=(8, 8)))
        exact = brute_force_solve(model)
        reads = anneal_qubo_batch(
            model,
            num_reads=8,
            config=BinaryAnnealerConfig(num_sweeps=300, record_history=True),
            seed=0,
        )
        assert min(r.best_energy for r in reads) == pytest.approx(
            exact.best_energy, abs=1e-9
        )
        for read in reads:
            assert read.final_energy == pytest.approx(model.energy(read.final_assignment))
            assert read.best_energy == pytest.approx(model.energy(read.best_assignment))
            assert len(read.energy_history) == 300

    def test_vectorized_batch_reproducible_from_seed(self):
        from repro.qubo import BinaryAnnealerConfig, QuboModel

        model = QuboModel(np.random.default_rng(3).normal(size=(6, 6)))
        config = BinaryAnnealerConfig(num_sweeps=50)
        a = anneal_qubo_batch(model, num_reads=6, config=config, seed=11)
        b = anneal_qubo_batch(model, num_reads=6, config=config, seed=11)
        assert [r.best_energy for r in a] == [r.best_energy for r in b]
        assert [r.num_flips_accepted for r in a] == [r.num_flips_accepted for r in b]
        for read_a, read_b in zip(a, b):
            np.testing.assert_array_equal(read_a.best_assignment, read_b.best_assignment)

    def test_vectorized_and_sequential_temperatures_match_per_sweep(self):
        """Iteration-indexed schedules must anneal per sweep, not per flip."""
        from repro.annealing.temperature import LogarithmicSchedule
        from repro.qubo.annealer import _PerSweepSchedule

        schedule = LogarithmicSchedule(scale=1.0)
        adapted = _PerSweepSchedule(schedule, num_variables=30)
        num_sweeps = 200
        for sweep in (0, 57, 199):
            expected = schedule.temperature(sweep, num_sweeps)
            for flip in (0, 15, 29):
                iteration = sweep * 30 + flip
                assert adapted.temperature(iteration, num_sweeps * 30) == expected

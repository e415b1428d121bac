"""Tests for repro.games.equilibrium."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import (
    EquilibriumSet,
    StrategyProfile,
    battle_of_the_sexes,
    classify_profile,
    is_epsilon_equilibrium,
    is_nash_equilibrium,
)


class TestStrategyProfile:
    def test_valid_profile(self):
        profile = StrategyProfile(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert profile.p.sum() == pytest.approx(1.0)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            StrategyProfile(np.array([0.5, 0.6]), np.array([1.0, 0.0]))

    def test_is_pure(self):
        pure = StrategyProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        mixed = StrategyProfile(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        assert pure.is_pure()
        assert not mixed.is_pure()

    def test_support(self):
        profile = StrategyProfile(np.array([0.5, 0.0, 0.5]), np.array([1.0, 0.0]))
        assert profile.support() == ((0, 2), (0,))

    def test_close_to(self):
        a = StrategyProfile(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        b = StrategyProfile(np.array([0.5001, 0.4999]), np.array([1.0, 0.0]))
        assert a.close_to(b, atol=1e-3)
        assert not a.close_to(b, atol=1e-6)

    def test_close_to_different_shapes(self):
        a = StrategyProfile(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        b = StrategyProfile(np.array([0.5, 0.25, 0.25]), np.array([1.0, 0.0]))
        assert not a.close_to(b)

    def test_rounded_renormalises(self):
        profile = StrategyProfile(np.array([1 / 3, 2 / 3]), np.array([1.0, 0.0]))
        rounded = profile.rounded(decimals=2)
        assert rounded.p.sum() == pytest.approx(1.0)

    def test_as_tuple(self):
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        p_tuple, q_tuple = profile.as_tuple()
        assert p_tuple == (1.0, 0.0)
        assert q_tuple == (0.0, 1.0)


class TestEquilibriumChecks:
    def test_pure_equilibria_of_bos(self, bos):
        assert is_nash_equilibrium(bos, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert is_nash_equilibrium(bos, np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_miscoordination_is_not_equilibrium(self, bos):
        assert not is_nash_equilibrium(bos, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_mixed_equilibrium_of_bos(self, bos):
        p = np.array([2 / 3, 1 / 3])
        q = np.array([1 / 3, 2 / 3])
        assert is_nash_equilibrium(bos, p, q, tolerance=1e-9)

    def test_epsilon_equilibrium_accepts_near_miss(self, bos):
        p = np.array([0.65, 0.35])
        q = np.array([0.35, 0.65])
        assert not is_epsilon_equilibrium(bos, p, q, epsilon=1e-6)
        assert is_epsilon_equilibrium(bos, p, q, epsilon=0.2)

    def test_negative_epsilon_rejected(self, bos):
        with pytest.raises(ValueError):
            is_epsilon_equilibrium(bos, np.array([1.0, 0.0]), np.array([1.0, 0.0]), epsilon=-1.0)


class TestClassification:
    def test_pure_classification(self, bos):
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert classify_profile(bos, profile) == "pure"

    def test_mixed_classification(self, bos):
        profile = StrategyProfile(np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]))
        assert classify_profile(bos, profile) == "mixed"

    def test_error_classification(self, bos):
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert classify_profile(bos, profile) == "error"


class TestEquilibriumSet:
    def test_add_deduplicates(self, bos):
        collection = EquilibriumSet(game=bos, atol=1e-3)
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert collection.add(profile)
        assert not collection.add(profile)
        assert len(collection) == 1

    def test_extend_counts_inserted(self, bos):
        collection = EquilibriumSet(game=bos)
        profiles = [
            StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            StrategyProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ]
        assert collection.extend(profiles) == 2

    def test_match_and_contains(self, bos):
        collection = EquilibriumSet(game=bos)
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        collection.add(profile)
        near = StrategyProfile(np.array([0.9999, 0.0001]), np.array([1.0, 0.0]))
        assert collection.match(near) == 0
        assert near in collection

    def test_count_found(self, bos):
        collection = EquilibriumSet(game=bos)
        a = StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        b = StrategyProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        collection.add(a)
        collection.add(b)
        assert collection.count_found([a, a, a]) == 1
        assert collection.count_found([a, b]) == 2
        assert collection.count_found([]) == 0

    def test_pure_and_mixed_partitions(self, bos):
        collection = EquilibriumSet(game=bos)
        collection.add(StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        collection.add(StrategyProfile(np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3])))
        assert len(collection.pure_profiles()) == 1
        assert len(collection.mixed_profiles()) == 1

    def test_verify_all(self, bos):
        collection = EquilibriumSet(game=bos)
        collection.add(StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert collection.verify_all()
        collection.profiles.append(
            StrategyProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        )
        assert not collection.verify_all()


def pairwise_dedup(profiles, atol):
    """The de-duplication rule as one ``close_to`` call per (kept, new) pair."""
    kept = []
    for profile in profiles:
        if not any(existing.close_to(profile, atol=atol) for existing in kept):
            kept.append(profile)
    return kept


def pairwise_match(kept, profile, atol):
    return next(
        (index for index, existing in enumerate(kept) if existing.close_to(profile, atol=atol)),
        None,
    )


#: Scale factors of the closeness threshold ``atol + 1e-5·|new|`` that
#: land a near-duplicate just inside, on, or just outside it.
BOUNDARY_FACTORS = [0.5, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 2.0]


@st.composite
def profile_streams(draw):
    """Grid and float profiles with exact, near and other-shape duplicates."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    atol = draw(st.sampled_from([1e-3, 1 / 16, 0.5 / 6]))

    def fresh(rows, cols):
        if draw(st.booleans()):  # a grid state: counts over I
            intervals = draw(st.sampled_from([4, 6, 8]))
            vectors = [
                np.bincount(
                    draw(st.lists(st.integers(0, size - 1), min_size=intervals, max_size=intervals)),
                    minlength=size,
                ) / intervals
                for size in (rows, cols)
            ]
        else:  # a float profile
            vectors = [
                np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
                for size in (rows, cols)
            ]
            vectors = [vector / vector.sum() for vector in vectors]
        return StrategyProfile(*vectors)

    def near(source):
        # Move one coordinate of ``source`` to distance factor x threshold
        # (the threshold is measured against the new value).  The result
        # is not a probability vector; the set never checks that.
        vector = np.concatenate((source.p, source.q))
        index = draw(st.integers(0, vector.size - 1))
        sign = draw(st.sampled_from([1.0, -1.0]))
        factor = draw(st.sampled_from(BOUNDARY_FACTORS))
        old = vector[index]
        vector[index] = old + sign * factor * (atol + 1e-5 * old) / (1 - sign * 1e-5)
        return StrategyProfile.trusted(vector[: source.p.size], vector[source.p.size:])

    stream = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["fresh", "same", "copy", "near", "other_shape"]))
        if kind == "fresh" or not stream:
            stream.append(fresh(n, m))
        elif kind == "same":
            stream.append(draw(st.sampled_from(stream)))
        elif kind == "copy":
            source = draw(st.sampled_from(stream))
            stream.append(StrategyProfile.trusted(source.p.copy(), source.q.copy()))
        elif kind == "near":
            stream.append(near(draw(st.sampled_from(stream))))
        else:  # the transposed shape has the same total size
            stream.append(fresh(m, n) if n != m else fresh(n, m + 1))
    return stream, atol


class TestDeduplicationMatchesPairwiseRule:
    @given(case=profile_streams(), split=st.integers(0, 16))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_same_profiles_same_order(self, case, split):
        stream, atol = case
        game = battle_of_the_sexes()
        kept = pairwise_dedup(stream, atol)
        found = EquilibriumSet.from_profiles(game, stream, atol=atol)
        assert [id(profile) for profile in found.profiles] == [id(profile) for profile in kept]
        # extend onto a set that already holds a prefix of the stream.
        head, tail = stream[:split], stream[split:]
        partial = EquilibriumSet.from_profiles(game, head, atol=atol)
        assert partial.extend(tail) == len(kept) - len(pairwise_dedup(head, atol))
        assert [id(profile) for profile in partial.profiles] == [id(profile) for profile in kept]
        # add, one profile at a time, reports whether each one was new.
        one_by_one = EquilibriumSet(game=game, atol=atol)
        expected, kept_so_far = [], []
        for profile in stream:
            expected.append(pairwise_match(kept_so_far, profile, atol) is None)
            if expected[-1]:
                kept_so_far.append(profile)
        assert [one_by_one.add(profile) for profile in stream] == expected

    @given(case=profile_streams(), scale=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_match_and_count_found(self, case, scale):
        stream, atol = case
        found = EquilibriumSet.from_profiles(battle_of_the_sexes(), stream, atol=atol)
        kept = pairwise_dedup(stream, atol)
        for profile in stream:
            assert found.match(profile) == pairwise_match(kept, profile, atol)
            assert found.match(profile, atol=scale * atol) == pairwise_match(
                kept, profile, scale * atol
            )
        matched = {pairwise_match(kept, profile, scale * atol) for profile in stream}
        matched.discard(None)
        assert found.count_found(stream, atol=scale * atol) == len(matched)

    def test_edits_to_the_list_of_record_are_seen(self, bos):
        collection = EquilibriumSet(game=bos)
        profile = StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        collection.profiles.append(profile)
        assert not collection.add(StrategyProfile(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        collection.profiles.clear()
        assert collection.match(profile) is None
        assert collection.add(profile)

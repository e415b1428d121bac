"""Shared fixtures for the C-Nash reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CNashConfig
from repro.games import (
    BimatrixGame,
    battle_of_the_sexes,
    bird_game,
    matching_pennies,
    modified_prisoners_dilemma,
    prisoners_dilemma,
)
from repro.telemetry import family_total, temporary_registry


@pytest.fixture
def bos() -> BimatrixGame:
    """Battle of the Sexes (2 actions, 3 equilibria)."""
    return battle_of_the_sexes()


@pytest.fixture
def bird() -> BimatrixGame:
    """The Bird Game (3 actions)."""
    return bird_game()


@pytest.fixture
def pennies() -> BimatrixGame:
    """Matching Pennies (unique fully-mixed equilibrium)."""
    return matching_pennies()


@pytest.fixture
def pd() -> BimatrixGame:
    """Prisoner's Dilemma (unique pure equilibrium)."""
    return prisoners_dilemma()


@pytest.fixture(scope="session")
def mpd() -> BimatrixGame:
    """Modified Prisoner's Dilemma (8 actions); session-scoped, it is static."""
    return modified_prisoners_dilemma()


@pytest.fixture
def fast_config() -> CNashConfig:
    """A solver configuration small enough for unit tests."""
    return CNashConfig(num_intervals=4, num_iterations=400)


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def counts():
    """Counters of a private telemetry registry, live for the whole test.

    ``counts(name, **labels)`` sums a family's samples (0 when nothing
    declared it), so each test sees only the events it caused.
    """
    with temporary_registry() as registry:
        yield lambda name, **labels: family_total(registry.snapshot(), name, **labels)

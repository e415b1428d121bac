"""Nash-equilibrium verification and classification.

A strategy pair ``(p*, q*)`` is a Nash equilibrium when neither player can
improve their expected payoff by unilaterally deviating (Eq. (1) of the
paper).  For bimatrix games this is equivalent to each player's regret
being zero: ``p* ^T M q* = max(M q*)`` and ``p*^T N q* = max(N^T p*)``.

This module provides exact and approximate (epsilon) NE checks, pure /
mixed classification, and a small :class:`EquilibriumSet` container used
by the analysis layer to match solver output against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.games.bimatrix import BimatrixGame
from repro.utils.validation import ensure_probability_vector

#: Relative tolerance of profile closeness (``np.allclose``'s default).
_RTOL = 1e-5


@dataclass(frozen=True)
class StrategyProfile:
    """An immutable strategy pair ``(p, q)`` with equality up to tolerance."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", ensure_probability_vector(self.p, "p"))
        object.__setattr__(self, "q", ensure_probability_vector(self.q, "q"))

    @classmethod
    def trusted(cls, p: np.ndarray, q: np.ndarray) -> "StrategyProfile":
        """Build a profile from vectors that are valid by construction.

        Skips ``__post_init__`` validation; callers guarantee float
        probability vectors (e.g. grid states, whose entries are
        non-negative interval counts over the interval total).  The
        values are exactly what the validated constructor would store —
        validation only rejects or clips negatives — so profiles built
        here are bit-identical to validated ones.
        """
        profile = object.__new__(cls)
        object.__setattr__(profile, "p", p)
        object.__setattr__(profile, "q", q)
        return profile

    def is_pure(self, atol: float = 1e-6) -> bool:
        """True when both players put (almost) all mass on a single action."""
        return bool(self.p.max() >= 1.0 - atol and self.q.max() >= 1.0 - atol)

    def support(self, atol: float = 1e-6) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Indices of actions played with probability greater than ``atol``."""
        return (
            tuple(int(i) for i in np.flatnonzero(self.p > atol)),
            tuple(int(j) for j in np.flatnonzero(self.q > atol)),
        )

    def rounded(self, decimals: int = 4) -> "StrategyProfile":
        """Return a profile with probabilities rounded and re-normalised."""
        p = np.round(self.p, decimals)
        q = np.round(self.q, decimals)
        return StrategyProfile(p / p.sum(), q / q.sum())

    def close_to(self, other: "StrategyProfile", atol: float = 1e-3) -> bool:
        """Element-wise closeness of both strategies.

        The test is ``np.allclose``'s exact criterion
        (``|a - b| <= atol + rtol * |b|`` with the default
        ``rtol=1e-5``), inlined because probability vectors are always
        finite.  :class:`EquilibriumSet` applies the same criterion to
        all of its kept profiles at once.
        """
        if self.p.shape != other.p.shape or self.q.shape != other.q.shape:
            return False
        return bool(
            np.all(np.abs(self.p - other.p) <= atol + _RTOL * np.abs(other.p))
            and np.all(np.abs(self.q - other.q) <= atol + _RTOL * np.abs(other.q))
        )

    def as_tuple(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Plain-Python tuple representation (useful for hashing/printing)."""
        return tuple(float(x) for x in self.p), tuple(float(x) for x in self.q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = np.array2string(self.p, precision=3, separator=", ")
        q = np.array2string(self.q, precision=3, separator=", ")
        return f"StrategyProfile(p={p}, q={q})"


def best_response_gap(game: BimatrixGame, profile: StrategyProfile) -> Tuple[float, float]:
    """Return each player's regret (gain available from best deviation)."""
    return (
        game.row_regret(profile.p, profile.q),
        game.col_regret(profile.p, profile.q),
    )


def is_nash_equilibrium(
    game: BimatrixGame,
    p: np.ndarray,
    q: np.ndarray,
    tolerance: float = 1e-6,
) -> bool:
    """Check whether ``(p, q)`` is a Nash equilibrium of ``game``.

    Parameters
    ----------
    tolerance:
        Maximum allowed regret per player.  Exact equilibria of the
        benchmark games verify with the default; quantized solver output
        should be checked with :func:`is_epsilon_equilibrium` instead.
    """
    return is_epsilon_equilibrium(game, p, q, epsilon=tolerance)


def is_epsilon_equilibrium(
    game: BimatrixGame,
    p: np.ndarray,
    q: np.ndarray,
    epsilon: float,
) -> bool:
    """Check whether ``(p, q)`` is an epsilon-Nash equilibrium.

    Both players' regrets must be at most ``epsilon``.  Quantizing
    probabilities to ``1/I`` intervals (as the C-Nash crossbar mapping
    does) can make exact mixed equilibria representable only
    approximately, so the evaluation uses an epsilon matched to the
    quantization step.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    p = ensure_probability_vector(p, "p")
    q = ensure_probability_vector(q, "q")
    row_gap, col_gap = _regrets_trusted(game, p, q)
    return bool(row_gap <= epsilon and col_gap <= epsilon)


def _regrets_trusted(
    game: BimatrixGame, p: np.ndarray, q: np.ndarray
) -> Tuple[float, float]:
    """Both players' regrets for *already validated* vectors.

    The exact expressions of :meth:`BimatrixGame.row_regret` /
    :meth:`~BimatrixGame.col_regret` without their per-call input
    validation — the classification hot path checks thousands of
    solver-built grid states whose vectors are valid by construction.
    """
    row_values = game.payoff_row @ q
    col_values = game.payoff_col.T @ p
    return (
        float(row_values.max() - p @ row_values),
        float(col_values.max() - q @ col_values),
    )


def classify_profile(
    game: BimatrixGame,
    profile: StrategyProfile,
    epsilon: float = 1e-6,
    purity_atol: float = 1e-6,
) -> str:
    """Classify a profile as ``"pure"``, ``"mixed"`` or ``"error"``.

    ``"pure"`` and ``"mixed"`` refer to (epsilon-)equilibria; anything
    that is not an equilibrium is an ``"error"`` solution, matching the
    three categories of Fig. 8 in the paper.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    # Profile vectors are probability distributions by construction
    # (validated or trusted at creation), so skip re-validating them on
    # this hot path — the regret math is the bit-identical expressions.
    row_gap, col_gap = _regrets_trusted(game, profile.p, profile.q)
    if not (row_gap <= epsilon and col_gap <= epsilon):
        return "error"
    return "pure" if profile.is_pure(purity_atol) else "mixed"


class _ShapeStacks:
    """Profiles stacked per shape as rows of ``concat(p, q)``.

    A scratch index over :attr:`EquilibriumSet.profiles`: built at the
    start of one call and dropped at its end, so edits made directly to
    the list are always seen.  Within a shape, rows keep insertion order.
    """

    def __init__(self, profiles: Iterable[StrategyProfile]) -> None:
        #: (p shape, q shape) -> [rows (capacity, n + m), size, positions]
        self._stacks: Dict[tuple, list] = {}
        for position, profile in enumerate(profiles):
            self.append(position, profile)

    def append(self, position: int, profile: StrategyProfile) -> None:
        """Stack ``profile``, which sits at ``position`` in the list of record."""
        row = np.concatenate((profile.p, profile.q))
        stack = self._stacks.setdefault(
            (profile.p.shape, profile.q.shape), [np.empty((4, row.size)), 0, []]
        )
        rows, size, positions = stack
        if size == rows.shape[0]:
            rows = stack[0] = np.concatenate((rows, np.empty_like(rows)))
        rows[size] = row
        stack[1] = size + 1
        positions.append(position)

    def first_match(self, profile: StrategyProfile, atol: float) -> Optional[int]:
        """Position of the first stacked profile that is ``close_to`` ``profile``."""
        stack = self._stacks.get((profile.p.shape, profile.q.shape))
        if stack is None:
            return None
        rows, size, positions = stack
        new = np.concatenate((profile.p, profile.q))
        close = (np.abs(rows[:size] - new) <= atol + _RTOL * np.abs(new)).all(axis=1)
        first = int(close.argmax())
        return positions[first] if close[first] else None


@dataclass
class EquilibriumSet:
    """A de-duplicated collection of equilibria of one game.

    Used both for ground-truth sets (from the enumeration solvers) and
    for the sets discovered by annealing solvers; matching between the
    two is done with :meth:`match` / :meth:`count_found`.  Two profiles
    are equivalent when :meth:`StrategyProfile.close_to` holds; each
    query tests a profile against every kept profile of its shape in
    one array comparison, and the first kept match in insertion order
    wins.
    """

    game: BimatrixGame
    profiles: List[StrategyProfile] = field(default_factory=list)
    atol: float = 1e-3

    @classmethod
    def from_profiles(
        cls, game: BimatrixGame, profiles: Iterable[StrategyProfile], atol: float = 1e-3
    ) -> "EquilibriumSet":
        """Build a de-duplicated set from an iterable of profiles.

        The canonical way to collapse solver output (successful runs,
        decoded samples) into distinct equilibria — both the solver's
        ``distinct_solutions`` and the service layer's outcome builders
        go through here, so the dedup rule lives in one place.
        """
        found = cls(game=game, atol=atol)
        found.extend(profiles)
        return found

    def add(self, profile: StrategyProfile) -> bool:
        """Add ``profile`` unless an equivalent profile is already present.

        Returns ``True`` when the profile was new.
        """
        return self.extend((profile,)) == 1

    def extend(self, profiles: Iterable[StrategyProfile]) -> int:
        """Add many profiles in order; returns the number actually inserted."""
        stacks = _ShapeStacks(self.profiles)
        added = 0
        for profile in profiles:
            if stacks.first_match(profile, self.atol) is None:
                stacks.append(len(self.profiles), profile)
                self.profiles.append(profile)
                added += 1
        return added

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self) -> Iterator[StrategyProfile]:
        return iter(self.profiles)

    def __contains__(self, profile: StrategyProfile) -> bool:
        return self.match(profile) is not None

    def match(self, profile: StrategyProfile, atol: Optional[float] = None) -> Optional[int]:
        """Index of the stored profile equivalent to ``profile``, or ``None``."""
        atol = self.atol if atol is None else atol
        return _ShapeStacks(self.profiles).first_match(profile, atol)

    def count_found(
        self, candidates: Sequence[StrategyProfile], atol: Optional[float] = None
    ) -> int:
        """How many of this set's profiles are matched by ``candidates``."""
        atol = self.atol if atol is None else atol
        stacks = _ShapeStacks(self.profiles)
        found = {stacks.first_match(candidate, atol) for candidate in candidates}
        found.discard(None)
        return len(found)

    def pure_profiles(self, atol: float = 1e-6) -> List[StrategyProfile]:
        """The subset of stored equilibria that are pure."""
        return [profile for profile in self.profiles if profile.is_pure(atol)]

    def mixed_profiles(self, atol: float = 1e-6) -> List[StrategyProfile]:
        """The subset of stored equilibria that are (strictly) mixed."""
        return [profile for profile in self.profiles if not profile.is_pure(atol)]

    def verify_all(self, epsilon: float = 1e-6) -> bool:
        """True when every stored profile is an epsilon-equilibrium of the game."""
        return all(
            is_epsilon_equilibrium(self.game, profile.p, profile.q, epsilon)
            for profile in self.profiles
        )

"""Lightweight trace spans and per-job timelines.

A :class:`Timeline` is one job's record of where its latency went: an
origin taken from :func:`time.perf_counter_ns` plus a list of phases,
each with millisecond offsets relative to that origin, a nesting depth,
and free-form metadata.  Two recording styles cover the two call shapes
in the service:

* ``with timeline.span("materialize", hit=True): ...`` — a nestable
  context manager timing one block (depth follows nesting).
* ``timeline.cut("queue")`` — closes a top-level phase spanning from the
  previous cut (or the origin) to now.  The scheduler uses cuts for the
  job lifecycle (queue → coalesce → shm → run → settle) because those
  phases end in *different methods*; cuts make the top level contiguous
  by construction, so the depth-0 durations sum to the end-to-end
  latency exactly.

Worker-side sub-phases (materialise / kernel / settle) are recorded
against the *worker's* origin and travel back in the batch payload as
wire dicts; the parent re-bases them into the job's timeline with
:meth:`Timeline.splice` at the offset where its ``run`` phase started.

Wire form (JSON-able, attached as ``SolveOutcome.trace`` and surfaced as
``SolveReport.metadata["trace"]``)::

    [{"name": "queue", "start_ms": 0.0, "end_ms": 1.2, "depth": 0},
     {"name": "run",   "start_ms": 3.4, "end_ms": 9.9, "depth": 0},
     {"name": "kernel", "start_ms": 4.1, "end_ms": 9.0, "depth": 1,
      "meta": {"games": 8}}, ...]
"""

from __future__ import annotations

import os
from itertools import count
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["Timeline", "phase_durations", "validate_phases"]

_NS_PER_MS = 1_000_000.0

#: Process-wide span sequence.  ``itertools.count`` is atomic under the
#: GIL, and the pid prefix keeps ids unique across forked workers —
#: together ~20x cheaper than an ``os.urandom`` read per timeline.
_SPAN_SEQ = count(1)


def _new_span_id() -> str:
    return f"{os.getpid():x}-{next(_SPAN_SEQ):x}"


class _Span:
    """An open :meth:`Timeline.span` block (slotted: spans are hot-path)."""

    __slots__ = ("_timeline", "_name", "_meta", "_depth", "_start_ns")

    def __init__(self, timeline: "Timeline", name: str, meta: Dict[str, Any]):
        self._timeline = timeline
        self._name = name
        self._meta = meta

    def __enter__(self) -> "Timeline":
        stack = self._timeline._stack
        stack.append(self._name)
        self._depth = len(stack) - 1
        self._start_ns = perf_counter_ns()
        return self._timeline

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter_ns()
        timeline = self._timeline
        timeline._stack.pop()
        origin = timeline.origin_ns
        phase: Dict[str, Any] = {
            "name": self._name,
            "start_ms": (self._start_ns - origin) / _NS_PER_MS,
            "end_ms": (end - origin) / _NS_PER_MS,
            "depth": self._depth,
        }
        if self._meta:
            phase["meta"] = self._meta
        timeline.phases.append(phase)


class Timeline:
    """One job's trace: an origin instant plus recorded phases."""

    __slots__ = ("span_id", "origin_ns", "phases", "_cursor_ns", "_stack")

    def __init__(self, span_id: Optional[str] = None) -> None:
        self.span_id = span_id or _new_span_id()
        self.origin_ns = perf_counter_ns()
        self.phases: List[Dict[str, Any]] = []
        self._cursor_ns = self.origin_ns
        self._stack: List[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        depth: int = 0,
        **meta: Any,
    ) -> None:
        """Record a phase from absolute ``perf_counter_ns`` instants."""
        phase: Dict[str, Any] = {
            "name": name,
            "start_ms": (start_ns - self.origin_ns) / _NS_PER_MS,
            "end_ms": (end_ns - self.origin_ns) / _NS_PER_MS,
            "depth": depth,
        }
        if meta:
            phase["meta"] = meta
        self.phases.append(phase)

    def span(self, name: str, **meta: Any) -> _Span:
        """Time the enclosed block as a phase; nesting sets depth."""
        return _Span(self, name, meta)

    def cut(self, name: str, **meta: Any) -> None:
        """Close a top-level phase from the previous cut point to now.

        Successive cuts produce contiguous depth-0 phases covering the
        whole timeline, which is what makes per-job phase durations sum
        to the end-to-end latency.
        """
        now = perf_counter_ns()
        origin = self.origin_ns
        phase: Dict[str, Any] = {
            "name": name,
            "start_ms": (self._cursor_ns - origin) / _NS_PER_MS,
            "end_ms": (now - origin) / _NS_PER_MS,
            "depth": 0,
        }
        if meta:
            phase["meta"] = meta
        self.phases.append(phase)
        self._cursor_ns = now

    def skip_to_now(self) -> None:
        """Advance the cut cursor without recording a phase."""
        self._cursor_ns = perf_counter_ns()

    def splice(
        self,
        wire_phases: Iterable[Dict[str, Any]],
        offset_ms: float,
        depth_shift: int = 1,
    ) -> None:
        """Fold phases from another timeline's wire form into this one.

        ``offset_ms`` re-bases the foreign offsets onto this timeline's
        origin (typically where the local ``run`` phase started);
        ``depth_shift`` nests them under the enclosing local phase.
        """
        for phase in wire_phases or []:
            spliced = dict(phase)
            spliced["start_ms"] = float(phase["start_ms"]) + offset_ms
            spliced["end_ms"] = float(phase["end_ms"]) + offset_ms
            spliced["depth"] = int(phase.get("depth", 0)) + depth_shift
            self.phases.append(spliced)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        """Milliseconds since the timeline's origin."""
        return (perf_counter_ns() - self.origin_ns) / _NS_PER_MS

    def cursor_ms(self) -> float:
        """Offset of the current cut cursor relative to the origin.

        The splice offset for sub-phases that belong inside the *next*
        cut phase (the scheduler splices worker spans at the position
        where the job's ``run`` phase will start).
        """
        return (self._cursor_ns - self.origin_ns) / _NS_PER_MS

    def to_wire(self) -> List[Dict[str, Any]]:
        """JSON-able phase list, sorted by (depth, start).

        The returned dicts are the timeline's own phase records (not
        copies — a timeline is finished once exported): treat them as
        frozen.
        """
        return sorted(
            self.phases,
            key=lambda p: (p["depth"], p["start_ms"], p["end_ms"]),
        )


def phase_durations(wire_phases: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds spent per phase name (summed over repeats), from wire form."""
    out: Dict[str, float] = {}
    for phase in wire_phases or []:
        seconds = (float(phase["end_ms"]) - float(phase["start_ms"])) / 1000.0
        name = phase["name"]
        out[name] = out.get(name, 0.0) + seconds
    return out


def validate_phases(wire_phases: Iterable[Dict[str, Any]]) -> None:
    """Assert every depth level is monotone and non-overlapping.

    Raises ``ValueError`` naming the offending pair.  Used by the smoke
    gates to check real sweep timelines, and by the telemetry tests.
    """
    by_depth: Dict[int, List[Dict[str, Any]]] = {}
    for phase in wire_phases or []:
        start, end = float(phase["start_ms"]), float(phase["end_ms"])
        if end < start:
            raise ValueError(f"phase {phase['name']!r} ends before it starts: {phase}")
        by_depth.setdefault(int(phase.get("depth", 0)), []).append(phase)
    for depth, phases in by_depth.items():
        ordered = sorted(phases, key=lambda p: (p["start_ms"], p["end_ms"]))
        for previous, current in zip(ordered, ordered[1:]):
            # Tolerate sub-microsecond float jitter at the seams.
            if float(current["start_ms"]) < float(previous["end_ms"]) - 1e-3:
                raise ValueError(
                    f"phases overlap at depth {depth}: {previous['name']!r} "
                    f"[{previous['start_ms']:.3f}, {previous['end_ms']:.3f}] vs "
                    f"{current['name']!r} "
                    f"[{current['start_ms']:.3f}, {current['end_ms']:.3f}]"
                )

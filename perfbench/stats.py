"""Tail-percentile choice and span interval arithmetic for the harness."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail may be reported at, lowest first.  A fixed
#: ladder keeps the reported percentile stable across runs whose sample
#: counts differ slightly; its rungs need 40, 100, 1000 and 10000
#: samples, so each workload's count sits well inside one rung (p95,
#: at 200, would split sweep-overhead's runs between two percentiles).
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Below forty samples nothing above the median qualifies, and the
    median is reported as the tail.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        # Samples beyond, in hundredths, with slack for 100 - 99.9 != 0.1.
        if count * (100.0 - pct) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:
            chosen = pct
    return chosen


Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def clip(interval: Interval, window: Interval) -> Interval:
    """``interval`` clipped to ``window`` (empty intervals have end <= start)."""
    return max(interval[0], window[0]), min(interval[1], window[1])


class Span:
    """One recorded call: layer, name, [start, end) in seconds, where it ran."""

    __slots__ = ("layer", "name", "start", "end", "slot", "info", "parent", "children")

    def __init__(self, layer: str, name: str, start: float, end: float,
                 slot: Tuple[int, int], info: Optional[dict] = None) -> None:
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.slot = slot
        self.info = info
        self.parent: Optional["Span"] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def link_spans(spans: Iterable[Span]) -> Dict[Tuple[int, int], List[Span]]:
    """Group spans by slot and set each span's innermost enclosing parent.

    Spans of one slot (a process and thread) come from nested calls, so
    sorting by (start, -end) and keeping a stack of open spans recovers
    the call tree.
    """
    by_slot: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        by_slot[span.slot].append(span)
    for slot_spans in by_slot.values():
        slot_spans.sort(key=lambda s: (s.start, -s.end))
        stack: List[Span] = []
        for span in slot_spans:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                span.parent = stack[-1]
                stack[-1].children.append(span)
            stack.append(span)
    return by_slot


def self_time(span: Span, window: Interval) -> float:
    """The span's duration minus the union of its child spans, in ``window``."""
    start, end = clip((span.start, span.end), window)
    if end <= start:
        return 0.0
    covered = union_length(clip((c.start, c.end), (start, end)) for c in span.children)
    return (end - start) - covered


def slot_accounting(slot_spans: Sequence[Span], window: Interval) -> Dict[str, float]:
    """Per-layer self seconds on one slot, plus ``idle`` = window minus busy time."""
    out: Dict[str, float] = defaultdict(float)
    for span in slot_spans:
        out[span.layer] += self_time(span, window)
    busy = union_length(
        clip((s.start, s.end), window) for s in slot_spans if s.parent is None
    )
    out["idle"] = (window[1] - window[0]) - busy
    return dict(out)


def outermost_seconds(spans: Iterable[Span], window: Interval, names=None) -> float:
    """Seconds inside the selected spans, counting nested selected spans once."""
    selected = [s for s in spans if names is None or s.name in names]
    chosen = set(map(id, selected))
    total = 0.0
    for span in selected:
        parent = span.parent
        while parent is not None and id(parent) not in chosen:
            parent = parent.parent
        if parent is None:
            start, end = clip((span.start, span.end), window)
            total += max(0.0, end - start)
    return total

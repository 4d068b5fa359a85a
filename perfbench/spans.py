"""In-memory spans recorded by the benchmark around its calls into the program.

A :class:`Tracer` keeps every span (name, start, end, parent, run id) in a
list and writes them out only when the run ends, as Chrome trace-event
JSON (Perfetto and ``chrome://tracing`` read it).  A disabled tracer records
nothing, so the untraced runs that produce the end-to-end metrics pay one
attribute test per span.

Spans come only from the benchmark's own files: around each call into a
layer, and around the two ``repro.columnar.kernels`` entry points, which
:meth:`Tracer.wrap_attribute` replaces for the duration of a traced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from typing import Callable, Dict, Iterator, List


@dataclasses.dataclass
class Span:
    """One timed region; ``parent`` indexes the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on an injectable clock.

    Args:
        enabled: Record spans (a disabled tracer is a no-op).
        run_id: Identifier stamped on every span of this run.
        clock: Monotonic seconds; injectable for tests.
    """

    def __init__(
        self,
        enabled: bool,
        run_id: str = "",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def wrap_attribute(self, owner, attribute: str, name: str) -> Iterator[None]:
        """Record a span around every call of ``owner.attribute``.

        The original attribute is restored on exit, also when the body
        raises.  A disabled tracer leaves the attribute untouched.
        """
        if not self.enabled:
            yield
            return
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # -- reports -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        return [span.duration for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def top_level_time(self) -> float:
        return sum(span.duration for span in self.spans if span.parent < 0)

    def chrome_trace(self) -> str:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": span.parent, "run_id": span.run_id},
            }
            for span in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus the time children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the self times of a trace sum to the time its
    top-level spans cover.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals

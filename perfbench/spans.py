"""In-memory spans around layer calls, exported as Chrome trace events.

The benchmark times each layer from outside: a span opens before a call
into a layer's public function and closes after it returns.  Spans are
kept in a list (name, start, end, parent) and written out once, at the
end of a traced run, as Chrome trace-event JSON (opens in Perfetto or
``chrome://tracing``).  An untraced run uses :data:`NO_TRACE`, whose
``span`` hands back one shared no-op context, so the timed code path is
the same in both runs.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["NO_TRACE", "Span", "Tracer", "self_times"]


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_chrome_trace(self, path: Path) -> Path:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "args": {"id": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        return path


class _NoTrace:
    """The untraced run's tracer: every span is the same no-op context."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL


NO_TRACE = _NoTrace()


def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self seconds.

    A span's self time is its duration minus the time its direct
    children cover; spans on one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    table: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child_time[i]
    return table

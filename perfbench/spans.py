"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around the benchmark's own calls into the package, never
inside it.  A span holds its name, start and end (``time.perf_counter``),
the index of its parent span, the operation it belongs to, and an optional
tag (for example the verdict of a ``sep_feasible`` call or the construction
label of a protocol).  Nothing is written while the run measures; the
worker returns the spans when it ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    tag: str | None = None

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.tag]


class Tracer:
    """Records nested spans while ``enabled``; a disabled tracer only calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        tag: str | Callable[[Any], str] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Call ``fn`` and, when enabled, record one span named ``name``.

        ``tag`` is either a fixed string or a function of the call's result.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # reserve the slot
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        label = tag(result) if callable(tag) else tag
        self.spans[index] = Span(name, start, end, parent, self.op, label)
        return result


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; the covered time is the length of the
    union of the child intervals, clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out

"""In-memory spans around calls into the analyzer's layers, and self times.

A span records a name ("<layer>.<function>"), start and end in nanoseconds,
its parent span, the scenario it belongs to, and counts taken at the same
boundary. Spans stay in memory until `write_spans` at the end of a run. The
analyzer itself is not instrumented: the benchmark opens a span around each
call it makes into a layer's public function.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    scenario: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per `span()` block; blocks nest through a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, scenario: str = "") -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, 0, 0, parent.id if parent else None,
                  scenario or (parent.scenario if parent else ""))
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start_ns = time.perf_counter_ns()
        try:
            yield sp.counts
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()


class NullTracer:
    """Same interface, records nothing: the untraced twin of a traced pass."""

    @contextmanager
    def span(self, name: str, scenario: str = "") -> Iterator[dict]:
        yield {}


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """Write every pass's spans as JSON lines, tagged with the pass index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for i, spans in enumerate(passes):
            for sp in spans:
                fh.write(json.dumps({"pass": i, **sp.__dict__}, separators=(",", ":")) + "\n")


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out: dict[int, int] = {}
    for sp in spans:
        covered = 0
        cursor = sp.start_ns
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(ch.start_ns, cursor), min(ch.end_ns, sp.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.end_ns - sp.start_ns - covered
    return out


def self_ms_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name, in milliseconds."""
    own = self_times_ns(spans)
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.name] = out.get(sp.name, 0.0) + own[sp.id] / 1e6
    return out


def self_ms_by_scenario(spans: list[Span], names: set[str]) -> dict[str, float]:
    """Summed self time of the named spans, per scenario, in milliseconds."""
    own = self_times_ns(spans)
    out: dict[str, float] = {}
    for sp in spans:
        if sp.name in names:
            out[sp.scenario] = out.get(sp.scenario, 0.0) + own[sp.id] / 1e6
    return out

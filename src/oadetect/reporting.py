"""Conflict report rendering and machine-readable outcome records."""

from __future__ import annotations

import json
from typing import NamedTuple

from .engine import AnalysisOutcome, Conflict, Mode, WriteEvent
from .mir import MethodDef


class ConflictReport(NamedTuple):
    entry_class: str
    entry_method: str
    element: str
    overriding: WriteEvent
    overridden: WriteEvent

    @property
    def overridden_flow(self) -> list[str]:
        return _flow(self.overridden)

    @property
    def overriding_flow(self) -> list[str]:
        return _flow(self.overriding)


def _flow(ev: WriteEvent) -> list[str]:
    frames = [f"{hop.method_display}:{hop.pos.line}" for hop in ev.call_path]
    frames.append(f"{ev.method_display}:{ev.pos.line}")
    return frames


def build_reports(outcome: AnalysisOutcome, entry: MethodDef) -> list[ConflictReport]:
    """One report per conflict, in the order `detect` sorted them."""
    return [
        ConflictReport(
            entry_class=entry.declaring_class,
            entry_method=entry.name,
            element=c.element,
            overriding=c.overriding,
            overridden=c.overridden,
        )
        for c in outcome.conflicts
    ]


def render_text(c: ConflictReport) -> str:
    """Human-readable alert: header plus one flow block per involved write."""
    under = c.overridden.root_pos.line
    over = c.overriding.root_pos.line
    lines = [
        f"Interference in class {c.entry_class}, method {c.entry_method}(), "
        f"execution of line {under} overrides {over}, assigning to variable {c.element}",
        f"Caused by line {under} flow:",
    ]
    lines.extend(f"  at {frame}" for frame in c.overridden_flow)
    lines.append(f"And line {over} flow:")
    lines.extend(f"  at {frame}" for frame in c.overriding_flow)
    return "\n".join(lines)


def outcome_record(unit: str, mode: Mode, outcome: AnalysisOutcome) -> dict:
    return {
        "unit": unit,
        "mode": mode.value,
        "verdict": outcome.verdict.value,
        "conflicts": [
            {
                "element": c.element,
                "over_line": c.overriding.root_pos.line,
                "under_line": c.overridden.root_pos.line,
            }
            for c in outcome.conflicts
        ],
        "missrefs": [
            {"file": m.pos.file, "line": m.pos.line, "reason": m.reason}
            for m in outcome.missrefs
        ],
        "visited": outcome.stats.visited,
        "paths": outcome.stats.paths,
        "elapsed_ms": round(outcome.stats.elapsed_ms),
    }


def emit_records(outcomes: list[tuple[str, Mode, AnalysisOutcome]]) -> str:
    """One JSON object per line, byte-stable for fixed budgets."""
    lines = [json.dumps(outcome_record(u, m, o), separators=(",", ":")) for u, m, o in outcomes]
    return "\n".join(lines) + ("\n" if lines else "")


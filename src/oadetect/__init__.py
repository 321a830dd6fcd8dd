"""Override-assignment merge conflict detection over a small class-based IR."""

from .cha import CallGraph, build_cha_graph
from .engine import (
    AnalysisBudget,
    AnalysisOutcome,
    Mode,
    Verdict,
    detect,
    enumerate_write_paths,
)
from .frontend import (
    ProvenanceMap,
    SourceUnit,
    apply_sidecar,
    entry_candidates,
    parse_program,
    parse_source,
    pretty_print,
)
from .mir import Program, Provenance, subtype_of, implementers_of, validate_program
from .pointsto import MISS, pa_entry_points, pts_of, solve

__version__ = "0.1.0"

__all__ = [
    "AnalysisBudget",
    "AnalysisOutcome",
    "CallGraph",
    "MISS",
    "Mode",
    "Program",
    "Provenance",
    "ProvenanceMap",
    "SourceUnit",
    "Verdict",
    "apply_sidecar",
    "build_cha_graph",
    "detect",
    "entry_candidates",
    "enumerate_write_paths",
    "implementers_of",
    "pa_entry_points",
    "parse_program",
    "parse_source",
    "pretty_print",
    "pts_of",
    "solve",
    "subtype_of",
    "validate_program",
    "__version__",
]

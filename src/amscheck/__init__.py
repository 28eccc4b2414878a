"""Dense-time assertion checking for analog and mixed-signal traces.

Truth of predicates over piecewise-linear waveforms is kept as exact
interval sets; sequence and delay operators are evaluated with
interval arithmetic, so matches are located at crossing instants, not
at sample points.  Includes a streaming checker, a brute-force grid
oracle for differential testing, and a Verilog-AMS monitor generator.
"""

from .ast import Property, collect_atoms, depth, horizon, pretty, validate
from .atoms import AtomTable, bexpr_truth, build_table
from .codegen import CodegenConfig, generate_monitors
from .engine import MatchReport, assertion_match
from .errors import (
    AmscheckError,
    BoundError,
    CodegenError,
    DomainError,
    GridError,
    InvalidDelayError,
    ParseError,
    ProtocolError,
    RecurrenceError,
    TraceError,
    UnknownSignalError,
    UnsupportedFeatureError,
    ValidationError,
)
from .intervals import (
    EMPTY,
    TIME_TOL,
    Interval,
    IntervalSet,
    minkowski_diff_set,
    minkowski_sum_set,
    set_complement,
    set_difference,
    set_intersect,
    set_union,
)
from .online import Obligation, Session, Verdict
from .oracle import grid_resolves, oracle_classify
from .parser import parse_file, parse_property
from .trace import Trace, load_csv, save_csv
from .wavegen import fixture_spec, fixture_trace, generate, load_spec

__version__ = "0.1.0"

__all__ = [
    "AmscheckError",
    "BoundError",
    "AtomTable",
    "CodegenConfig",
    "CodegenError",
    "DomainError",
    "EMPTY",
    "GridError",
    "Interval",
    "IntervalSet",
    "InvalidDelayError",
    "MatchReport",
    "Obligation",
    "ParseError",
    "Property",
    "ProtocolError",
    "RecurrenceError",
    "Session",
    "TIME_TOL",
    "Trace",
    "TraceError",
    "UnknownSignalError",
    "UnsupportedFeatureError",
    "ValidationError",
    "Verdict",
    "assertion_match",
    "bexpr_truth",
    "build_table",
    "collect_atoms",
    "depth",
    "fixture_spec",
    "fixture_trace",
    "generate",
    "generate_monitors",
    "horizon",
    "load_csv",
    "load_spec",
    "minkowski_diff_set",
    "minkowski_sum_set",
    "grid_resolves",
    "oracle_classify",
    "parse_file",
    "parse_property",
    "pretty",
    "save_csv",
    "set_complement",
    "set_difference",
    "set_intersect",
    "set_union",
    "validate",
]

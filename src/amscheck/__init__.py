"""Dense-time assertion checking for analog and mixed-signal traces.

Truth of predicates over piecewise-linear waveforms is kept as exact
interval sets; sequence and delay operators are evaluated with
interval arithmetic, so matches are located at crossing instants, not
at sample points.  Includes a streaming checker, a brute-force grid
oracle for differential testing, and a Verilog-AMS monitor generator.

Importing the package loads only the parser (`errors`, `expr`, `ast`,
`parser`).  Every other public name, and each module, such as
`amscheck.engine`, imports its module on first access; `_LAZY` below is
the one table of which name loads which module.  Only the trace, oracle
and wavegen modules load numpy.
"""

import importlib

from .ast import Property, collect_atoms, depth, horizon, pretty, validate
from .errors import (
    AmscheckError,
    BoundError,
    CodegenError,
    DomainError,
    EncodingError,
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
from .parser import parse_file, parse_property

__version__ = "0.1.0"

# name -> the module that defines it, imported on the name's first access
_LAZY = {
    **dict.fromkeys(("AtomTable", "build_table"), "atoms"),
    **dict.fromkeys(("MatchReport", "assertion_match"), "engine"),
    **dict.fromkeys(("TIME_TOL", "Interval", "IntervalSet", "minkowski_diff_set", "minkowski_sum_set",
                     "set_complement", "set_difference", "set_intersect", "set_union"), "intervals"),
    **dict.fromkeys(("Obligation", "Session", "Verdict"), "online"),
    **dict.fromkeys(("Trace", "load_csv", "save_csv"), "trace"),
    **dict.fromkeys(("oracle_classify", "grid_resolves"), "oracle"),
    **dict.fromkeys(("generate", "fixture_spec", "fixture_trace", "load_spec"), "wavegen"),
    **dict.fromkeys(("CodegenConfig", "generate_monitors"), "codegen"),
}


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# every name the import lines above bind from a submodule, and every name of `_LAZY`
__all__ = sorted({n for n, v in globals().items() if getattr(v, "__module__", "").startswith(__name__ + ".")}
                 | _LAZY.keys())

"""Exception types shared across the package, and `open_utf8`, which opens
every input file and raises `EncodingError` for bytes that are not UTF-8."""

from contextlib import contextmanager
from typing import Iterator, TextIO


class AmscheckError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDelayError(AmscheckError):
    """A delay window [c:d] has d < c or a negative endpoint."""


class DomainError(AmscheckError):
    """A set operation received operands outside the expected domain."""


class ParseError(AmscheckError):
    """Syntax error in assertion text, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


class ValidationError(AmscheckError):
    """A parsed assertion violates a structural rule."""


class BoundError(ValidationError):
    """A timing bound pair has b < a or a < 0."""


class RecurrenceError(ValidationError):
    """A recurrence operator was given a zero or negative duration."""


class UnsupportedFeatureError(ValidationError):
    """Syntax was recognised but has no defined semantics here."""


class UnknownSignalError(AmscheckError):
    """An assertion references a signal the trace does not carry."""


class TraceError(AmscheckError):
    """Malformed trace data (bad CSV, non-monotone time, arity mismatch)."""


class EncodingError(AmscheckError):
    """An input file is not valid UTF-8."""


class ProtocolError(AmscheckError):
    """Malformed input on the streaming sample protocol."""


class CodegenError(AmscheckError):
    """The property uses a construct with no monitor template."""


class GridError(AmscheckError):
    """The reference grid step is too coarse for the property or trace."""


@contextmanager
def open_utf8(path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text.  A byte that is not UTF-8 raises `EncodingError`
    naming its line and column, from a binary read that splits lines as text mode does."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, line in enumerate((part for chunk in fh for part in chunk.splitlines()), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as e:
                    col = len(line[: e.start].decode("utf-8")) + 1  # in characters
                    msg = f"{path}:{lineno}: not UTF-8 (byte 0x{line[e.start]:02x} at column {col})"
                    raise EncodingError(msg) from None
        raise

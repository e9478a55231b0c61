"""Exception types shared across the harness.

Each class carries the exit status the CLI returns for it (`exit_code`):
domain and validation problems exit 1, transport and numerical problems
exit 2. The CLI reads it and decides nothing else; an `OSError` exits 2.
A file that is not UTF-8 is a ParseError naming the line of its first bad
byte (`ParseError.not_utf8`, `utf8_named`), so it exits 1.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


class HarnessError(Exception):
    """Base class for all harness errors."""

    exit_code = 1


class ParseError(HarnessError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)

    @classmethod
    def not_utf8(cls, data: bytes, exc: UnicodeDecodeError, line_number: int = 1) -> ParseError:
        """The error for `data`, which `exc` found not to be UTF-8; `data` starts on
        line `line_number`, and the error names the line of its first bad byte."""
        return cls(f"invalid UTF-8 byte {data[exc.start]:#04x} ({exc.reason})",
                   line_number + data.count(b"\n", 0, exc.start))


@contextmanager
def utf8_named(path: Path):
    """Re-raise a byte of the file `path` that is not UTF-8, met in the block, as a
    ParseError naming the file and the line.

    The file is read again, a line at a time, to find that line: a "\n" byte
    is never part of a multi-byte character, so each line decodes alone.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ParseError(f"{path}: {ParseError.not_utf8(line, bad, lineno)}") from exc
        raise


class ValidationError(HarnessError):
    """Well-formed input that violates a domain rule (bad identifier, duplicate key)."""


class DomainError(HarnessError):
    """Operation called outside its stated preconditions."""


class ConsistencyError(HarnessError):
    """Cross-artifact mismatch (e.g. sampled identifier missing from the record set)."""


class ProtocolError(HarnessError):
    """Remote service answered with an unparseable or contract-violating payload."""

    exit_code = 2


class TransportError(HarnessError):
    """Transient network failure that survived the retry budget."""

    exit_code = 2


class PermanentHttpError(HarnessError):
    """Non-retryable HTTP status (4xx other than 429)."""

    exit_code = 2

    def __init__(self, status: int, message: str = ""):
        self.status = status
        super().__init__(f"HTTP {status}: {message}" if message else f"HTTP {status}")


class NumericalError(HarnessError):
    """Numerical routine failed to converge to its stated tolerance."""

    exit_code = 2

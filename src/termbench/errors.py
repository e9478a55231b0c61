"""Exception types shared across the harness.

Each class carries the exit status the CLI returns for it (`exit_code`):
domain and validation problems exit 1, transport and numerical problems
exit 2. The CLI reads it and decides nothing else; an `OSError` exits 2.
"""

from __future__ import annotations


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

"""The one retry/backoff loop shared by the esearch, completion and embedding clients.

An attempt is retried when it raises `TransportError`: a failed request,
or an HTTP 429 or 5xx turned into one by `check_status`. Any other 4xx is
a `PermanentHttpError` and is never retried. Waits start at 1 s and double
after each retry; the fifth failed attempt gives up.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .errors import PermanentHttpError, TransportError

RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5

T = TypeVar("T")


def check_status(status: int, body: str, endpoint: str) -> None:
    """Raise for an HTTP error status: retryable for 429 and 5xx, permanent for other 4xx."""
    if status == 429 or 500 <= status < 600:
        raise TransportError(f"HTTP {status} from {endpoint}")
    if 400 <= status < 500:
        raise PermanentHttpError(status, body[:200])


def with_retries(attempt: Callable[[], T], endpoint: str,
                 sleep: Callable[[float], None]) -> T:
    """Result of the first `attempt()` that does not raise `TransportError`."""
    delay = RETRY_BASE_SECONDS
    last_error: TransportError | None = None
    for n in range(MAX_ATTEMPTS):
        if n > 0:
            sleep(delay)
            delay *= RETRY_FACTOR
        try:
            return attempt()
        except TransportError as exc:
            last_error = exc
    raise TransportError(f"{endpoint} failed after {MAX_ATTEMPTS} attempts: {last_error}")

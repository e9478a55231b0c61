"""PubMed Central hit counts via the NCBI E-utilities esearch endpoint.

Counts are fetched with `rettype=count` (no article payload), written
through to an append-only JSONL cache keyed by (query, db), and rate
limited with a process-wide token bucket: 3 requests/second without an
API key, 10/second with one (service policy).

Transport is injectable: anything callable as `transport(url, params) ->
(status_code, body_text)`. The default wraps `requests`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from .config import EUTILS_KEY_ENV
from .errors import PermanentHttpError, ProtocolError, TransportError
from .jsonl import iter_rows, write_rows
from .ratelimit import TokenBucket

ESEARCH_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils/esearch.fcgi"

RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5

Transport = Callable[[str, dict], tuple[int, str]]


def identifier_query(identifier: str) -> str:
    """Exact-phrase PMC query for an identifier string."""
    return f'"{identifier}"[All Fields]'


def term_query(label: str) -> str:
    """Exact-phrase PMC query for a term's primary label."""
    return f'"{label}"[All Fields]'


def _requests_transport(url: str, params: dict) -> tuple[int, str]:
    import requests

    try:
        resp = requests.get(url, params=params, timeout=30)
    except requests.RequestException as exc:
        raise TransportError(f"request failed: {exc}") from exc
    return resp.status_code, resp.text


_shared_limiter_lock = threading.Lock()
_shared_limiters: dict[float, TokenBucket] = {}


def _shared_limiter(rate: float) -> TokenBucket:
    with _shared_limiter_lock:
        if rate not in _shared_limiters:
            _shared_limiters[rate] = TokenBucket(rate)
        return _shared_limiters[rate]


class QueryCache:
    """Append-only JSONL cache of `{query, db, count, retrieved_at}` rows.

    The last row for a (query, db) key wins. Writes are serialized through
    a lock so concurrent fetches never interleave partial lines.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], dict] = {}
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                self._entries.update(iter_rows(fh, lambda row: ((row["query"], row["db"]), row)))

    def get(self, query: str, db: str) -> dict | None:
        return self._entries.get((query, db))

    def put(self, query: str, db: str, count: int, retrieved_at: str) -> None:
        row = {"query": query, "db": db, "count": count, "retrieved_at": retrieved_at}
        with self._lock:
            self._entries[(query, db)] = row
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                write_rows([row], fh)


class PmcClient:
    """Count-only esearch client with retry, rate limiting and caching."""

    def __init__(
        self,
        cache: QueryCache,
        transport: Transport | None = _requests_transport,
        api_key: str | None = None,
        rate_limiter: TokenBucket | None = None,
        sleep: Callable[[float], None] = time.sleep,
        base_url: str = ESEARCH_URL,
    ):
        self.cache = cache
        self.transport = transport
        self.api_key = api_key if api_key is not None else os.environ.get(EUTILS_KEY_ENV)
        if rate_limiter is None:
            rate_limiter = _shared_limiter(10.0 if self.api_key else 3.0)
        self.rate_limiter = rate_limiter
        self._sleep = sleep
        self.base_url = base_url

    def fetch_count(self, query: str, db: str = "pmc") -> int:
        """Hit count for `query`, served from cache when available."""
        if not query:
            raise ValueError("empty query")
        cached = self.cache.get(query, db)
        if cached is not None:
            return int(cached["count"])
        if self.transport is None:
            raise TransportError(
                f"no transport configured and query not cached: {query!r} (db={db})"
            )
        count = self._fetch_remote(query, db)
        retrieved_at = datetime.now(timezone.utc).isoformat()
        self.cache.put(query, db, count, retrieved_at)
        return count

    def _fetch_remote(self, query: str, db: str) -> int:
        params = {"db": db, "term": query, "retmode": "json", "rettype": "count"}
        if self.api_key:
            params["api_key"] = self.api_key
        delay = RETRY_BASE_SECONDS
        last_error: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt > 0:
                self._sleep(delay)
                delay *= RETRY_FACTOR
            self.rate_limiter.acquire()
            try:
                status, body = self.transport(self.base_url, params)
            except TransportError as exc:
                last_error = exc
                continue
            if status == 429 or 500 <= status < 600:
                last_error = TransportError(f"HTTP {status} from esearch")
                continue
            if 400 <= status < 500:
                raise PermanentHttpError(status, body[:200])
            return self._parse_count(body)
        raise TransportError(
            f"esearch failed after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    @staticmethod
    def _parse_count(body: str) -> int:
        try:
            payload = json.loads(body)
            count = payload["esearchresult"]["count"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ProtocolError(f"count missing from esearch response: {exc}") from exc
        try:
            value = int(count)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"non-numeric count {count!r}") from exc
        if value < 0:
            raise ProtocolError(f"negative count {value}")
        return value

"""PubMed Central hit counts via the NCBI E-utilities esearch endpoint.

Counts are fetched with `rettype=count` (no article payload) and written
through to an append-only JSONL cache keyed by (query, db).
`PmcClient.fetch_counts` keeps up to `concurrency` requests in flight, so
round-trip latency does not hold throughput below the rate limit.

Requests go through the `remote.Endpoint` the client is handed: the
popularity stage hands it the stage's esearch endpoint (which carries the
E-utilities API key, when one is set, and the token bucket of
`limits.rate_per_second`), or none when `flags.offline` is set, and a
client with no endpoint answers from the cache only. New counts are
appended to the cache file through one handle, which the stage closes
before it hashes the file.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .errors import ProtocolError, TransportError
from .jsonl import KeyedStore
from .remote import Endpoint, bounded_map

ESEARCH_URL = "https://eutils.ncbi.nlm.nih.gov/entrez/eutils/esearch.fcgi"


def identifier_query(identifier: str) -> str:
    """Exact-phrase PMC query for an identifier string."""
    return f'"{identifier}"[All Fields]'


def term_query(label: str) -> str:
    """Exact-phrase PMC query for a term's primary label."""
    return f'"{label}"[All Fields]'


def count_value(count) -> int:
    """An esearch hit count: a non-bool int >= 0, or a string of ASCII digits.

    Anything else raises ValueError; `int()` would take `true` as 1 and
    `2.9` as 2.
    """
    if isinstance(count, str) and count.isascii() and count.isdigit():
        return int(count)
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"non-numeric count {count!r}")
    if count < 0:
        raise ValueError(f"negative count {count}")
    return count


class QueryCache(KeyedStore):
    """The PMC count cache: a `KeyedStore` of `{query, db, count, retrieved_at}` rows.

    The last row for a (query, db) key wins; only its count is kept. A row
    whose count breaks the rule of live replies (`count_value`) is a
    ParseError naming its line.
    """

    def __init__(self, path: str | Path):
        super().__init__(path)

    @staticmethod
    def entry(row: dict) -> tuple[tuple[str, str], int]:
        return (row["query"], row["db"]), count_value(row["count"])

    def get(self, query: str, db: str) -> int | None:
        """The cached count for (query, db), or None."""
        return super().get((query, db))

    def put(self, query: str, db: str, count: int, retrieved_at: str) -> None:
        super().put({"query": query, "db": db, "count": count, "retrieved_at": retrieved_at})


class PmcClient:
    """Count-only esearch client over a cache, and an endpoint for what it lacks (or None)."""

    def __init__(self, cache: QueryCache, endpoint: Endpoint | None):
        self.cache = cache
        self.endpoint = endpoint

    def fetch_count(self, query: str, db: str = "pmc") -> int:
        """Hit count for `query`, served from cache when available."""
        if not query:
            raise ValueError("empty query")
        cached = self.cache.get(query, db)
        if cached is not None:
            return cached
        if self.endpoint is None:
            raise TransportError(f"query not cached in the PMC cache {self.cache.path} and "
                                 f"flags.offline is set: {query!r} (db={db})")
        count = self._fetch_remote(query, db)
        retrieved_at = datetime.now(timezone.utc).isoformat()
        self.cache.put(query, db, count, retrieved_at)
        return count

    def fetch_counts(self, queries: Sequence[str], concurrency: int,
                     db: str = "pmc") -> list[int]:
        """Hit counts for `queries`, in order; each distinct query is fetched once.

        Cached queries (and every query when there is no endpoint) are
        answered in order on the calling thread. The misses go through
        `fetch_count` in `bounded_map`, so at most `concurrency` requests
        are in flight. The first failure cancels the fetches not yet
        started and is re-raised; counts already fetched stay in the cache,
        so a re-run resumes from them.
        """
        counts: dict[str, int] = {}
        misses = []
        for query in dict.fromkeys(queries):
            if self.endpoint is None or self.cache.get(query, db) is not None:
                counts[query] = self.fetch_count(query, db)
            else:
                misses.append(query)
        counts.update(zip(misses, bounded_map(
            lambda query: self.fetch_count(query, db), misses, concurrency)))
        return [counts[query] for query in queries]

    def _fetch_remote(self, query: str, db: str) -> int:
        params = {"db": db, "term": query, "retmode": "json", "rettype": "count"}
        return self._parse_count(self.endpoint.call("GET", params=params))

    @staticmethod
    def _parse_count(payload) -> int:
        try:
            count = payload["esearchresult"]["count"]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"count missing from esearch response: {exc}") from exc
        try:
            return count_value(count)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

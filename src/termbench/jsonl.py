"""JSON Lines rows: the one reader and the one writer for every artifact.

Rows are separated by "\\n" only. `json.dumps(..., ensure_ascii=False)`
writes U+2028, U+2029 and U+0085 verbatim inside strings, and
`str.splitlines` would split a row at any of them, so nothing here uses it.
Both text and binary streams are read line by line, never whole.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .errors import ParseError

T = TypeVar("T")

_ENCODER = json.JSONEncoder(ensure_ascii=False)


def iter_rows(stream: IO, build: Callable[[dict], T]) -> Iterator[T]:
    """Yield `build(row)` for every non-blank line of a JSONL stream.

    A line that is not JSON, or whose row `build` rejects with KeyError,
    ValueError, TypeError or ParseError, raises ParseError naming the line.
    """
    for lineno, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if lineno == 1:
            line = line.lstrip("\ufeff")
        if not line.strip():
            continue
        try:
            item = build(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", lineno) from exc
        except KeyError as exc:
            raise ParseError(f"missing key {exc}", lineno) from exc
        except (ValueError, TypeError, ParseError) as exc:
            raise ParseError(str(exc), lineno) from exc
        yield item


def write_rows(rows: Iterable[dict], sink: IO) -> int:
    """Write one `json.dumps(row, ensure_ascii=False)` line per row; return the count."""
    n = 0
    for row in rows:
        sink.write(_ENCODER.encode(row) + "\n")
        n += 1
    return n

"""JSON: the one row reader, the one row writer and the one document writer.

Every JSONL artifact, cache and transcript is read by `iter_rows` and
written by `write_rows`; the PMC cache, the transcripts and the JSONL
embedding store are `KeyedStore`s, loaded whole and grown a row at a time.
A store's last row, torn by a process that died as it appended it, is
dropped as the store loads, and cut from the file before the next row.
Every JSON document (eval summaries, metrics, fine-tune manifests,
alignment results, the run manifest) is written by `write_document`,
indented by two, with sorted keys and, unlike a row, with every non-ASCII
character escaped.

Rows are separated by "\\n" only. `json.dumps(..., ensure_ascii=False)`
writes U+2028, U+2029 and U+0085 verbatim inside strings, and
`str.splitlines` would split a row at any of them, so nothing here uses it.
A stream is read line by line, never whole.

Both row codecs call the C scanner and encoder that `json.loads` and
`json.dumps` reach, skipping the set-up those functions repeat per call.
The output bytes, the rows and every error message are those of
`json.loads(line)` and `json.dumps(row, ensure_ascii=False)`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .errors import ParseError

T = TypeVar("T")
E = TypeVar("E", bound=Enum)

# The whitespace `json.loads` skips around a document; `str.strip()` would
# also drop "\x0c", U+0085 and U+2028, which `json.loads` rejects.
_JSON_WS = " \t\n\r"
_SCAN = json.JSONDecoder().scan_once

_ENCODER = json.JSONEncoder(ensure_ascii=False)
# `JSONEncoder.encode` makes these for every call; `_ENCODE` is the C encoder
# it would make, with the same settings, built once. The encoder adds each
# container to `_MARKERS` to detect cycles and removes it on the way out,
# but not when it raises, so a failed row clears them.
_MARKERS: dict = {}
_ENCODE = json.encoder.c_make_encoder(
    _MARKERS, _ENCODER.default, json.encoder.encode_basestring, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan)


def iter_rows(stream: IO, build: Callable[[dict], T]) -> Iterator[T]:
    """Yield `build(row)` for every non-blank line of a JSONL text stream.

    A line that is not JSON, or whose row `build` rejects with KeyError,
    ValueError, TypeError or ParseError, raises ParseError naming the line.
    A line the scanner does not take whole goes to `json.loads`, which
    skips it when blank or raises its own error for it.
    """
    for lineno, line in enumerate(stream, start=1):
        if lineno == 1:
            line = line.lstrip("\ufeff")
        text = line.strip(_JSON_WS)
        try:
            try:
                row, end = _SCAN(text, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(text):
                if not line.strip():
                    continue
                row = json.loads(line)
            item = build(row)
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
        try:
            (text,) = _ENCODE(row, 0)
        except BaseException:
            _MARKERS.clear()
            raise
        sink.write(text + "\n")
        n += 1
    return n


class KeyedStore:
    """An append-only JSONL file, loaded through `iter_rows` as `{key: value}`.

    A subclass's `entry(row)` gives a row's (key, value); the last row for a
    key wins. The file is read a line at a time. A torn last row, one that
    lacks its "\\n" and does not decode or parse, is dropped with one stderr
    line naming the file and the row's byte offset; any other row that is
    not UTF-8 or JSON, or that `entry` rejects, is a ParseError naming the
    file and the line. `put` appends a row through one handle shared by
    threads, opened at the first row (the file is cut to its last "\\n"
    first when a torn row was dropped, and a last row that lacks its "\\n"
    gets one), and flushes it, so a killed process keeps every row put
    before it died. Close the store before anything hashes the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: IO | None = None
        self._values: dict = {}
        self._torn_at: int | None = None  # the byte offset of a dropped torn last row
        if self.path.exists():
            try:
                self._load()
            except ParseError as exc:  # a stage may hold three stores: name the file
                exc.args = (f"{self.path}: {exc}",)
                raise

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                self._values.update(iter_rows(fh, self.entry))
        except (ParseError, UnicodeDecodeError):
            # read it again as bytes, decoding each line alone, to drop a torn
            # last row or to name the line that is not UTF-8
            self._values.clear()
            with open(self.path, "rb") as fh:
                self._values.update(iter_rows(self._lines(fh), self.entry))

    def _lines(self, stream: IO[bytes]) -> Iterator[str]:
        """The lines of the binary `stream`, decoded, but for a torn last row."""
        for lineno, line in enumerate(stream, start=1):
            if not (line.endswith(b"\n") or _parses(line)):  # only the last line lacks it
                self._torn_at = stream.tell() - len(line)
                print(f"warning: {self.path}: dropped the torn last row at byte "
                      f"{self._torn_at}; it is cut off before the next row is added",
                      file=sys.stderr)
                return
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError.not_utf8(line, exc, lineno) from exc
            yield text

    def get(self, key):
        return self._values.get(key)

    def put(self, row: dict) -> None:
        key, value = self.entry(row)
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if self._torn_at is not None:
                    os.truncate(self.path, self._torn_at)
                self._fh = open(self.path, "a", encoding="utf-8")
                if self._fh.tell():
                    with open(self.path, "rb") as fh:
                        fh.seek(-1, os.SEEK_END)
                        self._fh.write("" if fh.read(1) == b"\n" else "\n")
            write_rows([row], self._fh)
            self._fh.flush()
            self._values[key] = value

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _parses(line: bytes) -> bool:
    """Whether a line decodes and holds one JSON value, or only whitespace."""
    try:
        text = line.decode("utf-8").lstrip("\ufeff")
        if text.strip(_JSON_WS):
            json.loads(text)
    except ValueError:  # UnicodeDecodeError, json.JSONDecodeError
        return False
    return True


def write_document(payload: dict, sink: IO) -> None:
    """Write `json.dumps(payload, indent=2, sort_keys=True)` and a final "\\n"."""
    sink.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class RowEnum(Enum):
    """An `Enum` whose members are fields of rows: they hash by identity.

    A member equals only itself, so its identity is a sound hash, and
    `object.__hash__` runs in C where `Enum.__hash__` is Python code, paid
    by every row that keys a dict by its members. For the same reason a row
    writer reads a member's value as `member._value_`, the plain attribute
    that the Python-level `value` descriptor returns.
    """

    __hash__ = object.__hash__


def enum_lookup(enum: type[E]) -> Callable[[object], E]:
    """`enum(value)` for a row builder, through a value -> member dict built once.

    A value that is not a member's value, or that cannot be hashed, goes to
    `enum(value)`, which raises its usual error ("'x' is not a valid ...").
    """
    members = {member.value: member for member in enum}

    def lookup(value: object) -> E:
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)
    return lookup

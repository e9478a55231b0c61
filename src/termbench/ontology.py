"""Terminology sources: OBO flat files and the gene-symbol/protein-name map.

Three terminologies are supported, each with its own identifier syntax:

    HPO    `HP:` + 7 decimal digits          (e.g. HP:0001337)
    GO_CC  `GO:` + 7 decimal digits          (e.g. GO:0005634)
    GENE   uppercase HGNC symbol             (e.g. TP53, SOD1)

Everything parses into a single TermRecord model so the rest of the
pipeline never cares where a pair came from. Obsolete OBO terms are
excluded; `alt_id:` lines are ignored (one canonical identifier per term).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Iterator, TypeVar

from .errors import ParseError, ValidationError
from .jsonl import enum_lookup, iter_rows, write_rows


class Terminology(Enum):
    """Declared in the order stages and report tables take them."""

    HPO = "HPO"
    GO_CC = "GO_CC"
    GENE = "GENE"

    @property
    def display(self) -> str:
        """Short name used in prompts, reports and statistics tables."""
        return "GO" if self is Terminology.GO_CC else self.value

    @property
    def key(self) -> str:
        """Name used in config keys and run file names (`paths.annotations_go_cc`)."""
        return self.value.lower()

    def valid_identifier(self, identifier: str) -> bool:
        return bool(_ID_PATTERNS[self].fullmatch(identifier))


terminology_member = enum_lookup(Terminology)

_ID_PATTERNS = {
    Terminology.HPO: re.compile(r"HP:\d{7}"),
    Terminology.GO_CC: re.compile(r"GO:\d{7}"),
    Terminology.GENE: re.compile(r"[A-Z][A-Z0-9-]*"),
}


@dataclass(frozen=True, slots=True)
class TermRecord:
    """One term/identifier pair from a terminology."""

    terminology: Terminology
    identifier: str
    label: str
    synonyms: tuple[str, ...] = ()
    namespace: str | None = None

    def __post_init__(self):
        if not self.terminology.valid_identifier(self.identifier):
            raise ValidationError(
                f"identifier {self.identifier!r} does not match the "
                f"{self.terminology.value} syntax"
            )
        if not self.label.strip():
            raise ValidationError(f"empty label for identifier {self.identifier!r}")
        if len(set(self.synonyms)) != len(self.synonyms):
            raise ValidationError(f"duplicate synonyms for {self.identifier!r}")
        if self.label in self.synonyms:
            raise ValidationError(f"label repeated in synonyms for {self.identifier!r}")


@dataclass
class OboDocument:
    """Parsed OBO file: header tag/value pairs plus the live term records."""

    header: dict[str, str]
    records: list[TermRecord]


def read_lines(stream: IO) -> list[str]:
    """The text stream's content, its byte-order mark dropped, split into lines.

    Lines end at "\n" only, each losing one trailing "\r" so CRLF files
    parse; `str.splitlines` would also cut a label at U+0085, U+2028 or
    U+2029.
    """
    lines = stream.read().removeprefix("\ufeff").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def two_column_rows(lines: list[str], start: int = 1) -> Iterator[tuple[int, str, str]]:
    """(line number, first cell, second cell) for each non-blank TSV line.

    `start` is the number of the first line. Both cells are stripped; a line
    that does not split into exactly two tab-separated columns is a
    ParseError naming it.
    """
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 2 tab-separated columns, got {len(cols)}", lineno)
        yield lineno, cols[0].strip(), cols[1].strip()


# A tag value ends at its first `!` that no backslash escapes.
_VALUE_RE = re.compile(r"(?:[^!\\]|\\.?)*")
_SYNONYM_RE = re.compile(r'\s*"((?:[^"\\]|\\.)*)"')


def _strip_trailing_comment(value: str) -> str:
    return _VALUE_RE.match(value).group().strip()


def parse_obo_document(stream: IO, terminology: Terminology) -> OboDocument:
    """Parse an OBO flat file into header tags and live TermRecords.

    One record per non-obsolete `[Term]` stanza carrying both `id:` and
    `name:`. Stanza order is preserved. A `[Term]` stanza that is not
    obsolete but lacks `id:` or `name:` is a parse error at the stanza's
    opening line.
    """
    header: dict[str, str] = {}
    stanzas: list[tuple[int, dict[str, list[str]]]] = []
    tags = None  # the open stanza's {tag: [raw values]}; None in the header
    for lineno, line in enumerate(read_lines(stream), start=1):
        line = line.strip()
        if line.startswith("["):
            tags = {}
            if line == "[Term]":
                stanzas.append((lineno, tags))
        elif ":" in line:
            tag, value = line.split(":", 1)
            if tags is None:
                header[tag.strip()] = _strip_trailing_comment(value)
            elif tag == "synonym" or tag.strip() != "synonym":  # `synonym :` holds none
                tags.setdefault(tag.strip(), []).append(value)
    records = (_term_record(terminology, lineno, tags) for lineno, tags in stanzas)
    return OboDocument(header=header, records=[r for r in records if r is not None])


def _term_record(terminology: Terminology, lineno: int,
                 tags: dict[str, list[str]]) -> TermRecord | None:
    """The record of one `[Term]` stanza's tag values; None when it is obsolete.

    The last `id`, `name` and `namespace` win; one `is_obsolete: true`
    makes the term obsolete.
    """
    if "true" in map(_strip_trailing_comment, tags.get("is_obsolete", ())):
        return None
    identifier, label, namespace = (
        _strip_trailing_comment(tags[tag][-1]) if tag in tags else None
        for tag in ("id", "name", "namespace"))
    for tag, value in (("id:", identifier), ("name:", label)):
        if value is None:
            raise ParseError(f"[Term] stanza missing {tag}", lineno)
    synonyms: list[str] = []
    for value in tags.get("synonym", ()):
        match = _SYNONYM_RE.match(value)
        synonym = match and match.group(1).replace('\\"', '"').strip()
        if synonym and synonym != label and synonym not in synonyms:
            synonyms.append(synonym)
    return TermRecord(terminology, identifier, label, tuple(synonyms), namespace)


def filter_namespace(records: Iterable[TermRecord], namespace: str) -> list[TermRecord]:
    """Records whose namespace equals `namespace`, order preserved."""
    return [r for r in records if r.namespace == namespace]


def parse_gene_map(stream: IO) -> list[TermRecord]:
    """Parse the two-column gene map TSV: `gene_symbol<TAB>protein_name`.

    The first row must be exactly that header. Every following row yields a
    GENE record with identifier = symbol and label = protein name.
    """
    lines = read_lines(stream)
    if not lines:
        raise ParseError("empty gene map (missing header row)", 1)
    if lines[0] != "gene_symbol\tprotein_name":
        raise ParseError(
            f"expected header 'gene_symbol\\tprotein_name', got {lines[0]!r}", 1
        )
    return [TermRecord(Terminology.GENE, symbol, protein)
            for _, symbol, protein in two_column_rows(lines[1:], start=2)]


R = TypeVar("R")  # a TermRecord, or any record with an identifier and a label


def build_index(records: Iterable[R]) -> dict[str, R]:
    """Records by identifier.

    A duplicate identifier, or a label repeated up to case, is a
    construction error; silently keeping the first occurrence would hide
    upstream data problems.
    """
    index: dict[str, R] = {}
    labels: set[str] = set()
    for record in records:
        if record.identifier in index:
            raise ValidationError(f"duplicate identifier {record.identifier!r}")
        key = record.label.lower()
        if key in labels:
            raise ValidationError(f"duplicate label {record.label!r}")
        index[record.identifier] = record
        labels.add(key)
    return index


def _record_row(r: TermRecord) -> dict:
    return {
        "terminology": r.terminology.value,
        "identifier": r.identifier,
        "label": r.label,
        "synonyms": list(r.synonyms),
        "namespace": r.namespace,
    }


def _record_from_row(row: dict) -> TermRecord:
    return TermRecord(
        terminology=terminology_member(row["terminology"]),
        identifier=row["identifier"],
        label=row["label"],
        synonyms=tuple(row.get("synonyms", ())),
        namespace=row.get("namespace"),
    )


def write_records_jsonl(records: Iterable[TermRecord], sink: IO) -> int:
    """Write the canonical record file (JSON Lines, one object per record)."""
    return write_rows(map(_record_row, records), sink)


def read_records_jsonl(stream: IO) -> list[TermRecord]:
    """Load records written by write_records_jsonl."""
    return list(iter_rows(stream, _record_from_row))

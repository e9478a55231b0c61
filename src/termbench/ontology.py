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
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable

from .errors import ParseError, ValidationError
from .jsonl import iter_rows, write_rows


class Terminology(Enum):
    HPO = "HPO"
    GO_CC = "GO_CC"
    GENE = "GENE"

    @property
    def display(self) -> str:
        """Short name used in prompts, reports and statistics tables."""
        return "GO" if self is Terminology.GO_CC else self.value

    @property
    def identifier_pattern(self) -> re.Pattern:
        return _ID_PATTERNS[self]

    def valid_identifier(self, identifier: str) -> bool:
        return bool(self.identifier_pattern.fullmatch(identifier))


_ID_PATTERNS = {
    Terminology.HPO: re.compile(r"HP:\d{7}"),
    Terminology.GO_CC: re.compile(r"GO:\d{7}"),
    Terminology.GENE: re.compile(r"[A-Z][A-Z0-9-]*"),
}


@dataclass(frozen=True)
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
class TermIndex:
    """Bidirectional lookup over one terminology's records."""

    by_identifier: dict[str, TermRecord] = field(default_factory=dict)
    by_label: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.by_identifier)


@dataclass
class OboDocument:
    """Parsed OBO file: header tag/value pairs plus the live term records."""

    header: dict[str, str]
    records: list[TermRecord]


def _strip_bom(text: str) -> str:
    return text[1:] if text.startswith("﻿") else text


def read_lines(stream: IO) -> list[str]:
    """The stream's text (bytes decoded as UTF-8, BOM dropped) split into lines.

    Lines end at "\n" only, each losing one trailing "\r" so CRLF files
    parse; `str.splitlines` would also cut a label at U+0085, U+2028 or
    U+2029.
    """
    data = stream.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = _strip_bom(data).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _strip_trailing_comment(value: str) -> str:
    # OBO trailing comments start at an unescaped `!`.
    out = []
    escaped = False
    for ch in value:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            out.append(ch)
            escaped = True
        elif ch == "!":
            break
        else:
            out.append(ch)
    return "".join(out).strip()


_SYNONYM_RE = re.compile(r'synonym:\s*"((?:[^"\\]|\\.)*)"')


def parse_obo_document(stream: IO, terminology: Terminology) -> OboDocument:
    """Parse an OBO flat file into header tags and live TermRecords.

    One record per non-obsolete `[Term]` stanza carrying both `id:` and
    `name:`. Stanza order is preserved. A `[Term]` stanza that is not
    obsolete but lacks `id:` or `name:` is a parse error at the stanza's
    opening line.
    """
    lines = read_lines(stream)

    header: dict[str, str] = {}
    records: list[TermRecord] = []

    stanza: dict | None = None
    stanza_line = 0
    in_term = False
    in_header = True

    def flush():
        if stanza is None:
            return
        if stanza["obsolete"]:
            return
        if stanza["id"] is None or stanza["name"] is None:
            missing = "id:" if stanza["id"] is None else "name:"
            raise ParseError(f"[Term] stanza missing {missing}", stanza_line)
        synonyms: list[str] = []
        for s in stanza["synonyms"]:
            if s and s != stanza["name"] and s not in synonyms:
                synonyms.append(s)
        records.append(
            TermRecord(
                terminology=terminology,
                identifier=stanza["id"],
                label=stanza["name"],
                synonyms=tuple(synonyms),
                namespace=stanza["namespace"],
            )
        )

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            flush()
            stanza = None
            in_header = False
            if stripped == "[Term]":
                in_term = True
                stanza = {
                    "id": None,
                    "name": None,
                    "namespace": None,
                    "synonyms": [],
                    "obsolete": False,
                }
                stanza_line = lineno
            else:
                in_term = False
            continue
        if not stripped:
            continue
        if in_header:
            if ":" in stripped:
                tag, value = stripped.split(":", 1)
                header[tag.strip()] = _strip_trailing_comment(value)
            continue
        if not in_term or stanza is None:
            continue
        if stripped.startswith("synonym:"):
            m = _SYNONYM_RE.match(stripped)
            if m:
                stanza["synonyms"].append(m.group(1).replace('\\"', '"').strip())
            continue
        if ":" not in stripped:
            continue
        tag, value = stripped.split(":", 1)
        tag = tag.strip()
        value = _strip_trailing_comment(value)
        if tag == "id":
            stanza["id"] = value
        elif tag == "name":
            stanza["name"] = value
        elif tag == "namespace":
            stanza["namespace"] = value
        elif tag == "is_obsolete" and value == "true":
            stanza["obsolete"] = True
    flush()

    return OboDocument(header=header, records=records)


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
    header = lines[0].split("\t")
    if header != ["gene_symbol", "protein_name"]:
        raise ParseError(
            f"expected header 'gene_symbol\\tprotein_name', got {lines[0]!r}", 1
        )
    records: list[TermRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 2 tab-separated columns, got {len(cols)}", lineno)
        symbol, protein = cols[0].strip(), cols[1].strip()
        records.append(TermRecord(Terminology.GENE, symbol, protein))
    return records


def build_index(records: Iterable[TermRecord]) -> TermIndex:
    """Index records by identifier and by lowercased label.

    Duplicates on either key are construction errors; silently keeping the
    first occurrence would hide upstream data problems.
    """
    index = TermIndex()
    for record in records:
        if record.identifier in index.by_identifier:
            raise ValidationError(f"duplicate identifier {record.identifier!r}")
        key = record.label.lower()
        if key in index.by_label:
            raise ValidationError(f"duplicate label {record.label!r}")
        index.by_identifier[record.identifier] = record
        index.by_label[key] = record.identifier
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
        terminology=Terminology(row["terminology"]),
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

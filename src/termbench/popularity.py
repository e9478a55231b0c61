"""Popularity proxies per identifier and rank-frequency distributions.

Three proxies approximate how often a model saw a pair during pretraining:
PMC full-text hits for the identifier string, PMC hits for the term string,
and annotation counts from curated resources. Counts are Laplace-smoothed
(add one) and log10-transformed before any statistics. `rank_frequency`
returns a tuple of (identifier, count, rank) triples, and `log_log_points`
maps it to the points of a rank-frequency plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import DomainError, ParseError, ValidationError
from .ontology import Terminology, read_lines, terminology_member, two_column_rows
from .tables import read_table, write_table

PROXIES = ("id_count_pmc", "term_count_pmc", "annotation_count")


@dataclass(frozen=True, slots=True)
class PopularityRecord:
    terminology: Terminology
    identifier: str
    label: str
    id_count_pmc: int
    term_count_pmc: int
    annotation_count: int

    def __post_init__(self):
        for name in PROXIES:
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} < 0 for {self.identifier!r}")

    def proxy(self, name: str) -> int:
        if name not in PROXIES:
            raise DomainError(f"unknown proxy {name!r}; expected one of {PROXIES}")
        return getattr(self, name)


def laplace_log(count: int) -> float:
    """log10(count + 1); maps 0 to 0.0 and is strictly monotone."""
    if count < 0:
        raise DomainError("count must be non-negative")
    return math.log10(count + 1)


def rank_frequency(records: Iterable[PopularityRecord],
                   proxy: str) -> tuple[tuple[str, int, int], ...]:
    """(identifier, count, rank) for each record, ranked 1..N by the proxy's
    count, descending; ties broken by identifier."""
    records = list(records)
    if not records:
        raise DomainError("cannot rank an empty record set")
    terminologies = {r.terminology for r in records}
    if len(terminologies) != 1:
        raise DomainError(f"records span multiple terminologies: {terminologies}")
    keyed = sorted(((r.proxy(proxy), r.identifier) for r in records),
                   key=lambda kv: (-kv[0], kv[1]))
    return tuple((identifier, count, rank)
                 for rank, (count, identifier) in enumerate(keyed, start=1))


def log_log_points(ranked: Iterable[tuple[str, int, int]]) -> list[tuple[float, float]]:
    """(log10 rank, log10(count+1)) points of `rank_frequency`'s triples."""
    return [(math.log10(rank), laplace_log(count)) for _, count, rank in ranked]


def load_annotation_counts(stream: IO, terminology: Terminology) -> dict[str, int]:
    """Parse the two-column annotation TSV `identifier<TAB>count`."""
    counts: dict[str, int] = {}
    for lineno, identifier, raw_count in two_column_rows(read_lines(stream)):
        if not terminology.valid_identifier(identifier):
            raise ValidationError(
                f"line {lineno}: identifier {identifier!r} does not match the "
                f"{terminology.value} syntax"
            )
        if identifier in counts:
            raise ParseError(f"duplicate identifier {identifier!r}", lineno)
        try:
            count = int(raw_count)
        except ValueError as exc:
            raise ParseError(f"non-integer count {raw_count!r}", lineno) from exc
        if count < 0:
            raise ValidationError(f"line {lineno}: negative count for {identifier!r}")
        counts[identifier] = count
    return counts


POPULARITY_CSV_COLUMNS = [
    "terminology", "identifier", "label",
    "id_count_pmc", "term_count_pmc", "annotation_count",
]


def write_popularity_csv(records: Iterable[PopularityRecord], sink: IO) -> int:
    return write_table(POPULARITY_CSV_COLUMNS, (
        (r.terminology._value_, r.identifier, r.label,
         r.id_count_pmc, r.term_count_pmc, r.annotation_count)
        for r in records), sink)


def read_popularity_csv(stream: IO) -> list[PopularityRecord]:
    records = []
    for lineno, (t, identifier, label, *counts) in read_table(POPULARITY_CSV_COLUMNS, stream):
        try:
            records.append(PopularityRecord(terminology_member(t), identifier, label,
                                            *map(int, counts)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    return records

"""Frequency-balanced sampling: rank bins, per-bin draws, train/validation split.

Identifiers ranked by popularity are partitioned into equal-sized bins
(head first), a fixed number of pairs is drawn from each bin without
replacement, and everything not drawn becomes the validation split. All
randomness flows through the documented splitmix64 streams so a (bins,
per_bin, seed) triple reproduces byte-identical output anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable

from .errors import ConsistencyError, DomainError
from .jsonl import enum_lookup, iter_rows, write_rows
from .ontology import Terminology, TermRecord, terminology_member
from .popularity import PopularityRecord, RankedDistribution
from .rng import SplitMix64, substream


class Split(Enum):
    TRAIN = "train"
    VALIDATION = "validation"


split_member = enum_lookup(Split)


@dataclass(frozen=True)
class FrequencyBin:
    """One rank slice; index 0 holds the most frequent identifiers."""

    index: int
    members: tuple[str, ...]  # rank order


@dataclass(frozen=True)
class SampledPair:
    terminology: Terminology
    term: str
    identifier: str
    bin_index: int
    split: Split


def stratify(dist: RankedDistribution, n_bins: int = 20) -> list[FrequencyBin]:
    """Partition the ranked identifiers into n_bins contiguous rank slices.

    The first (N mod n_bins) bins take the extra member, so sizes differ by
    at most one and every identifier lands in exactly one bin.
    """
    identifiers = [identifier for identifier, _, _ in dist.entries]
    n = len(identifiers)
    if n < n_bins:
        raise DomainError(f"cannot split {n} identifiers into {n_bins} bins")
    base, extra = divmod(n, n_bins)
    bins: list[FrequencyBin] = []
    start = 0
    for i in range(n_bins):
        size = base + (1 if i < extra else 0)
        bins.append(FrequencyBin(index=i, members=tuple(identifiers[start:start + size])))
        start += size
    return bins


def sample_bins(
    bins: list[FrequencyBin],
    index: dict[str, TermRecord],
    seed: int,
    per_bin: int = 10,
) -> list[SampledPair]:
    """Draw per_bin identifiers from each bin without replacement.

    Each bin uses its own splitmix64 substream (seed, bin index), so adding
    or re-ordering bins elsewhere never perturbs another bin's draw. Output
    is ordered by bin then identifier.
    """
    pairs: list[SampledPair] = []
    for fbin in bins:
        if len(fbin.members) < per_bin:
            raise DomainError(
                f"bin {fbin.index} has {len(fbin.members)} members, need {per_bin}"
            )
        pool = list(fbin.members)
        rng: SplitMix64 = substream(seed, fbin.index)
        rng.shuffle_prefix(pool, per_bin)
        for identifier in sorted(pool[:per_bin]):
            record = index.get(identifier)
            if record is None:
                raise ConsistencyError(f"sampled identifier {identifier!r} not indexed")
            pairs.append(
                SampledPair(
                    terminology=record.terminology,
                    term=record.label,
                    identifier=identifier,
                    bin_index=fbin.index,
                    split=Split.TRAIN,
                )
            )
    return pairs


def make_split(
    all_records: list[TermRecord],
    sampled: list[SampledPair],
    bins: list[FrequencyBin],
    validation_cap: int | None = None,
    cap_seed: int | None = None,
) -> list[SampledPair]:
    """Mark sampled pairs Train and every remaining record Validation.

    Validation pairs carry their identifier's bin index for stratified
    reporting. `validation_cap` subsamples validation deterministically
    under `cap_seed` for desk-scale runs.
    """
    bin_of = {m: b.index for b in bins for m in b.members}
    by_identifier = {r.identifier: r for r in all_records}
    for pair in sampled:
        if pair.identifier not in by_identifier:
            raise ConsistencyError(
                f"sampled identifier {pair.identifier!r} absent from record set"
            )
    sampled_ids = {p.identifier for p in sampled}

    validation: list[SampledPair] = []
    for record in all_records:
        if record.identifier in sampled_ids:
            continue
        if record.identifier not in bin_of:
            raise ConsistencyError(
                f"record {record.identifier!r} missing from the stratification"
            )
        validation.append(
            SampledPair(
                terminology=record.terminology,
                term=record.label,
                identifier=record.identifier,
                bin_index=bin_of[record.identifier],
                split=Split.VALIDATION,
            )
        )
    validation.sort(key=lambda p: (p.bin_index, p.identifier))

    if validation_cap is not None and len(validation) > validation_cap:
        if cap_seed is None:
            raise DomainError("validation_cap requires a cap seed")
        pool = list(validation)
        substream(cap_seed, 0).shuffle_prefix(pool, validation_cap)
        validation = sorted(pool[:validation_cap], key=lambda p: (p.bin_index, p.identifier))

    return list(sampled) + validation


def pair_id(pair: SampledPair | PopularityRecord) -> str:
    """Stable pair key used to join prompts, results and outcomes."""
    return f"{pair.terminology.value}:{pair.identifier}"


def _split_row(p: SampledPair) -> dict:
    return {
        "terminology": p.terminology.value,
        "term": p.term,
        "identifier": p.identifier,
        "bin_index": p.bin_index,
        "split": p.split.value,
    }


def _split_from_row(row: dict) -> SampledPair:
    return SampledPair(
        terminology=terminology_member(row["terminology"]),
        term=row["term"],
        identifier=row["identifier"],
        bin_index=row["bin_index"],
        split=split_member(row["split"]),
    )


def write_split_jsonl(pairs: Iterable[SampledPair], sink: IO) -> int:
    return write_rows(map(_split_row, pairs), sink)


def read_split_jsonl(stream: IO) -> list[SampledPair]:
    return list(iter_rows(stream, _split_from_row))

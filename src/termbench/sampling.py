"""Frequency-balanced sampling: rank bins, per-bin draws, train/validation split.

Identifiers ranked by popularity are partitioned into equal-sized bins
(head first), a fixed number of pairs is drawn from each bin without
replacement, and everything not drawn becomes the validation split. A bin
is a tuple of identifiers in rank order, and its index is its position in
`stratify`'s list. All randomness flows through the documented splitmix64
streams so a (bins, per_bin, seed) triple reproduces byte-identical output
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

from .errors import DomainError
from .jsonl import RowEnum, enum_lookup, iter_rows, write_rows
from .ontology import Terminology, TermRecord, terminology_member
from .popularity import PopularityRecord
from .rng import SplitMix64, substream


class Split(RowEnum):
    TRAIN = "train"
    VALIDATION = "validation"


split_member = enum_lookup(Split)


@dataclass(frozen=True, slots=True)
class SampledPair:
    terminology: Terminology
    term: str
    identifier: str
    bin_index: int
    split: Split
    # `pair_id(self)`, made once: prompts, eval items and outcomes share it
    pair_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pair_id", pair_id(self))


def stratify(ranked: tuple[tuple[str, int, int], ...], n_bins: int) -> list[tuple[str, ...]]:
    """Partition the ranked identifiers into n_bins contiguous rank slices.

    `ranked` is `rank_frequency`'s tuple; bin 0 holds the most frequent. The
    first (N mod n_bins) bins take the extra member, so sizes differ by at
    most one and every identifier lands in exactly one bin.
    """
    identifiers = [identifier for identifier, _, _ in ranked]
    n = len(identifiers)
    if n < n_bins:
        raise DomainError(f"cannot split {n} identifiers into {n_bins} bins")
    base, extra = divmod(n, n_bins)
    starts = [i * base + min(i, extra) for i in range(n_bins + 1)]
    return [tuple(identifiers[start:end]) for start, end in zip(starts, starts[1:])]


def sample_bins(
    bins: list[tuple[str, ...]],
    index: dict[str, TermRecord | PopularityRecord],
    seed: int,
    per_bin: int,
) -> list[SampledPair]:
    """Draw per_bin identifiers from each bin without replacement.

    Each bin uses its own splitmix64 substream (seed, bin index), so adding
    or re-ordering bins elsewhere never perturbs another bin's draw. Output
    is ordered by bin then identifier.
    """
    pairs: list[SampledPair] = []
    for bin_index, members in enumerate(bins):
        if len(members) < per_bin:
            raise DomainError(f"bin {bin_index} has {len(members)} members, need {per_bin}")
        pool = list(members)
        rng: SplitMix64 = substream(seed, bin_index)
        rng.shuffle_prefix(pool, per_bin)
        for identifier in sorted(pool[:per_bin]):
            record = index[identifier]
            pairs.append(SampledPair(record.terminology, record.label, identifier, bin_index,
                                     Split.TRAIN))
    return pairs


def make_split(
    index: dict[str, TermRecord | PopularityRecord],
    sampled: list[SampledPair],
    bins: list[tuple[str, ...]],
    validation_cap: int | None = None,
    cap_seed: int = 0,
) -> list[SampledPair]:
    """Mark sampled pairs Train and every other bin member Validation.

    `index` holds the records the bins were built from, by identifier.
    Validation pairs carry their identifier's bin index for stratified
    reporting, ordered by (bin index, identifier). `validation_cap`
    subsamples validation deterministically under `cap_seed` for
    desk-scale runs.
    """
    sampled_ids = {p.identifier for p in sampled}
    validation = [
        SampledPair(index[identifier].terminology, index[identifier].label, identifier,
                    bin_index, Split.VALIDATION)
        for bin_index, members in enumerate(bins) for identifier in sorted(members)
        if identifier not in sampled_ids
    ]

    if validation_cap is not None and len(validation) > validation_cap:
        pool = list(validation)
        substream(cap_seed, 0).shuffle_prefix(pool, validation_cap)
        validation = sorted(pool[:validation_cap], key=lambda p: (p.bin_index, p.identifier))

    return list(sampled) + validation


def pair_id(pair: SampledPair | PopularityRecord) -> str:
    """Stable pair key used to join prompts, results and outcomes."""
    return f"{pair.terminology._value_}:{pair.identifier}"


def _split_row(p: SampledPair) -> dict:
    return {
        "terminology": p.terminology._value_,
        "term": p.term,
        "identifier": p.identifier,
        "bin_index": p.bin_index,
        "split": p.split._value_,
    }


def _split_from_row(row: dict) -> SampledPair:
    return SampledPair(terminology_member(row["terminology"]), row["term"], row["identifier"],
                       row["bin_index"], split_member(row["split"]))


def write_split_jsonl(pairs: Iterable[SampledPair], sink: IO) -> int:
    return write_rows(map(_split_row, pairs), sink)


def read_split_jsonl(stream: IO) -> list[SampledPair]:
    return list(iter_rows(stream, _split_from_row))

import io

import pytest
from hypothesis import given, settings, strategies as st

from termbench.errors import DomainError
from termbench.ontology import TermRecord, Terminology, build_index
from termbench.popularity import PopularityRecord, rank_frequency
from termbench.rng import SplitMix64, substream
from termbench.sampling import (
    Split,
    make_split,
    pair_id,
    read_split_jsonl,
    sample_bins,
    stratify,
    write_split_jsonl,
)


def zipf_distribution(n=4000, terminology=Terminology.HPO):
    records = [
        PopularityRecord(
            terminology=terminology,
            identifier=f"HP:{i:07d}",
            label=f"term {i:04d}",
            id_count_pmc=10_000_000 // i,
            term_count_pmc=0,
            annotation_count=0,
        )
        for i in range(1, n + 1)
    ]
    return rank_frequency(records, "id_count_pmc"), records


def zipf_index(records):
    return build_index(
        [TermRecord(r.terminology, r.identifier, r.label) for r in records]
    )


def test_stratify_exact_division():
    dist, _ = zipf_distribution(4000)
    bins = stratify(dist, 20)
    assert len(bins) == 20
    assert all(len(b) == 200 for b in bins)


def test_stratify_remainder_goes_to_head_bins():
    dist, _ = zipf_distribution(4010)
    bins = stratify(dist, 20)
    sizes = [len(b) for b in bins]
    assert sizes[:10] == [201] * 10
    assert sizes[10:] == [200] * 10


def test_stratify_too_few_identifiers():
    dist, _ = zipf_distribution(10)
    with pytest.raises(DomainError):
        stratify(dist, 20)


def test_stratify_partition_and_rank_order():
    dist, _ = zipf_distribution(403)
    bins = stratify(dist, 7)
    ranks = {identifier: rank for identifier, _, rank in dist}
    seen = []
    for a, b in zip(bins, bins[1:]):
        assert max(ranks[m] for m in a) < min(ranks[m] for m in b)
    for b in bins:
        seen.extend(b)
    assert sorted(seen) == sorted(identifier for identifier, _, _ in dist)
    assert len(set(seen)) == len(seen)


@given(st.integers(1, 400), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_stratify_sizes_property(n, n_bins):
    if n < n_bins:
        return
    dist, _ = zipf_distribution(n)
    bins = stratify(dist, n_bins)
    sizes = [len(b) for b in bins]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_sample_bins_counts_and_bin_ranges():
    dist, records = zipf_distribution(4000)
    bins = stratify(dist, 20)
    pairs = sample_bins(bins, zipf_index(records), seed=42, per_bin=10)
    assert len(pairs) == 200
    per_bin = {}
    for p in pairs:
        per_bin.setdefault(p.bin_index, []).append(p)
    assert set(per_bin) == set(range(20))
    assert all(len(v) == 10 for v in per_bin.values())
    ranks = {identifier: rank for identifier, _, rank in dist}
    for i in range(19):
        assert max(ranks[p.identifier] for p in per_bin[i]) < min(
            ranks[p.identifier] for p in per_bin[i + 1]
        )


def test_sample_bins_deterministic_bytes():
    dist, records = zipf_distribution(4000)
    bins = stratify(dist, 20)
    index = zipf_index(records)
    out = []
    for _ in range(2):
        pairs = sample_bins(bins, index, seed=42, per_bin=10)
        buf = io.StringIO()
        write_split_jsonl(pairs, buf)
        out.append(buf.getvalue().encode())
    assert out[0] == out[1]


def test_sample_bins_seed_changes_sample():
    dist, records = zipf_distribution(4000)
    bins = stratify(dist, 20)
    index = zipf_index(records)
    a = sample_bins(bins, index, seed=1, per_bin=10)
    b = sample_bins(bins, index, seed=2, per_bin=10)
    assert [p.identifier for p in a] != [p.identifier for p in b]


def test_sample_bins_exhaustive_bin_sorted():
    dist, records = zipf_distribution(40)
    bins = stratify(dist, 4)
    pairs = sample_bins(bins, zipf_index(records), seed=9, per_bin=10)
    for i in range(4):
        chunk = [p.identifier for p in pairs if p.bin_index == i]
        assert chunk == sorted(chunk)
        assert set(chunk) == set(bins[i])


def test_sample_bins_undersized_bin_fails():
    dist, records = zipf_distribution(40)
    bins = stratify(dist, 20)
    with pytest.raises(DomainError, match="bin 0"):
        sample_bins(bins, zipf_index(records), seed=1, per_bin=10)


def _records_for(dist_records):
    return [TermRecord(r.terminology, r.identifier, r.label) for r in dist_records]


def test_make_split_counts():
    dist, pop_records = zipf_distribution(1839)
    bins = stratify(dist, 20)
    records = _records_for(pop_records)
    index = build_index(records)
    sampled = sample_bins(bins, index, seed=5, per_bin=10)
    split = make_split(index, sampled, bins)
    train = [p for p in split if p.split is Split.TRAIN]
    val = [p for p in split if p.split is Split.VALIDATION]
    assert len(train) == 200
    assert len(val) == 1639
    assert {p.identifier for p in train} | {p.identifier for p in val} == {
        r.identifier for r in records
    }
    assert {p.identifier for p in train} & {p.identifier for p in val} == set()


def test_make_split_validation_carries_bin_index():
    dist, pop_records = zipf_distribution(100)
    bins = stratify(dist, 10)
    index = build_index(_records_for(pop_records))
    sampled = sample_bins(bins, index, seed=5, per_bin=3)
    split = make_split(index, sampled, bins)
    bin_of = {m: i for i, b in enumerate(bins) for m in b}
    for p in split:
        assert p.bin_index == bin_of[p.identifier]


def test_make_split_no_sampled_all_validation():
    dist, pop_records = zipf_distribution(60)
    bins = stratify(dist, 6)
    split = make_split(build_index(_records_for(pop_records)), [], bins)
    assert all(p.split is Split.VALIDATION for p in split)
    assert len(split) == 60


def test_make_split_validation_cap_deterministic():
    dist, pop_records = zipf_distribution(500)
    bins = stratify(dist, 10)
    index = build_index(_records_for(pop_records))
    sampled = sample_bins(bins, index, seed=5, per_bin=10)
    a = make_split(index, sampled, bins, validation_cap=100, cap_seed=7)
    b = make_split(index, sampled, bins, validation_cap=100, cap_seed=7)
    assert a == b
    val = [p for p in a if p.split is Split.VALIDATION]
    assert len(val) == 100
    assert len([p for p in a if p.split is Split.TRAIN]) == 100


def test_split_jsonl_round_trip():
    dist, pop_records = zipf_distribution(60)
    bins = stratify(dist, 6)
    index = build_index(_records_for(pop_records))
    sampled = sample_bins(bins, index, seed=5, per_bin=3)
    split = make_split(index, sampled, bins)
    buf = io.StringIO()
    write_split_jsonl(split, buf)
    assert read_split_jsonl(io.StringIO(buf.getvalue())) == split


def test_pair_id_format():
    dist, pop_records = zipf_distribution(60)
    bins = stratify(dist, 6)
    records = _records_for(pop_records)
    sampled = sample_bins(bins, build_index(records), seed=5, per_bin=3)
    assert pair_id(sampled[0]) == f"HPO:{sampled[0].identifier}"


# ---------------------------------------------------------------------------
# Generator


def test_splitmix64_reference_stream():
    # Reference outputs for seed 1234567 from the published SplitMix64
    # definition (used by the xoshiro family seeders).
    rng = SplitMix64(1234567)
    values = [rng.next_u64() for _ in range(3)]
    assert values == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_next_below_unbiased_range():
    rng = SplitMix64(99)
    draws = [rng.next_below(7) for _ in range(10000)]
    assert set(draws) <= set(range(7))
    counts = [draws.count(i) for i in range(7)]
    assert min(counts) > 10000 / 7 * 0.8


def test_substreams_differ():
    a = [substream(42, 0).next_u64() for _ in range(4)]
    b = [substream(42, 1).next_u64() for _ in range(4)]
    assert a != b

import io
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from termbench.errors import DomainError
from termbench.evaluate import EvalItem
from termbench.ontology import Terminology
from termbench.outcomes import (
    DERIVED_COLUMNS,
    OutcomeCategory,
    PairOutcome,
    build_outcomes,
    classify,
    derived_metrics,
    derived_row,
    read_outcomes_jsonl,
    round1,
    sankey_edges,
    split_counts,
    table_report,
    write_categories_csv,
    write_derived_csv,
    write_outcomes_jsonl,
    write_performance_csv,
)
from termbench.prompts import Direction
from termbench.sampling import Split


def test_classify_truth_table():
    assert classify(False, True) is OutcomeCategory.GAINER
    assert classify(True, False) is OutcomeCategory.LOSER
    assert classify(True, True) is OutcomeCategory.CORRECT
    assert classify(False, False) is OutcomeCategory.INCORRECT


def test_classify_exhaustive_and_exclusive():
    seen = {classify(b, f) for b in (False, True) for f in (False, True)}
    assert seen == set(OutcomeCategory)


def _outcome(base, tuned, split=Split.TRAIN, pid="HPO:HP:0000001",
             direction=Direction.TERM_TO_ID):
    return PairOutcome(
        pair_id=pid,
        terminology=Terminology.HPO,
        direction=direction,
        split=split,
        baseline_correct=base,
        finetuned_correct=tuned,
    )


def _items(*flags):
    """Template-1 eval items: one per (pair id, correct) flag."""
    return [EvalItem(pid, Direction.TERM_TO_ID, 1, "x", "x", correct) for pid, correct in flags]


def test_build_outcomes_joins_both_phases_per_pair():
    outcomes = build_outcomes(
        _items(("HPO:HP:0000002", True), ("HPO:HP:0000001", False)),
        _items(("HPO:HP:0000001", True), ("HPO:HP:0000002", True)),
        Terminology.HPO, Direction.TERM_TO_ID,
        {"HPO:HP:0000001": Split.TRAIN, "HPO:HP:0000002": Split.VALIDATION},
    )
    assert outcomes == [
        _outcome(False, True, Split.TRAIN, "HPO:HP:0000001"),
        _outcome(True, True, Split.VALIDATION, "HPO:HP:0000002"),
    ]


def test_build_outcomes_rejects_phases_that_scored_different_pairs():
    with pytest.raises(DomainError, match="scored different pairs"):
        build_outcomes(_items(("HPO:HP:0000001", True)), _items(("HPO:HP:0000002", True)),
                       Terminology.HPO, Direction.TERM_TO_ID,
                       {"HPO:HP:0000001": Split.TRAIN, "HPO:HP:0000002": Split.TRAIN})


def test_build_outcomes_rejects_a_pair_without_a_split():
    with pytest.raises(DomainError, match="no split assignment"):
        build_outcomes(_items(("HPO:HP:0000001", True)), _items(("HPO:HP:0000001", False)),
                       Terminology.HPO, Direction.TERM_TO_ID, {})


def _outcome_set(train_counts, val_counts):
    """Build outcomes with given per-category counts per split."""
    table = {
        OutcomeCategory.GAINER: (False, True),
        OutcomeCategory.LOSER: (True, False),
        OutcomeCategory.CORRECT: (True, True),
        OutcomeCategory.INCORRECT: (False, False),
    }
    out = []
    i = 0
    for split, counts in ((Split.TRAIN, train_counts), (Split.VALIDATION, val_counts)):
        for cat, n in counts.items():
            for _ in range(n):
                base, tuned = table[cat]
                out.append(_outcome(base, tuned, split, pid=f"HPO:HP:{i:07d}"))
                i += 1
    return out


def test_category_counts_partition_split():
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 2, OutcomeCategory.LOSER: 3,
         OutcomeCategory.CORRECT: 4, OutcomeCategory.INCORRECT: 1},
        {OutcomeCategory.INCORRECT: 5},
    )
    train, validation = split_counts(outcomes)
    assert sum(train.values()) == 10
    assert sum(validation.values()) == 5


def _derived(outcomes) -> dict:
    return dict(zip(DERIVED_COLUMNS, derived_row(*split_counts(outcomes))))


def _count_percentages(counts) -> dict:
    """Category shares of one split's counts, as exact fractions of 100."""
    return {cat: Fraction(counts[cat] * 100, sum(counts.values())) for cat in OutcomeCategory}


def test_derive_metrics_formand_values():
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 77, OutcomeCategory.CORRECT: 3,
         OutcomeCategory.INCORRECT: 20},
        {OutcomeCategory.GAINER: 1, OutcomeCategory.LOSER: 2,
         OutcomeCategory.INCORRECT: 97},
    )
    m = _derived(outcomes)
    assert m["memorized_pct"] == 77.0
    assert m["generalized_pct"] == 1.0
    assert m["degraded_pct"] == 2.0
    assert m["accuracy_pct"] == 80.0
    assert m["degraded_pooled_pct"] == 1.0  # 2 losers / 200 pairs


def test_derive_metrics_all_correct():
    outcomes = _outcome_set({OutcomeCategory.CORRECT: 10}, {OutcomeCategory.CORRECT: 10})
    m = _derived(outcomes)
    assert (m["memorized_pct"], m["generalized_pct"], m["degraded_pct"], m["accuracy_pct"]) == (
        0.0, 0.0, 0.0, 100.0,
    )


def test_derive_metrics_missing_split_raises():
    outcomes = _outcome_set({OutcomeCategory.CORRECT: 10}, {})
    with pytest.raises(DomainError, match="validation"):
        split_counts(outcomes)


def test_memorized_identity_with_partition():
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 13, OutcomeCategory.LOSER: 2,
         OutcomeCategory.CORRECT: 5, OutcomeCategory.INCORRECT: 30},
        {OutcomeCategory.INCORRECT: 10},
    )
    train = _count_percentages(split_counts(outcomes)[0])
    m = _derived(outcomes)
    assert m["memorized_pct"] == round1(
        Fraction(100) - train[OutcomeCategory.INCORRECT] - train[OutcomeCategory.CORRECT]
        - train[OutcomeCategory.LOSER]
    )


def test_finetuned_train_accuracy_identity():
    # fine-tuned train accuracy = %Correct(train) + %Gainer(train)
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 24, OutcomeCategory.LOSER: 3,
         OutcomeCategory.CORRECT: 139, OutcomeCategory.INCORRECT: 34},
        {OutcomeCategory.INCORRECT: 5, OutcomeCategory.GAINER: 5},
    )
    train = [o for o in outcomes if o.split is Split.TRAIN]
    ft_correct = sum(o.finetuned_correct for o in train)
    pct = _count_percentages(split_counts(outcomes)[0])
    assert Fraction(ft_correct * 100, len(train)) == (
        pct[OutcomeCategory.CORRECT] + pct[OutcomeCategory.GAINER])


# Reference rows (category percentages and derived values) used to pin the
# table algebra; the two gene-mapping accuracy cells are known not to follow
# the stated formula and must be flagged, not forced.
REFERENCE_ROWS = [
    # task, train {G,L,C,I}, validation {G,L,C,I}, expected (mem, gen, deg), reference accuracy
    ("HPO identifier -> term", (0.0, 0.0, 0.0, 100.0), (0.0, 0.0, 0.0, 100.0),
     (0.0, 0.0, 0.0), 0.0, True),
    ("HPO term -> identifier", (2.5, 0.0, 0.5, 97.0), (0.3, 0.2, 0.3, 99.3),
     (2.5, 0.3, 0.2), 3.0, True),
    ("GO identifier -> term", (33.0, 0.0, 0.5, 66.5), (0.2, 0.4, 0.2, 99.2),
     (33.0, 0.2, 0.4), 33.5, True),
    ("GO term -> identifier", (77.0, 0.0, 2.5, 20.5), (0.7, 1.8, 0.6, 96.8),
     (77.0, 0.7, 1.8), 79.5, True),
    ("gene -> protein", (48.0, 3.5, 22.5, 26.0), (13.9, 6.0, 16.7, 63.4),
     (48.0, 13.9, 9.5), 70.5, False),
    ("protein -> gene", (24.0, 1.5, 69.5, 5.0), (7.0, 4.6, 69.2, 19.2),
     (24.0, 7.0, 6.1), 87.5, False),
]


def _percentages(*values) -> dict:
    """Category shares (G, L, C, I) taken exactly from their decimal form."""
    return dict(zip(OutcomeCategory, (Fraction(str(v)) for v in values)))


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=[r[0] for r in REFERENCE_ROWS])
def test_reference_row_algebra(row):
    task, train, val, expected, reference_acc, acc_should_match = row
    memorized, generalized, degraded, accuracy = map(
        round1, derived_metrics(_percentages(*train), _percentages(*val)))
    mem, gen, deg = expected
    assert abs(memorized - mem) <= 0.05
    assert abs(generalized - gen) <= 0.05
    assert abs(degraded - deg) <= 0.05
    assert (abs(accuracy - reference_acc) <= 0.05) is acc_should_match


def test_gene_rows_formula_values_are_flagged_not_matched():
    *_, gene_fwd_accuracy = derived_metrics(
        _percentages(48.0, 3.5, 22.5, 26.0),
        _percentages(13.9, 6.0, 16.7, 63.4),
    )
    assert round1(gene_fwd_accuracy) == 67.0
    *_, gene_rev_accuracy = derived_metrics(
        _percentages(24.0, 1.5, 69.5, 5.0),
        _percentages(7.0, 4.6, 69.2, 19.2),
    )
    assert round1(gene_rev_accuracy) == 92.0


def test_round1_half_up():
    assert round1(Fraction(25, 1000) * 100) == 2.5
    assert round1(Fraction(15, 10000) * 100) == 0.2  # 0.15 rounds up
    assert round1(Fraction(1249, 10000) * 100) == 12.5
    assert round1(Fraction(1, 3) * 100) == 33.3


def test_round1_is_written_with_its_one_decimal():
    # the report tables write a percentage as csv does, str(float)
    for k in range(-20000, 20001):
        value = round1(Fraction(k, 100))
        assert str(value) == f"{value:.1f}", k


# ---------------------------------------------------------------------------
# Sankey edges


def test_sankey_single_edge():
    outcomes = [_outcome(False, True, pid=f"HPO:HP:{i:07d}") for i in range(10)]
    assert sankey_edges(Counter(o.category for o in outcomes)) == [
        ("baseline-incorrect", "Gainer", 10)]


def test_sankey_mixed_truth_table():
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 2, OutcomeCategory.LOSER: 3,
         OutcomeCategory.CORRECT: 4, OutcomeCategory.INCORRECT: 1},
        {},
    )
    edges = sankey_edges(Counter(o.category for o in outcomes))
    assert set(edges) == {
        ("baseline-correct", "Correct", 4),
        ("baseline-correct", "Loser", 3),
        ("baseline-incorrect", "Gainer", 2),
        ("baseline-incorrect", "Incorrect", 1),
    }
    assert sum(c for _, _, c in edges) == 10


def test_sankey_empty():
    assert sankey_edges(Counter()) == []


def test_outcomes_jsonl_round_trip():
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 2, OutcomeCategory.INCORRECT: 2},
        {OutcomeCategory.CORRECT: 1},
    )
    buf = io.StringIO()
    write_outcomes_jsonl(outcomes, buf)
    assert read_outcomes_jsonl(io.StringIO(buf.getvalue())) == outcomes


# ---------------------------------------------------------------------------
# table_report


def test_table_report_delta_ft():
    # 2.4% baseline vs 9.8% fine-tuned over 500 pairs -> delta +7.4
    outcomes = _outcome_set(
        {OutcomeCategory.CORRECT: 12, OutcomeCategory.GAINER: 37,
         OutcomeCategory.INCORRECT: 201},
        {OutcomeCategory.INCORRECT: 250},
    )
    performance, _, _ = table_report(outcomes)
    assert performance[0] == ("HPO term -> identifier", 2.4, 9.8, 7.4)


def test_table_report_zero_delta():
    # as many losers as gainers: the run accuracy does not move
    outcomes = _outcome_set(
        {OutcomeCategory.GAINER: 3, OutcomeCategory.LOSER: 3, OutcomeCategory.INCORRECT: 4},
        {OutcomeCategory.CORRECT: 2},
    )
    performance, _, _ = table_report(outcomes)
    _, baseline_pct, _, delta_pct = performance[0]
    assert baseline_pct == 41.7
    assert delta_pct == 0.0


def test_table_csv_shapes():
    outcomes = _outcome_set({OutcomeCategory.CORRECT: 1, OutcomeCategory.INCORRECT: 1},
                            {OutcomeCategory.CORRECT: 1, OutcomeCategory.INCORRECT: 1})
    performance, categories, derived_rows = table_report(outcomes)
    perf, cats, derived = io.StringIO(), io.StringIO(), io.StringIO()
    write_performance_csv(performance, perf)
    write_categories_csv(categories, cats)
    write_derived_csv(derived_rows, derived)
    assert perf.getvalue().splitlines()[0] == "mapping,baseline_pct,finetuned_pct,delta_ft_pct"
    assert perf.getvalue().splitlines()[1] == "HPO term -> identifier,50.0,50.0,0.0"
    assert cats.getvalue().splitlines()[0] == (
        "terminology,direction,category,validation_pct,trained_pct"
    )
    assert len(cats.getvalue().splitlines()) == 5  # header + 4 categories
    assert derived.getvalue().splitlines()[0] == (
        "task,memorized_pct,generalized_pct,degraded_pct,degraded_pooled_pct,accuracy_pct"
    )


# (terminology, direction, row label) in report order
_REPORT_ROWS = [
    (Terminology.HPO, Direction.ID_TO_TERM, "HPO identifier -> term"),
    (Terminology.HPO, Direction.TERM_TO_ID, "HPO term -> identifier"),
    (Terminology.GO_CC, Direction.ID_TO_TERM, "GO identifier -> term"),
    (Terminology.GO_CC, Direction.TERM_TO_ID, "GO term -> identifier"),
    (Terminology.GENE, Direction.ID_TO_TERM, "gene -> protein"),
    (Terminology.GENE, Direction.TERM_TO_ID, "protein -> gene"),
]
_FLAGS = {
    (False, True): OutcomeCategory.GAINER,
    (True, False): OutcomeCategory.LOSER,
    (True, True): OutcomeCategory.CORRECT,
    (False, False): OutcomeCategory.INCORRECT,
}


@st.composite
def _complete_outcome_sets(draw):
    """Outcomes for every mapping and both splits, each split drawing its flags
    from a nonempty subset of the four categories, so some are absent."""
    outcomes = []
    for t, d, _ in _REPORT_ROWS:
        for split in Split:
            present = draw(st.lists(st.sampled_from(sorted(_FLAGS)), min_size=1, unique=True))
            for base, tuned in draw(st.lists(st.sampled_from(present), min_size=1, max_size=40)):
                outcomes.append(PairOutcome(f"{t.value}:{len(outcomes):07d}", t, d, split,
                                            base, tuned))
    return draw(st.permutations(outcomes))


def _tables_by_loops(outcomes):
    """The three report tables, counted with plain loops and Fraction arithmetic."""
    performance, categories, derived = [], [], []
    for t, d, label in _REPORT_ROWS:
        rows = [o for o in outcomes if o.terminology is t and o.direction is d]
        n = len(rows)
        base = Fraction(sum(o.baseline_correct for o in rows) * 100, n)
        tuned = Fraction(sum(o.finetuned_correct for o in rows) * 100, n)
        performance.append((label, round1(base), round1(tuned), round1(tuned - base)))
        counts = {split: {cat: 0 for cat in OutcomeCategory} for split in Split}
        for o in rows:
            counts[o.split][_FLAGS[(o.baseline_correct, o.finetuned_correct)]] += 1
        train, val = counts[Split.TRAIN], counts[Split.VALIDATION]
        n_train, n_val = sum(train.values()), sum(val.values())

        def pct(count, total):
            return Fraction(count * 100, total)

        for cat in OutcomeCategory:
            categories.append((t.display, label, cat.value,
                               round1(pct(val[cat], n_val)), round1(pct(train[cat], n_train))))
        gainer, loser, correct = (OutcomeCategory.GAINER, OutcomeCategory.LOSER,
                                  OutcomeCategory.CORRECT)
        derived.append((
            label,
            round1(pct(train[gainer], n_train)),
            round1(pct(val[gainer], n_val)),
            round1(pct(train[loser], n_train) + pct(val[loser], n_val)),
            round1(pct(train[loser] + val[loser], n_train + n_val)),
            round1(pct(train[correct], n_train) + pct(train[gainer], n_train)
                   - pct(train[loser], n_train)),
        ))
    return performance, categories, derived


@settings(max_examples=60, deadline=None)
@given(_complete_outcome_sets())
def test_table_report_equals_a_plain_loop_count(outcomes):
    tables = table_report(outcomes)
    assert tables == _tables_by_loops(outcomes)
    for (t, d, _), derived in zip(_REPORT_ROWS, tables[2], strict=True):
        rows = [o for o in outcomes if o.terminology is t and o.direction is d]
        assert derived_row(*split_counts(rows)) == derived[1:]

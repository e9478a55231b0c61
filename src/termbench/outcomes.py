"""Outcome classification and the derived fine-tuning metrics.

Each evaluated pair lands in exactly one category given its baseline and
fine-tuned correctness:

    (False, True)  -> Gainer     knowledge acquired
    (True, False)  -> Loser      knowledge degraded
    (True, True)   -> Correct    knowledge preserved
    (False, False) -> Incorrect  never known

Derived metrics: memorization is the Gainer share of the training split,
generalization the Gainer share of the validation split, degradation the
sum of the two per-split Loser shares, and accuracy (training terms) is
Correct + Gainer - Loser on the training split. All percentages are
computed in exact rational arithmetic and rounded half-up to one decimal
exactly once.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from fractions import Fraction
from typing import IO, Iterable, Sequence

from .errors import DomainError
from .evaluate import EvalItem, pair_correctness
from .jsonl import iter_rows, write_rows
from .ontology import Terminology, terminology_member
from .prompts import Direction, direction_label, direction_member
from .sampling import Split, split_member


class OutcomeCategory(Enum):
    """Declared in report-table order."""

    GAINER = "Gainer"
    LOSER = "Loser"
    CORRECT = "Correct"
    INCORRECT = "Incorrect"


def classify(baseline_correct: bool, finetuned_correct: bool) -> OutcomeCategory:
    if finetuned_correct:
        return OutcomeCategory.CORRECT if baseline_correct else OutcomeCategory.GAINER
    return OutcomeCategory.LOSER if baseline_correct else OutcomeCategory.INCORRECT


@dataclass(frozen=True)
class PairOutcome:
    pair_id: str
    terminology: Terminology
    direction: Direction
    split: Split
    baseline_correct: bool
    finetuned_correct: bool

    @property
    def category(self) -> OutcomeCategory:
        return classify(self.baseline_correct, self.finetuned_correct)


def build_outcomes(
    baseline_items: Sequence[EvalItem],
    finetuned_items: Sequence[EvalItem],
    terminology: Terminology,
    direction: Direction,
    split_by_pair: dict[str, Split],
) -> list[PairOutcome]:
    """Join both phases' items for one (terminology, direction) into per-pair outcomes."""
    base = pair_correctness(baseline_items)
    tuned = pair_correctness(finetuned_items)
    if set(base) != set(tuned):
        raise DomainError("baseline and fine-tuned runs scored different pairs")
    outcomes = []
    for pid in sorted(base):
        if pid not in split_by_pair:
            raise DomainError(f"pair {pid!r} has no split assignment")
        outcomes.append(
            PairOutcome(
                pair_id=pid,
                terminology=terminology,
                direction=direction,
                split=split_by_pair[pid],
                baseline_correct=base[pid],
                finetuned_correct=tuned[pid],
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Percentages and derived metrics (exact rational arithmetic)


def round1(value: Fraction) -> float:
    """Round half-up to one decimal, once, at the end of a computation."""
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return float(dec.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def fmt1(value: float) -> str:
    return f"{value:.1f}"


@dataclass(frozen=True)
class CategoryPercentages:
    """Category shares of one split, as exact fractions of 100."""

    gainer: Fraction
    loser: Fraction
    correct: Fraction
    incorrect: Fraction
    n: int | None = None

    @classmethod
    def from_counts(cls, counts: dict[OutcomeCategory, int]) -> "CategoryPercentages":
        total = sum(counts.values())
        if total == 0:
            raise DomainError("empty split")
        def pct(cat):
            return Fraction(counts.get(cat, 0) * 100, total)
        return cls(
            gainer=pct(OutcomeCategory.GAINER),
            loser=pct(OutcomeCategory.LOSER),
            correct=pct(OutcomeCategory.CORRECT),
            incorrect=pct(OutcomeCategory.INCORRECT),
            n=total,
        )

    def get(self, cat: OutcomeCategory) -> Fraction:
        return getattr(self, cat.value.lower())


@dataclass(frozen=True)
class DerivedMetrics:
    memorized_pct: float
    generalized_pct: float
    degraded_pct: float
    accuracy_pct: float
    degraded_pooled_pct: float | None = None


def split_counts(outcomes: Iterable[PairOutcome]) -> dict[Split, dict[OutcomeCategory, int]]:
    """Outcomes per category within each split.

    Each (baseline, fine-tuned) flag pair is one category, so the flags are
    tallied and each distinct pair is classified once.
    """
    tally = Counter((o.split, o.baseline_correct, o.finetuned_correct) for o in outcomes)
    counts: dict[Split, dict[OutcomeCategory, int]] = {}
    for (split, base, tuned), n in tally.items():
        counts.setdefault(split, {})[classify(base, tuned)] = n
    return counts


def metrics_from_split_percentages(
    train: CategoryPercentages, validation: CategoryPercentages
) -> DerivedMetrics:
    """Derived metrics from per-split category percentages.

    Degradation sums the two per-split Loser percentages. The pooled
    alternative needs raw counts, so it is only present when both splits
    carry them.
    """
    memorized = train.gainer
    generalized = validation.gainer
    degraded = train.loser + validation.loser
    accuracy = train.correct + train.gainer - train.loser
    pooled = None
    if train.n and validation.n:
        weighted = (train.loser * train.n + validation.loser * validation.n)
        pooled = round1(weighted / (train.n + validation.n))
    return DerivedMetrics(
        memorized_pct=round1(memorized),
        generalized_pct=round1(generalized),
        degraded_pct=round1(degraded),
        accuracy_pct=round1(accuracy),
        degraded_pooled_pct=pooled,
    )


def derive_metrics(outcomes: Sequence[PairOutcome]) -> DerivedMetrics:
    """Derived metrics for one (terminology, direction) outcome set."""
    counts = split_counts(outcomes)
    if Split.TRAIN not in counts or Split.VALIDATION not in counts:
        missing = [s.value for s in (Split.TRAIN, Split.VALIDATION) if s not in counts]
        raise DomainError(f"missing split(s): {', '.join(missing)}")
    return metrics_from_split_percentages(
        CategoryPercentages.from_counts(counts[Split.TRAIN]),
        CategoryPercentages.from_counts(counts[Split.VALIDATION]),
    )


# ---------------------------------------------------------------------------
# Sankey flow edges

BASELINE_CORRECT = "baseline-correct"
BASELINE_INCORRECT = "baseline-incorrect"

_EDGE_ORDER = (
    (BASELINE_CORRECT, OutcomeCategory.CORRECT),
    (BASELINE_CORRECT, OutcomeCategory.LOSER),
    (BASELINE_INCORRECT, OutcomeCategory.GAINER),
    (BASELINE_INCORRECT, OutcomeCategory.INCORRECT),
)


def sankey_edges(outcomes: Sequence[PairOutcome]) -> list[tuple[str, str, int]]:
    """Flow edges from baseline state to outcome category, zero edges omitted."""
    tally = Counter((o.baseline_correct, o.finetuned_correct) for o in outcomes)
    counts = {classify(base, tuned): n for (base, tuned), n in tally.items()}
    return [
        (source, category.value, counts[category])
        for source, category in _EDGE_ORDER
        if counts.get(category, 0) > 0
    ]


# ---------------------------------------------------------------------------
# Report tables


@dataclass(frozen=True)
class PerformanceRow:
    mapping: str
    baseline_pct: float
    finetuned_pct: float
    delta_pct: float


@dataclass(frozen=True)
class CategoryRow:
    terminology: str
    direction: str
    category: str
    validation_pct: float
    trained_pct: float


@dataclass(frozen=True)
class DerivedRow:
    task: str
    metrics: DerivedMetrics


@dataclass
class ReportBundle:
    performance: list[PerformanceRow]
    categories: list[CategoryRow]
    derived: list[DerivedRow]


DIRECTION_ORDER = (Direction.ID_TO_TERM, Direction.TERM_TO_ID)


def table_report(outcomes: Sequence[PairOutcome]) -> ReportBundle:
    """Build the three report tables from a complete outcome set.

    A run's accuracy is the share of its pairs whose outcome flag is set, so
    the performance table and the category shares rest on the same
    per-pair correctness.
    """
    outcome_map: dict[tuple[Terminology, Direction], list[PairOutcome]] = {}
    for o in outcomes:
        outcome_map.setdefault((o.terminology, o.direction), []).append(o)

    combos = [
        (t, d) for t in Terminology for d in DIRECTION_ORDER if (t, d) in outcome_map
    ]
    performance: list[PerformanceRow] = []
    categories: list[CategoryRow] = []
    derived: list[DerivedRow] = []
    for t, d in combos:
        label = direction_label(t, d)
        combo_outcomes = outcome_map[(t, d)]
        n = len(combo_outcomes)
        base_pct = Fraction(sum(o.baseline_correct for o in combo_outcomes) * 100, n)
        tuned_pct = Fraction(sum(o.finetuned_correct for o in combo_outcomes) * 100, n)
        performance.append(
            PerformanceRow(
                mapping=label,
                baseline_pct=round1(base_pct),
                finetuned_pct=round1(tuned_pct),
                delta_pct=round1(tuned_pct - base_pct),
            )
        )
        counts = split_counts(combo_outcomes)
        if Split.TRAIN not in counts or Split.VALIDATION not in counts:
            raise DomainError(f"missing split in outcomes for {label}")
        train = CategoryPercentages.from_counts(counts[Split.TRAIN])
        val = CategoryPercentages.from_counts(counts[Split.VALIDATION])
        for cat in OutcomeCategory:
            categories.append(
                CategoryRow(
                    terminology=t.display,
                    direction=label,
                    category=cat.value,
                    validation_pct=round1(val.get(cat)),
                    trained_pct=round1(train.get(cat)),
                )
            )
        derived.append(DerivedRow(task=label, metrics=metrics_from_split_percentages(train, val)))
    return ReportBundle(performance=performance, categories=categories, derived=derived)


def write_performance_csv(rows: Sequence[PerformanceRow], sink: IO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["mapping", "baseline_pct", "finetuned_pct", "delta_ft_pct"])
    for r in rows:
        writer.writerow([r.mapping, fmt1(r.baseline_pct), fmt1(r.finetuned_pct),
                         fmt1(r.delta_pct)])


def write_categories_csv(rows: Sequence[CategoryRow], sink: IO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["terminology", "direction", "category",
                     "validation_pct", "trained_pct"])
    for r in rows:
        writer.writerow([r.terminology, r.direction, r.category,
                         fmt1(r.validation_pct), fmt1(r.trained_pct)])


def write_derived_csv(rows: Sequence[DerivedRow], sink: IO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["task", "memorized_pct", "generalized_pct", "degraded_pct",
                     "degraded_pooled_pct", "accuracy_pct"])
    for r in rows:
        m = r.metrics
        writer.writerow([
            r.task, fmt1(m.memorized_pct), fmt1(m.generalized_pct),
            fmt1(m.degraded_pct),
            "" if m.degraded_pooled_pct is None else fmt1(m.degraded_pooled_pct),
            fmt1(m.accuracy_pct),
        ])


def write_sankey_csv(edges: Sequence[tuple[str, str, int]], sink: IO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["source", "target", "count"])
    for source, target, count in edges:
        writer.writerow([source, target, count])


def _outcome_row(o: PairOutcome) -> dict:
    return {
        "pair_id": o.pair_id,
        "terminology": o.terminology.value,
        "direction": o.direction.value,
        "split": o.split.value,
        "baseline_correct": o.baseline_correct,
        "finetuned_correct": o.finetuned_correct,
        "category": o.category.value,
    }


def _outcome_from_row(row: dict) -> PairOutcome:
    return PairOutcome(
        pair_id=row["pair_id"],
        terminology=terminology_member(row["terminology"]),
        direction=direction_member(row["direction"]),
        split=split_member(row["split"]),
        baseline_correct=row["baseline_correct"],
        finetuned_correct=row["finetuned_correct"],
    )


def write_outcomes_jsonl(outcomes: Sequence[PairOutcome], sink: IO) -> int:
    return write_rows(map(_outcome_row, outcomes), sink)


def read_outcomes_jsonl(stream: IO) -> list[PairOutcome]:
    return list(iter_rows(stream, _outcome_from_row))


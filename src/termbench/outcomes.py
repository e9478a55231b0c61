"""Outcome classification and the derived fine-tuning metrics.

Each evaluated pair lands in exactly one category given its baseline and
fine-tuned correctness:

    (False, True)  -> Gainer     knowledge acquired
    (True, False)  -> Loser      knowledge degraded
    (True, True)   -> Correct    knowledge preserved
    (False, False) -> Incorrect  never known

Each (terminology, direction) outcome set is counted once, as one
category count per split (`split_counts`), and every output is read off
those two counts: the performance, category and derived-metric tables, the
Sankey edges and the stage's `metrics.json`.

Derived metrics: memorization is the Gainer share of the training split,
generalization the Gainer share of the validation split, degradation the
sum of the two per-split Loser shares (pooled: the Loser share of both
splits' pairs together), and accuracy (training terms) is
Correct + Gainer - Loser on the training split. All percentages are
computed in exact rational arithmetic and rounded half-up to one decimal
exactly once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import IO, Iterable, Sequence

from .errors import DomainError
from .evaluate import EvalItem, pair_correctness
from .jsonl import RowEnum, iter_rows, write_rows
from .ontology import Terminology, terminology_member
from .prompts import Direction, direction_label, direction_member
from .sampling import Split, split_member
from .tables import write_table


class OutcomeCategory(RowEnum):
    """Declared in report-table order."""

    GAINER = "Gainer"
    LOSER = "Loser"
    CORRECT = "Correct"
    INCORRECT = "Incorrect"


def classify(baseline_correct: bool, finetuned_correct: bool) -> OutcomeCategory:
    if finetuned_correct:
        return OutcomeCategory.CORRECT if baseline_correct else OutcomeCategory.GAINER
    return OutcomeCategory.LOSER if baseline_correct else OutcomeCategory.INCORRECT


@dataclass(frozen=True, slots=True)
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
    if base.keys() != tuned.keys():
        raise DomainError("baseline and fine-tuned runs scored different pairs")
    outcomes = []
    for pid in sorted(base):
        if pid not in split_by_pair:
            raise DomainError(f"pair {pid!r} has no split assignment")
        outcomes.append(PairOutcome(pid, terminology, direction, split_by_pair[pid], base[pid],
                                    tuned[pid]))
    return outcomes


# ---------------------------------------------------------------------------
# Counts, percentages and derived metrics (exact rational arithmetic)


def round1(value: Fraction) -> float:
    """Round half-up to one decimal, once, at the end of a computation.

    The report tables write the result as `repr` does, which for these
    percentages shows exactly that one decimal (12.3, 100.0, -0.0).
    """
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return float(dec.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def split_counts(
    outcomes: Iterable[PairOutcome], where: str = ""
) -> tuple[Counter[OutcomeCategory], Counter[OutcomeCategory]]:
    """Outcomes per category in the train and in the validation split.

    Each (baseline, fine-tuned) flag pair is one category, so the flags are
    tallied and each distinct pair is classified once. `where` says whose
    split is missing.
    """
    tally = Counter((o.split, o.baseline_correct, o.finetuned_correct) for o in outcomes)
    counts: dict[Split, Counter[OutcomeCategory]] = {split: Counter() for split in Split}
    for (split, base, tuned), n in tally.items():
        counts[split][classify(base, tuned)] = n
    missing = [split.value for split in Split if not counts[split]]
    if missing:
        raise DomainError(f"missing split(s){where}: {', '.join(missing)}")
    return counts[Split.TRAIN], counts[Split.VALIDATION]


def _percentages(counts: Counter[OutcomeCategory]) -> dict[OutcomeCategory, Fraction]:
    return {cat: Fraction(counts[cat] * 100, counts.total()) for cat in OutcomeCategory}


def derived_metrics(
    train: dict[OutcomeCategory, Fraction], validation: dict[OutcomeCategory, Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Memorized, generalized, degraded and accuracy percentages, unrounded,
    from per-split category percentages."""
    gainer, loser, correct = (OutcomeCategory.GAINER, OutcomeCategory.LOSER,
                              OutcomeCategory.CORRECT)
    return (train[gainer], validation[gainer], train[loser] + validation[loser],
            train[correct] + train[gainer] - train[loser])


DERIVED_COLUMNS = ("memorized_pct", "generalized_pct", "degraded_pct",
                   "degraded_pooled_pct", "accuracy_pct")


def derived_row(
    train: Counter[OutcomeCategory], validation: Counter[OutcomeCategory]
) -> tuple[float, ...]:
    """The `DERIVED_COLUMNS` of one (terminology, direction) from its split counts.

    Pooled degradation is the Loser share of both splits' pairs together.
    """
    memorized, generalized, degraded, accuracy = derived_metrics(
        _percentages(train), _percentages(validation))
    losers = train[OutcomeCategory.LOSER] + validation[OutcomeCategory.LOSER]
    pooled = Fraction(losers * 100, train.total() + validation.total())
    return tuple(map(round1, (memorized, generalized, degraded, pooled, accuracy)))


# ---------------------------------------------------------------------------
# Sankey flow edges

_EDGE_ORDER = (
    ("baseline-correct", OutcomeCategory.CORRECT),
    ("baseline-correct", OutcomeCategory.LOSER),
    ("baseline-incorrect", OutcomeCategory.GAINER),
    ("baseline-incorrect", OutcomeCategory.INCORRECT),
)


def sankey_edges(counts: Counter[OutcomeCategory]) -> list[tuple[str, str, int]]:
    """Flow edges from baseline state to outcome category in one split, zero edges omitted."""
    return [(source, category.value, counts[category])
            for source, category in _EDGE_ORDER if counts[category] > 0]


# ---------------------------------------------------------------------------
# Report tables


DIRECTION_ORDER = (Direction.ID_TO_TERM, Direction.TERM_TO_ID)


def table_report(outcomes: Sequence[PairOutcome]) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """The performance, category and derived-metric tables of a complete outcome set.

    Each table is a list of rows in its writer's column order, read off one
    count per split of each (terminology, direction): a run's baseline-correct
    pairs are its Correct and Loser ones, its fine-tuned-correct ones Correct and Gainer.
    """
    outcome_map: dict[tuple[Terminology, Direction], list[PairOutcome]] = {}
    for o in outcomes:
        outcome_map.setdefault((o.terminology, o.direction), []).append(o)

    combos = [
        (t, d) for t in Terminology for d in DIRECTION_ORDER if (t, d) in outcome_map
    ]
    performance: list[tuple] = []
    categories: list[tuple] = []
    derived: list[tuple] = []
    for t, d in combos:
        label = direction_label(t, d)
        train, val = split_counts(outcome_map[(t, d)], f" in outcomes for {label}")
        both = _percentages(train + val)
        base_pct = both[OutcomeCategory.CORRECT] + both[OutcomeCategory.LOSER]
        tuned_pct = both[OutcomeCategory.CORRECT] + both[OutcomeCategory.GAINER]
        performance.append(
            (label, round1(base_pct), round1(tuned_pct), round1(tuned_pct - base_pct)))
        train_pct, val_pct = _percentages(train), _percentages(val)
        for cat in OutcomeCategory:
            categories.append(
                (t.display, label, cat.value, round1(val_pct[cat]), round1(train_pct[cat])))
        derived.append((label, *derived_row(train, val)))
    return performance, categories, derived


def write_performance_csv(rows: Iterable[tuple], sink: IO) -> None:
    write_table(["mapping", "baseline_pct", "finetuned_pct", "delta_ft_pct"], rows, sink)


def write_categories_csv(rows: Iterable[tuple], sink: IO) -> None:
    write_table(["terminology", "direction", "category", "validation_pct", "trained_pct"],
                rows, sink)


def write_derived_csv(rows: Iterable[tuple], sink: IO) -> None:
    write_table(["task", *DERIVED_COLUMNS], rows, sink)


def write_sankey_csv(edges: Sequence[tuple[str, str, int]], sink: IO) -> None:
    write_table(["source", "target", "count"], edges, sink)


def _outcome_row(o: PairOutcome) -> dict:
    return {
        "pair_id": o.pair_id,
        "terminology": o.terminology._value_,
        "direction": o.direction._value_,
        "split": o.split._value_,
        "baseline_correct": o.baseline_correct,
        "finetuned_correct": o.finetuned_correct,
        "category": o.category._value_,
    }


def _outcome_from_row(row: dict) -> PairOutcome:
    return PairOutcome(row["pair_id"], terminology_member(row["terminology"]),
                       direction_member(row["direction"]), split_member(row["split"]),
                       row["baseline_correct"], row["finetuned_correct"])


def write_outcomes_jsonl(outcomes: Sequence[PairOutcome], sink: IO) -> int:
    return write_rows(map(_outcome_row, outcomes), sink)


def read_outcomes_jsonl(stream: IO) -> list[PairOutcome]:
    return list(iter_rows(stream, _outcome_from_row))


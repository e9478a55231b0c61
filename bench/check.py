"""Output check against the planted truth, independent of the termbench package.

The expected split comes from this file's own SplitMix64 sampler; the four
outcome categories are counted with plain loops; percentages use Fraction
arithmetic rounded half-up once. `check_run` compares the result with
`classify/outcomes.jsonl` row by row and with the three `report/*.csv`
tables byte for byte.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# (terminology, direction, report row label, display name) in report order
ROW_ORDER = (
    ("HPO", "id_to_term", "HPO identifier -> term", "HPO"),
    ("HPO", "term_to_id", "HPO term -> identifier", "HPO"),
    ("GO_CC", "id_to_term", "GO identifier -> term", "GO"),
    ("GO_CC", "term_to_id", "GO term -> identifier", "GO"),
    ("GENE", "id_to_term", "gene -> protein", "GENE"),
    ("GENE", "term_to_id", "protein -> gene", "GENE"),
)
CATEGORIES = ("Gainer", "Loser", "Correct", "Incorrect")
REPORT_FILES = ("performance_summary.csv", "outcome_categories.csv", "derived_metrics.csv")


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _draw_prefix(seed: int, label: int, pool: list[str], m: int) -> list[str]:
    """First m items of a partial Fisher-Yates shuffle on stream (seed, label)."""
    state = _mix((seed ^ (((label + 1) * _GOLDEN) & _MASK64)) & _MASK64)
    pool = list(pool)
    n = len(pool)
    for i in range(min(m, n - 1)):
        bound = n - i
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            state = (state + _GOLDEN) & _MASK64
            u = _mix(state)
            if u < limit:
                break
        j = i + u % bound
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def train_identifiers(records: list[tuple[str, int]], n_bins: int, per_bin: int,
                      seed: int) -> set[str]:
    """Identifiers drawn into the training split from (identifier, id count) rows."""
    ranked = [i for i, _ in sorted(records, key=lambda r: (-r[1], r[0]))]
    base, extra = divmod(len(ranked), n_bins)
    train: set[str] = set()
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        train.update(_draw_prefix(seed, b, ranked[start:start + size], per_bin))
        start += size
    return train


def _category(base: bool, tuned: bool) -> str:
    if tuned:
        return "Correct" if base else "Gainer"
    return "Loser" if base else "Incorrect"


def expected_outcomes(truth: dict, sampling_seed: int) -> dict[tuple[str, str], tuple]:
    """{(pair_id, direction): (terminology, split, baseline_ok, finetuned_ok)}."""
    out = {}
    for t, data in truth["terminologies"].items():
        records = data["records"]
        train = train_identifiers([(r[0], r[2]) for r in records],
                                  truth["n_bins"], truth["per_bin"], sampling_seed)
        for d, flags in data["correct"].items():
            for (identifier, _, _), (base, tuned) in zip(records, flags):
                split = "train" if identifier in train else "validation"
                out[(f"{t}:{identifier}", d)] = (t, split, base, tuned)
    return out


def _pct(numerator: int, denominator: int) -> Fraction:
    return Fraction(numerator * 100, denominator)


def _round1(value: Fraction) -> str:
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return str(dec.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def expected_report(outcomes: dict[tuple[str, str], tuple]) -> dict[str, str]:
    """The three report tables, as text, by direct counting."""
    perf = ["mapping,baseline_pct,finetuned_pct,delta_ft_pct"]
    cats = ["terminology,direction,category,validation_pct,trained_pct"]
    derived = ["task,memorized_pct,generalized_pct,degraded_pct,"
               "degraded_pooled_pct,accuracy_pct"]
    for t, d, label, display in ROW_ORDER:
        rows = [v for (_, direction), v in outcomes.items() if v[0] == t and direction == d]
        n = len(rows)
        base_pct = _pct(sum(r[2] for r in rows), n)
        tuned_pct = _pct(sum(r[3] for r in rows), n)
        perf.append(f"{label},{_round1(base_pct)},{_round1(tuned_pct)},"
                    f"{_round1(tuned_pct - base_pct)}")
        counts = {"train": dict.fromkeys(CATEGORIES, 0),
                  "validation": dict.fromkeys(CATEGORIES, 0)}
        for _, split, base, tuned in rows:
            counts[split][_category(base, tuned)] += 1
        n_train = sum(counts["train"].values())
        n_val = sum(counts["validation"].values())
        for cat in CATEGORIES:
            cats.append(f"{display},{label},{cat},"
                        f"{_round1(_pct(counts['validation'][cat], n_val))},"
                        f"{_round1(_pct(counts['train'][cat], n_train))}")
        train = counts["train"]
        degraded = _pct(train["Loser"], n_train) + _pct(counts["validation"]["Loser"], n_val)
        pooled = _pct(train["Loser"] + counts["validation"]["Loser"], n_train + n_val)
        accuracy = _pct(train["Correct"] + train["Gainer"] - train["Loser"], n_train)
        derived.append(f"{label},{_round1(_pct(train['Gainer'], n_train))},"
                       f"{_round1(_pct(counts['validation']['Gainer'], n_val))},"
                       f"{_round1(degraded)},{_round1(pooled)},{_round1(accuracy)}")
    return {name: "\n".join(lines) + "\n"
            for name, lines in zip(REPORT_FILES, (perf, cats, derived))}


def eval_counts(run_dir: Path) -> tuple[int, int]:
    """(items evaluated, items carrying an error) from the eval summaries."""
    items = errors = 0
    for path in sorted((run_dir / "eval").glob("summary_*.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        items += summary["n_items"]
        errors += summary["n_errors"]
    return items, errors


def check_run(run_dir: Path, truth: dict, sampling_seed: int) -> list[str]:
    """Problems found in a finished run directory; empty when it is correct."""
    expected = expected_outcomes(truth, sampling_seed)
    problems = []
    seen = {}
    try:
        with open(run_dir / "classify" / "outcomes.jsonl", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                category = _category(row["baseline_correct"], row["finetuned_correct"])
                if row["category"] != category:
                    problems.append(f"{row['pair_id']}: category {row['category']} "
                                    f"contradicts its flags")
                seen[(row["pair_id"], row["direction"])] = (
                    row["terminology"], row["split"],
                    row["baseline_correct"], row["finetuned_correct"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"outcomes.jsonl unreadable: {exc}"]
    if seen != expected:
        wrong = [k for k in expected if seen.get(k) != expected[k]]
        extra = [k for k in seen if k not in expected]
        problems.append(f"outcomes differ from the planted truth: {len(wrong)} wrong or "
                        f"missing, {len(extra)} unexpected (first: {(wrong + extra)[:1]})")
    for name, text in expected_report(expected).items():
        path = run_dir / "report" / name
        if not path.exists() or path.read_bytes() != text.encode("utf-8"):
            problems.append(f"report/{name} differs from the planted truth")
    return problems

"""Exact-match evaluation over prompt sets.

Answers are normalized (trim, strip one quote pair, drop one trailing
punctuation mark, collapse whitespace, case-fold by direction) and scored
hits@1 by byte equality. Strict mode keeps whatever the model said;
extract mode pulls the first substring matching the terminology's
identifier syntax before comparing, which isolates formatting failures
from knowledge failures.

`run_eval` returns a run's items, sorted; `run_summary` takes them with
the model, terminology, direction and phase its caller holds. Each item
pays only its own costs: its pair id is the one its pair carries, a
provider answers it by one lookup (a replay provider reads its transcript
once per phase, joined to the phase's prompts), and its row is built by
position. A pair's vote is its one item's flag when no pair has more.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import IO, Iterable, Sequence

from .errors import DomainError, HarnessError, TransportError
from .jsonl import iter_rows, write_rows
from .ontology import Terminology
from .prompts import Direction, PromptInstance, direction_member
from .providers import CompletionProvider, DecodingParams
from .remote import bounded_map

_QUOTE_PAIRS = {('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’")}
_WHITESPACE_RUN = re.compile(r"\s+")

_EXTRACT_PATTERNS = {
    Terminology.HPO: re.compile(r"HP:\d{7}", re.IGNORECASE),
    Terminology.GO_CC: re.compile(r"GO:\d{7}", re.IGNORECASE),
    # Case matters for gene symbols, so match against the raw string and
    # require non-wordish boundaries.
    Terminology.GENE: re.compile(r"(?<![A-Za-z0-9-])[A-Z][A-Z0-9-]*(?![A-Za-z0-9-])"),
}


def normalize_answer(
    raw: str,
    terminology: Terminology,
    direction: Direction,
    extract: bool,
) -> str:
    """Canonical form of a model answer (and of the expected answer)."""
    text = raw.strip()
    if len(text) >= 2 and (text[0], text[-1]) in _QUOTE_PAIRS:
        text = text[1:-1].strip()
    if text and text[-1] in ".,;":
        text = text[:-1].rstrip()
    # Only a run of two or more, or a whitespace character other than " ",
    # changes; every such character is unprintable, so most texts skip the regex.
    if "  " in text or not text.isprintable():
        text = _WHITESPACE_RUN.sub(" ", text)
    if direction is Direction.ID_TO_TERM:
        return text.lower()
    if extract:
        match = _EXTRACT_PATTERNS[terminology].search(text)
        if match:
            text = match.group(0)
    return text.upper()


def score_item(normalized: str, expected_normalized: str) -> bool:
    """hits@1: exact byte equality of normalized strings."""
    return normalized == expected_normalized


class Phase(Enum):
    BASELINE = "baseline"
    FINETUNED = "finetuned"


@dataclass(frozen=True, slots=True)
class EvalItem:
    pair_id: str
    direction: Direction
    template_id: int
    raw_output: str
    normalized_output: str
    correct: bool
    error: str | None = None


def pair_correctness(items: Sequence[EvalItem]) -> dict[str, bool]:
    """Per-pair correctness from eval items: the one template-voting rule.

    A pair is correct when strictly more than half of its templates were
    correct; a failed item counts as wrong, and a tie loses. With one
    template per pair this is the item's flag.
    """
    flags = {item.pair_id: item.correct for item in items}
    if len(flags) == len(items):  # one item per pair: its flag is the vote
        return flags
    votes: dict[str, list[bool]] = {}
    for item in items:
        votes.setdefault(item.pair_id, []).append(item.correct)
    return {pid: sum(flags) * 2 > len(flags) for pid, flags in votes.items()}


class RunFailedError(TransportError):
    """Every item in a run failed; nothing was scored."""


def expected_answers(prompts: Sequence[PromptInstance], extract: bool) -> list[str]:
    """Each prompt's expected answer, normalized as its model answer will be."""
    return [normalize_answer(p.expected_answer, p.pair.terminology, p.direction, extract)
            for p in prompts]


# every completion is requested with the default decoding settings
DECODING = DecodingParams()


def _evaluate_one(
    provider: CompletionProvider,
    prompt: PromptInstance,
    expected: str,
    model_id: str,
    extract: bool,
) -> EvalItem:
    # Equal strings are one object, so a run's items stay small while they are
    # held for the next stage: the pair's own id across templates, directions
    # and phases, and a normalized answer equal to the expected answer or to
    # the raw output is that object.
    pair = prompt.pair
    try:
        raw = provider.complete(prompt.prompt_text, model_id, DECODING)
    except HarnessError as exc:
        return EvalItem(pair.pair_id, prompt.direction, prompt.template_id, "", "", False,
                        str(exc))
    normalized = normalize_answer(raw, pair.terminology, prompt.direction, extract)
    correct = score_item(normalized, expected)
    if correct:
        normalized = expected
    elif normalized == raw:
        normalized = raw
    return EvalItem(pair.pair_id, prompt.direction, prompt.template_id, raw, normalized, correct,
                    None)


_ITEM_ORDER = attrgetter("pair_id", "template_id")


def run_eval(
    provider: CompletionProvider,
    prompts: Sequence[PromptInstance],
    expected: Sequence[str],
    model_id: str,
    concurrency_limit: int,
    extract: bool,
) -> list[EvalItem]:
    """Evaluate prompts against one model and score hits@1.

    Provider failures count as incorrect (with the error recorded on the
    item) so denominators always equal the prompt-set size. Items are
    ordered by (pair_id, template_id) no matter how completions are
    scheduled. `expected` is `expected_answers(prompts, extract)`, which a
    caller scoring the same prompts more than once computes once.
    """
    prompts = list(prompts)
    if not prompts:
        raise DomainError("no prompts to evaluate")
    terminology = prompts[0].pair.terminology
    direction = prompts[0].direction
    if any(p.pair.terminology is not terminology or p.direction is not direction
           for p in prompts):
        raise DomainError("a run covers exactly one terminology and direction")
    if len(expected) != len(prompts):
        raise DomainError(f"{len(expected)} expected answers for {len(prompts)} prompts")

    items = bounded_map(
        lambda job: _evaluate_one(provider, *job, model_id, extract),
        zip(prompts, expected), concurrency_limit)
    items.sort(key=_ITEM_ORDER)
    if all(i.error is not None for i in items):
        raise RunFailedError(f"all {len(items)} items failed; first: {items[0].error}")
    return items


# ---------------------------------------------------------------------------
# File interfaces


def _result_row(item: EvalItem) -> dict:
    return {
        "pair_id": item.pair_id,
        "direction": item.direction._value_,
        "template_id": item.template_id,
        "raw_output": item.raw_output,
        "normalized_output": item.normalized_output,
        "correct": item.correct,
        "error": item.error,
    }


def _result_from_row(row: dict) -> EvalItem:
    return EvalItem(row["pair_id"], direction_member(row["direction"]), row["template_id"],
                    row["raw_output"], row["normalized_output"], row["correct"],
                    row.get("error"))


def write_results_jsonl(items: Iterable[EvalItem], sink: IO) -> int:
    return write_rows(map(_result_row, items), sink)


def read_results_jsonl(stream: IO) -> list[EvalItem]:
    return list(iter_rows(stream, _result_from_row))


def run_summary(items: Sequence[EvalItem], model_id: str, terminology: Terminology,
                direction: Direction, phase: Phase) -> dict:
    """One run's counts, and its accuracy: the share of pairs `pair_correctness` counts."""
    flags = pair_correctness(items).values()
    return {
        "model_id": model_id,
        "terminology": terminology.value,
        "direction": direction.value,
        "phase": phase.value,
        "n_items": len(items),
        "n_correct": sum(i.correct for i in items),
        "n_errors": sum(i.error is not None for i in items),
        "accuracy": sum(flags) / len(flags),
    }

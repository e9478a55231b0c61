"""Prompt templates and fine-tuning file emission.

Every pair expands into five phrasings per direction. The forward
direction asks for the identifier given the term; the reverse direction
mirrors each template, substituting identifiers for terms. For the
gene/protein terminology the ontology wording is replaced by "HGNC gene
symbol" and "protein name", which is what that mapping actually asks for.

The rendered template table below is the canonical, versioned source of
the prompt wordings; change TEMPLATE_TABLE_VERSION when editing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Sequence

from . import GENERATOR_NAME
from .errors import DomainError, ParseError
from .jsonl import enum_lookup, iter_rows, write_rows
from .ontology import Terminology
from .sampling import SampledPair, pair_id

TEMPLATE_TABLE_VERSION = 1

TEMPLATE_IDS = (1, 2, 3, 4, 5)


class Direction(Enum):
    TERM_TO_ID = "term_to_id"
    ID_TO_TERM = "id_to_term"


direction_member = enum_lookup(Direction)


def _ontology_templates(onto: str) -> dict[Direction, tuple[str, ...]]:
    return {
        Direction.TERM_TO_ID: (
            f"What is the {onto} identifier for the {onto} term [TERM]?",
            f"The {onto} term [TERM] has what {onto} identifier? "
            f"Respond only with the {onto} identifier.",
            f"Provide the {onto} identifier for: [TERM]",
            f"What is the ontology identifier for [TERM] in {onto}?",
            f"Return only the {onto} identifier for the term: [TERM]",
        ),
        Direction.ID_TO_TERM: (
            f"What is the {onto} term for the {onto} identifier [IDENTIFIER]?",
            f"The {onto} identifier [IDENTIFIER] has what {onto} term? "
            f"Respond only with the {onto} term.",
            f"Provide the {onto} term for: [IDENTIFIER]",
            f"What is the ontology term for [IDENTIFIER] in {onto}?",
            f"Return only the {onto} term for the identifier: [IDENTIFIER]",
        ),
    }


_GENE_TEMPLATES = {
    Direction.TERM_TO_ID: (
        "What is the HGNC gene symbol for the protein name [TERM]?",
        "The protein name [TERM] has what HGNC gene symbol? "
        "Respond only with the HGNC gene symbol.",
        "Provide the HGNC gene symbol for: [TERM]",
        "What is the gene symbol for [TERM] in HGNC?",
        "Return only the HGNC gene symbol for the protein name: [TERM]",
    ),
    Direction.ID_TO_TERM: (
        "What is the protein name for the HGNC gene symbol [IDENTIFIER]?",
        "The HGNC gene symbol [IDENTIFIER] has what protein name? "
        "Respond only with the protein name.",
        "Provide the protein name for: [IDENTIFIER]",
        "What is the protein name for [IDENTIFIER] in HGNC?",
        "Return only the protein name for the gene symbol: [IDENTIFIER]",
    ),
}

TEMPLATE_TABLE: dict[Terminology, dict[Direction, tuple[str, ...]]] = {
    Terminology.HPO: _ontology_templates("HPO"),
    Terminology.GO_CC: _ontology_templates("GO"),
    Terminology.GENE: _GENE_TEMPLATES,
}

@dataclass(frozen=True, slots=True)
class PromptInstance:
    pair: SampledPair
    direction: Direction
    template_id: int
    prompt_text: str
    expected_answer: str

    @property
    def pair_id(self) -> str:
        return pair_id(self.pair)


def direction_label(terminology: Terminology, direction: Direction) -> str:
    """Human-readable mapping name used in report rows."""
    if terminology is Terminology.GENE:
        return "protein -> gene" if direction is Direction.TERM_TO_ID else "gene -> protein"
    onto = terminology.display
    if direction is Direction.TERM_TO_ID:
        return f"{onto} term -> identifier"
    return f"{onto} identifier -> term"


def expand_prompts(
    pair: SampledPair, direction: Direction, template_ids: Sequence[int] = TEMPLATE_IDS
) -> list[PromptInstance]:
    """Render the templates `template_ids` (all five by default) for one pair and direction."""
    templates = TEMPLATE_TABLE[pair.terminology][direction]
    if direction is Direction.TERM_TO_ID:
        fill, expected = pair.term, pair.identifier
        slot = "[TERM]"
    else:
        fill, expected = pair.identifier, pair.term
        slot = "[IDENTIFIER]"
    instances = []
    for template_id in template_ids:
        if template_id not in TEMPLATE_IDS:
            raise DomainError(f"unknown template id {template_id}")
        instances.append(
            PromptInstance(
                pair=pair,
                direction=direction,
                template_id=template_id,
                prompt_text=templates[template_id - 1].replace(slot, fill),
                expected_answer=expected,
            )
        )
    return instances


def _prompt_row(p: PromptInstance) -> dict:
    return {
        "pair_id": p.pair_id,
        "direction": p.direction.value,
        "template_id": p.template_id,
        "prompt_text": p.prompt_text,
        "expected_answer": p.expected_answer,
    }


def write_prompts_jsonl(prompts: Iterable[PromptInstance], sink: IO) -> int:
    return write_rows(map(_prompt_row, prompts), sink)


def read_prompts_jsonl(stream: IO, pairs: Iterable[SampledPair]) -> list[PromptInstance]:
    """Load prompts, rebinding each row to its pair among `pairs`."""
    pairs_by_id = {pair_id(p): p for p in pairs}

    def from_row(row: dict) -> PromptInstance:
        pair = pairs_by_id.get(row["pair_id"])
        if pair is None:
            raise ParseError(f"unknown pair_id {row['pair_id']!r}")
        return PromptInstance(
            pair=pair,
            direction=direction_member(row["direction"]),
            template_id=row["template_id"],
            prompt_text=row["prompt_text"],
            expected_answer=row["expected_answer"],
        )
    return list(iter_rows(stream, from_row))


# Hyperparameters recorded as provenance alongside emitted training files;
# the adapter training itself runs on an external service.
FINETUNE_HYPERPARAMETERS = {
    "method": "lora",
    "lora_rank": 64,
    "lora_alpha": 128,
    "lora_target": "all-linear",
    "learning_rate": 1e-5,
    "lr_scheduler": "cosine",
    "lr_warmup": 0,
    "lr_cycle_length": 0.5,
    "batch_size": 32,
    "max_grad_norm": 1,
    "weight_decay": 0,
    "epochs": 20,
    "train_on_inputs": "auto",
}


def emit_finetune_file(prompts: list[PromptInstance], sink: IO) -> int:
    """Write chat-format training rows: one user/assistant message pair each."""
    if not prompts:
        raise DomainError("refusing to emit an empty fine-tuning file")
    return write_rows(({
        "messages": [
            {"role": "user", "content": p.prompt_text},
            {"role": "assistant", "content": p.expected_answer},
        ]
    } for p in prompts), sink)


def finetune_manifest(
    terminology: Terminology,
    direction: Direction,
    seed: int,
    n_pairs: int,
    n_prompts: int,
) -> dict:
    return {
        "terminology": terminology.value,
        "direction": direction.value,
        "seed": seed,
        "generator": GENERATOR_NAME,
        "n_pairs": n_pairs,
        "n_prompts": n_prompts,
        "template_table_version": TEMPLATE_TABLE_VERSION,
        "hyperparameters": dict(FINETUNE_HYPERPARAMETERS),
    }

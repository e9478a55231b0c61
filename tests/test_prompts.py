import io
import json
import re

import pytest

from termbench.errors import DomainError, ParseError
from termbench.ontology import Terminology, TermRecord
from termbench.prompts import (
    FINETUNE_HYPERPARAMETERS,
    TEMPLATE_IDS,
    TEMPLATE_TABLE,
    Direction,
    direction_label,
    emit_finetune_file,
    expand_prompts,
    finetune_manifest,
    read_prompts_jsonl,
    write_prompts_jsonl,
)
from termbench.sampling import SampledPair, Split


def expand_all(pairs, directions):
    """Every template of every pair, direction by direction."""
    return [p for d in directions for pair in pairs for p in expand_prompts(pair, d)]


def _pair(terminology=Terminology.HPO, term="tremor", identifier="HP:0001337"):
    return SampledPair(
        terminology=terminology,
        term=term,
        identifier=identifier,
        bin_index=0,
        split=Split.TRAIN,
    )


@pytest.mark.parametrize("template_ids", [(1,), (2, 5), (1, 2, 3, 4, 5)])
def test_expand_renders_only_the_requested_templates(template_ids):
    for terminology in Terminology:
        pair = _pair(terminology=terminology)
        for direction in Direction:
            every = expand_prompts(pair, direction)
            assert expand_prompts(pair, direction, template_ids) == [
                p for p in every if p.template_id in template_ids]


@pytest.mark.parametrize("template_id", [0, 6])
def test_expand_rejects_an_unknown_template_id(template_id):
    with pytest.raises(DomainError, match=f"unknown template id {template_id}"):
        expand_prompts(_pair(), Direction.TERM_TO_ID, (1, template_id))


def test_forward_template_one_wording():
    prompts = expand_prompts(_pair(), Direction.TERM_TO_ID)
    assert prompts[0].prompt_text == "What is the HPO identifier for the HPO term tremor?"
    assert prompts[0].expected_answer == "HP:0001337"
    assert prompts[0].template_id == 1


def test_reverse_template_one_mirrors():
    prompts = expand_prompts(_pair(), Direction.ID_TO_TERM)
    assert prompts[0].prompt_text == "What is the HPO term for the HPO identifier HP:0001337?"
    assert prompts[0].expected_answer == "tremor"


def test_five_templates_per_direction():
    for direction in Direction:
        prompts = expand_prompts(_pair(), direction)
        assert [p.template_id for p in prompts] == [1, 2, 3, 4, 5]
        assert len({p.prompt_text for p in prompts}) == 5


def test_no_residual_placeholders():
    pairs = [
        _pair(),
        _pair(Terminology.GO_CC, "nucleus", "GO:0005634"),
        _pair(Terminology.GENE, "tumor protein p53", "TP53"),
    ]
    for p in expand_all(pairs, list(Direction)):
        for placeholder in ("[ONTOLOGY]", "[TERM]", "[IDENTIFIER]"):
            assert placeholder not in p.prompt_text


def test_every_template_holds_its_direction_slot_once_and_no_other_placeholder():
    slots = {Direction.TERM_TO_ID: "[TERM]", Direction.ID_TO_TERM: "[IDENTIFIER]"}
    assert set(TEMPLATE_TABLE) == set(Terminology)
    for by_direction in TEMPLATE_TABLE.values():
        assert set(by_direction) == set(Direction)
        for direction, templates in by_direction.items():
            assert len(templates) == len(TEMPLATE_IDS)
            for template in templates:
                assert re.findall(r"\[[A-Z_]+\]", template) == [slots[direction]]


@pytest.mark.parametrize("label", ["Abnormal [ONTOLOGY] finding", "[TERM] of [IDENTIFIER]"])
def test_a_label_holding_a_placeholder_renders_verbatim_and_round_trips(label):
    record = TermRecord(Terminology.HPO, "HP:0000001", label)  # ingest accepts the label
    pair = _pair(term=record.label, identifier=record.identifier)
    prompts = expand_all([pair], list(Direction))
    assert prompts[0].prompt_text == f"What is the HPO identifier for the HPO term {label}?"
    assert prompts[5].prompt_text == "What is the HPO term for the HPO identifier HP:0000001?"
    assert prompts[5].expected_answer == label
    buf = io.StringIO()
    write_prompts_jsonl(prompts, buf)
    assert read_prompts_jsonl(io.StringIO(buf.getvalue()), [pair]) == prompts


def test_gene_wording_uses_hgnc_and_protein_name():
    pair = _pair(Terminology.GENE, "tumor protein p53", "TP53")
    fwd = expand_prompts(pair, Direction.TERM_TO_ID)
    assert fwd[0].prompt_text == "What is the HGNC gene symbol for the protein name tumor protein p53?"
    assert fwd[0].expected_answer == "TP53"
    rev = expand_prompts(pair, Direction.ID_TO_TERM)
    assert rev[0].prompt_text == "What is the protein name for the HGNC gene symbol TP53?"
    assert rev[0].expected_answer == "tumor protein p53"


def test_go_wording_uses_go():
    pair = _pair(Terminology.GO_CC, "nucleus", "GO:0005634")
    prompts = expand_prompts(pair, Direction.TERM_TO_ID)
    assert prompts[0].prompt_text == "What is the GO identifier for the GO term nucleus?"


def test_rendering_injective_over_pairs_and_templates():
    pairs = [
        _pair(term=f"term {i}", identifier=f"HP:{i:07d}") for i in range(200)
    ]
    prompts = expand_all(pairs, list(Direction))
    assert len(prompts) == 200 * 5 * 2
    assert len({p.prompt_text for p in prompts}) == len(prompts)


def test_expected_answer_matches_direction():
    pair = _pair()
    for p in expand_prompts(pair, Direction.TERM_TO_ID):
        assert p.expected_answer == pair.identifier
    for p in expand_prompts(pair, Direction.ID_TO_TERM):
        assert p.expected_answer == pair.term


def test_prompts_jsonl_round_trip():
    pairs = [_pair(), _pair(term="ataxia", identifier="HP:0001251")]
    prompts = expand_all(pairs, [Direction.TERM_TO_ID])
    buf = io.StringIO()
    write_prompts_jsonl(prompts, buf)
    back = read_prompts_jsonl(io.StringIO(buf.getvalue()), pairs)
    assert back == prompts


def test_prompts_jsonl_names_a_pair_it_was_not_given():
    pairs = [_pair(), _pair(term="ataxia", identifier="HP:0001251")]
    buf = io.StringIO()
    write_prompts_jsonl(expand_all(pairs, [Direction.TERM_TO_ID]), buf)
    with pytest.raises(ParseError, match="line 6: unknown pair_id 'HPO:HP:0001251'"):
        read_prompts_jsonl(io.StringIO(buf.getvalue()), pairs[:1])


def test_emit_finetune_file_chat_rows():
    prompts = expand_prompts(_pair(), Direction.TERM_TO_ID)
    buf = io.StringIO()
    assert emit_finetune_file(prompts, buf) == 5
    lines = buf.getvalue().splitlines()
    assert len(lines) == 5
    row = json.loads(lines[0])
    assert row["messages"][0] == {
        "role": "user",
        "content": "What is the HPO identifier for the HPO term tremor?",
    }
    assert row["messages"][1] == {"role": "assistant", "content": "HP:0001337"}


def test_emit_finetune_file_empty_raises():
    with pytest.raises(DomainError):
        emit_finetune_file([], io.StringIO())


def test_finetune_manifest_records_hyperparameters():
    meta = finetune_manifest(Terminology.GO_CC, Direction.TERM_TO_ID, 42, 200, 1000)
    assert meta["generator"] == "splitmix64"
    assert meta["hyperparameters"]["epochs"] == 20
    assert meta["hyperparameters"]["lora_rank"] == 64
    assert meta["hyperparameters"]["lora_alpha"] == 128
    assert meta["hyperparameters"]["learning_rate"] == 1e-5
    assert meta["hyperparameters"]["batch_size"] == 32
    assert meta["hyperparameters"]["train_on_inputs"] == "auto"
    assert meta["seed"] == 42
    assert meta["n_prompts"] == 1000


def test_training_prompt_volume_at_paper_scale():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(200)]
    for direction in Direction:
        prompts = expand_all(pairs, [direction])
        assert len(prompts) == 1000


def test_direction_labels():
    assert direction_label(Terminology.HPO, Direction.TERM_TO_ID) == "HPO term -> identifier"
    assert direction_label(Terminology.GO_CC, Direction.ID_TO_TERM) == "GO identifier -> term"
    assert direction_label(Terminology.GENE, Direction.TERM_TO_ID) == "protein -> gene"
    assert direction_label(Terminology.GENE, Direction.ID_TO_TERM) == "gene -> protein"

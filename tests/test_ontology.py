import io

import pytest
from hypothesis import given, strategies as st

from termbench.errors import ParseError, ValidationError
from termbench.ontology import (
    TermRecord,
    Terminology,
    build_index,
    filter_namespace,
    parse_gene_map,
    parse_obo_document,
    read_records_jsonl,
    write_records_jsonl,
)

HPO_OBO = """format-version: 1.2
data-version: releases/2024-01-01
ontology: hp

[Term]
id: HP:0001337
name: tremor

[Term]
id: HP:0001251
name: ataxia
synonym: "Cerebellar ataxia" EXACT []
synonym: "Lack of coordination" BROAD []

[Term]
id: HP:0009999
name: retired term
is_obsolete: true
"""

GO_OBO = """format-version: 1.2
data-version: releases/2024-02-02

[Term]
id: GO:0005634
name: nucleus
namespace: cellular_component

[Term]
id: GO:0008150
name: biological_process
namespace: biological_process

[Term]
id: GO:0005829
name: cytosol
namespace: cellular_component

[Typedef]
id: part_of
name: part of
"""


def test_parse_obo_basic_stanza():
    records = parse_obo_document(io.StringIO(HPO_OBO), Terminology.HPO).records
    assert records[0] == TermRecord(Terminology.HPO, "HP:0001337", "tremor")
    assert records[1].identifier == "HP:0001251"
    assert records[1].synonyms == ("Cerebellar ataxia", "Lack of coordination")


def test_parse_obo_excludes_obsolete():
    records = parse_obo_document(io.StringIO(HPO_OBO), Terminology.HPO).records
    assert all(r.identifier != "HP:0009999" for r in records)
    assert len(records) == 2


def test_parse_obo_header_tags():
    doc = parse_obo_document(io.StringIO(HPO_OBO), Terminology.HPO)
    assert doc.header["data-version"] == "releases/2024-01-01"


def test_parse_obo_empty_stream():
    assert parse_obo_document(io.StringIO("format-version: 1.2\n"), Terminology.HPO).records == []


def test_parse_obo_missing_name_is_parse_error_with_line():
    text = "[Term]\nid: HP:0000001\n"
    with pytest.raises(ParseError) as exc:
        parse_obo_document(io.StringIO(text), Terminology.HPO).records
    assert exc.value.line_number == 1


def test_parse_obo_bad_identifier_is_validation_error():
    text = "[Term]\nid: HP:123\nname: short id\n"
    with pytest.raises(ValidationError):
        parse_obo_document(io.StringIO(text), Terminology.HPO).records


def test_parse_obo_strips_trailing_comments_and_bom():
    text = "﻿[Term]\nid: HP:0000001 ! the root\nname: All ! comment\n"
    records = parse_obo_document(io.StringIO(text), Terminology.HPO).records
    assert records == [TermRecord(Terminology.HPO, "HP:0000001", "All")]


def test_parse_obo_ignores_typedef_and_alt_id():
    text = "[Term]\nid: GO:0005634\nname: nucleus\nalt_id: GO:9999999\nnamespace: cellular_component\n\n[Typedef]\nid: part_of\nname: part of\n"
    records = parse_obo_document(io.StringIO(text), Terminology.GO_CC).records
    assert len(records) == 1
    assert records[0].synonyms == ()


def test_parse_obo_accepts_bytes_stream():
    records = parse_obo_document(io.BytesIO(HPO_OBO.encode()), Terminology.HPO).records
    assert len(records) == 2


def test_filter_namespace_picks_cellular_component():
    records = parse_obo_document(io.StringIO(GO_OBO), Terminology.GO_CC).records
    cc = filter_namespace(records, "cellular_component")
    assert [r.identifier for r in cc] == ["GO:0005634", "GO:0005829"]


def test_filter_namespace_absent_namespace_empty():
    records = parse_obo_document(io.StringIO(GO_OBO), Terminology.GO_CC).records
    assert filter_namespace(records, "molecular_function") == []


def test_filter_namespace_idempotent_and_subset():
    records = parse_obo_document(io.StringIO(GO_OBO), Terminology.GO_CC).records
    once = filter_namespace(records, "cellular_component")
    twice = filter_namespace(once, "cellular_component")
    assert once == twice
    assert set(r.identifier for r in once) <= set(r.identifier for r in records)


def test_parse_gene_map_rows():
    tsv = "gene_symbol\tprotein_name\nTP53\ttumor protein p53\nSOD1\tsuperoxide dismutase 1\n"
    records = parse_gene_map(io.StringIO(tsv))
    assert records[0] == TermRecord(Terminology.GENE, "TP53", "tumor protein p53")
    assert records[1] == TermRecord(Terminology.GENE, "SOD1", "superoxide dismutase 1")


def test_parse_gene_map_bad_row_names_line():
    tsv = "gene_symbol\tprotein_name\nTP53\ttumor protein p53\nbad row with no tab\n"
    with pytest.raises(ParseError) as exc:
        parse_gene_map(io.StringIO(tsv))
    assert exc.value.line_number == 3


def test_parse_gene_map_bad_symbol():
    tsv = "gene_symbol\tprotein_name\ntp53\tlowercase symbol\n"
    with pytest.raises(ValidationError):
        parse_gene_map(io.StringIO(tsv))


def test_parse_gene_map_requires_header():
    with pytest.raises(ParseError):
        parse_gene_map(io.StringIO("TP53\ttumor protein p53\n"))


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_parse_obo_keeps_unicode_line_separators_in_labels(separator):
    text = f"format-version: 1.2\r\n\r\n[Term]\r\nid: HP:0001337\r\nname: left{separator}right\r\n"
    records = parse_obo_document(io.StringIO(text), Terminology.HPO).records
    assert records == [TermRecord(Terminology.HPO, "HP:0001337", f"left{separator}right")]


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_parse_gene_map_keeps_unicode_line_separators_in_labels(separator):
    tsv = f"gene_symbol\tprotein_name\r\nTP53\ttumor{separator}protein p53\r\nSOD1\tsod\r\n"
    records = parse_gene_map(io.StringIO(tsv))
    assert records == [
        TermRecord(Terminology.GENE, "TP53", f"tumor{separator}protein p53"),
        TermRecord(Terminology.GENE, "SOD1", "sod"),
    ]


def test_build_index_lookup():
    records = [
        TermRecord(Terminology.HPO, "HP:0001337", "tremor"),
        TermRecord(Terminology.HPO, "HP:0001251", "ataxia"),
    ]
    index = build_index(records)
    assert len(index) == 2
    assert index.by_identifier["HP:0001337"].label == "tremor"
    assert index.by_label["ataxia"] == "HP:0001251"


def test_build_index_duplicate_identifier_fails():
    records = [
        TermRecord(Terminology.HPO, "HP:0001337", "tremor"),
        TermRecord(Terminology.HPO, "HP:0001337", "shaking"),
    ]
    with pytest.raises(ValidationError, match="HP:0001337"):
        build_index(records)


def test_build_index_duplicate_label_fails():
    records = [
        TermRecord(Terminology.HPO, "HP:0001337", "tremor"),
        TermRecord(Terminology.HPO, "HP:0001251", "Tremor"),
    ]
    with pytest.raises(ValidationError, match="Tremor"):
        build_index(records)


def test_build_index_empty():
    assert len(build_index([])) == 0


def test_records_jsonl_round_trip():
    records = parse_obo_document(io.StringIO(GO_OBO), Terminology.GO_CC).records
    buf = io.StringIO()
    write_records_jsonl(records, buf)
    assert read_records_jsonl(io.StringIO(buf.getvalue())) == records


def test_record_invariants_enforced():
    with pytest.raises(ValidationError):
        TermRecord(Terminology.HPO, "HP:0000001", "   ")
    with pytest.raises(ValidationError):
        TermRecord(Terminology.HPO, "HP:0000001", "x", synonyms=("a", "a"))
    with pytest.raises(ValidationError):
        TermRecord(Terminology.HPO, "HP:0000001", "x", synonyms=("x",))


@st.composite
def _stanzas(draw):
    n = draw(st.integers(0, 6))
    parts = ["format-version: 1.2\n"]
    expected = 0
    for i in range(n):
        has_id = draw(st.booleans())
        has_name = draw(st.booleans())
        obsolete = draw(st.booleans())
        parts.append("\n[Term]\n")
        if has_id:
            parts.append(f"id: HP:{i:07d}\n")
        if has_name:
            parts.append(f"name: term {i}\n")
        if obsolete:
            parts.append("is_obsolete: true\n")
        if not obsolete and has_id and has_name:
            expected += 1
        elif not obsolete:
            expected = None  # parse error expected
        if expected is None:
            break
    return "".join(parts), expected


@given(_stanzas())
def test_parse_or_error_never_silent_drop(case):
    text, expected = case
    if expected is None:
        with pytest.raises(ParseError):
            parse_obo_document(io.StringIO(text), Terminology.HPO).records
    else:
        assert len(parse_obo_document(io.StringIO(text), Terminology.HPO).records) == expected

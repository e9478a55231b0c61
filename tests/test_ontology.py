import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from termbench.errors import ParseError, ValidationError
from termbench.ontology import (
    OboDocument,
    TermRecord,
    Terminology,
    build_index,
    filter_namespace,
    parse_gene_map,
    parse_obo_document,
    read_lines,
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
    assert index["HP:0001337"].label == "tremor"


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


# ---------------------------------------------------------------------------
# Differential test: the stanza parser against the flag-driven one it replaced


def _reference_strip_trailing_comment(value: str) -> str:
    # OBO trailing comments start at an unescaped `!`.
    out = []
    escaped = False
    for ch in value:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            out.append(ch)
            escaped = True
        elif ch == "!":
            break
        else:
            out.append(ch)
    return "".join(out).strip()


_REFERENCE_SYNONYM_RE = re.compile(r'synonym:\s*"((?:[^"\\]|\\.)*)"')


def reference_parse_obo_document(stream, terminology: Terminology) -> OboDocument:
    """The line-by-line parser with in_header/in_term flags and a flush closure."""
    lines = read_lines(stream)

    header: dict[str, str] = {}
    records: list[TermRecord] = []

    stanza: dict | None = None
    stanza_line = 0
    in_term = False
    in_header = True

    def flush():
        if stanza is None:
            return
        if stanza["obsolete"]:
            return
        if stanza["id"] is None or stanza["name"] is None:
            missing = "id:" if stanza["id"] is None else "name:"
            raise ParseError(f"[Term] stanza missing {missing}", stanza_line)
        synonyms: list[str] = []
        for s in stanza["synonyms"]:
            if s and s != stanza["name"] and s not in synonyms:
                synonyms.append(s)
        records.append(
            TermRecord(
                terminology=terminology,
                identifier=stanza["id"],
                label=stanza["name"],
                synonyms=tuple(synonyms),
                namespace=stanza["namespace"],
            )
        )

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            flush()
            stanza = None
            in_header = False
            if stripped == "[Term]":
                in_term = True
                stanza = {
                    "id": None,
                    "name": None,
                    "namespace": None,
                    "synonyms": [],
                    "obsolete": False,
                }
                stanza_line = lineno
            else:
                in_term = False
            continue
        if not stripped:
            continue
        if in_header:
            if ":" in stripped:
                tag, value = stripped.split(":", 1)
                header[tag.strip()] = _reference_strip_trailing_comment(value)
            continue
        if not in_term or stanza is None:
            continue
        if stripped.startswith("synonym:"):
            m = _REFERENCE_SYNONYM_RE.match(stripped)
            if m:
                stanza["synonyms"].append(m.group(1).replace('\\"', '"').strip())
            continue
        if ":" not in stripped:
            continue
        tag, value = stripped.split(":", 1)
        tag = tag.strip()
        value = _reference_strip_trailing_comment(value)
        if tag == "id":
            stanza["id"] = value
        elif tag == "name":
            stanza["name"] = value
        elif tag == "namespace":
            stanza["namespace"] = value
        elif tag == "is_obsolete" and value == "true":
            stanza["obsolete"] = True
    flush()

    return OboDocument(header=header, records=records)


def _outcome(parse, text: str):
    """(header, records) from a parse, or (error type, message) when it raises."""
    try:
        doc = parse(io.StringIO(text), Terminology.HPO)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return doc.header, doc.records


# Text that exercises comments and escapes: `!`, `\!`, `\\`, `\"` and a trailing `\`.
_value_text = st.text(alphabet='ab !\\":\t', max_size=10)
_tag_gap = st.sampled_from(["", "", "", " ", "\t"])  # whitespace before a tag's colon


@st.composite
def _tag_line(draw, tags=("id", "name", "namespace", "is_obsolete", "synonym", "alt_id",
                          "def", "format-version", "data-version")):
    tag = draw(st.sampled_from(tags))
    if tag == "id":
        value = draw(st.sampled_from(
            ["HP:0000001", "HP:0000002", "HP:0000003 ! root", "HP:12", "", "HP:0000004\\!"]))
    elif tag == "is_obsolete":
        value = draw(st.sampled_from(["true", "false", "true ! retired", "TRUE", " true"]))
    elif tag == "synonym":
        quoted = draw(st.one_of(st.sampled_from(["tremor", "b a"]), _value_text))
        quoted = quoted.replace('"', '\\"')
        value = draw(st.sampled_from([
            f'"{quoted}" EXACT []', f'"{quoted}"', f'  "{quoted}" BROAD [] ! c',
            f'"{quoted}', quoted, '""',
        ]))
    else:
        value = draw(_value_text)
    return f"{tag}{draw(_tag_gap)}: {value}"


_stanza_line = _tag_line(("id", "name", "namespace", "is_obsolete",
                          "synonym", "synonym", "synonym", "alt_id"))
_stanza_openers = st.sampled_from(["[Term]", "[Term]", "[Term]", " [Term] ", "[Typedef]",
                                   "[", "[Term] ! c", "[Instance]"])
_other_lines = st.sampled_from(["", "  ", "just words", "! a comment line"])


@st.composite
def _obo_documents(draw):
    lines = draw(st.lists(st.one_of(_tag_line(), _other_lines), max_size=4))
    for _ in range(draw(st.integers(0, 5))):
        lines.append(draw(_stanza_openers))
        # most stanzas carry an id and a name, so most documents parse
        if draw(st.integers(0, 9)):
            lines.append(f"id: HP:000000{draw(st.integers(1, 5))}")
        if draw(st.integers(0, 9)):
            lines.append(f"name: {draw(st.sampled_from(['tremor', 'ataxia', 'a !b']))}")
        lines.extend(draw(st.lists(st.one_of(_stanza_line, _other_lines), max_size=6)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(_obo_documents())
def test_parse_obo_matches_reference_parser(text):
    assert _outcome(parse_obo_document, text) == _outcome(reference_parse_obo_document, text)


@settings(max_examples=300, deadline=None)
@given(_value_text, _value_text)
def test_parse_obo_strips_comments_like_reference_parser(value, other):
    text = f"remark: {value}\\{other}\n[Term]\nid: HP:0000001\nname: x{value}\n"
    assert _outcome(parse_obo_document, text) == _outcome(reference_parse_obo_document, text)

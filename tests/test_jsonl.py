import io
import json
import math
import sys
import tempfile
import threading
from contextlib import closing, redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from termbench.embeddings import EmbeddingCache, FileEmbeddingStore
from termbench.errors import ParseError
from termbench.evaluate import EvalItem, read_results_jsonl, write_results_jsonl
from termbench.jsonl import KeyedStore, iter_rows, write_rows
from termbench.ontology import Terminology, TermRecord, read_records_jsonl, write_records_jsonl
from termbench.outcomes import PairOutcome, read_outcomes_jsonl, write_outcomes_jsonl
from termbench.pmc import QueryCache
from termbench.prompts import Direction, expand_prompts, read_prompts_jsonl, write_prompts_jsonl
from termbench.providers import (
    DecodingParams,
    ReplayProvider,
    TranscriptWriter,
    request_body,
)
from termbench.popularity import PopularityRecord, read_popularity_csv, write_popularity_csv
from termbench.prompts import PromptInstance
from termbench.sampling import SampledPair, Split, pair_id, read_split_jsonl, write_split_jsonl

# Line and paragraph separators that json.dumps(ensure_ascii=False) leaves
# unescaped and str.splitlines would split a row at.
SEPARATORS = ["\u2028", "\u2029", "\u0085"]


def _round_trip(write, read, newline=None):
    """What `read` returns from a UTF-8 file that `write` filled, both opened as a stage
    opens them (`newline=""` for a CSV table)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
        with open(path, encoding="utf-8", newline=newline) as fh:
            return read(fh)


def _pair(sep):
    return SampledPair(Terminology.HPO, f"odd{sep}term", "HP:0000001", 0, Split.TRAIN)


@pytest.mark.parametrize("sep", SEPARATORS)
def test_records_round_trip_separator(tmp_path, sep):
    records = [TermRecord(Terminology.HPO, "HP:0000001", f"a{sep}b", (f"c{sep}",), "ns")]
    back = _round_trip(lambda fh: write_records_jsonl(records, fh), read_records_jsonl)
    assert back == records


@pytest.mark.parametrize("sep", SEPARATORS)
def test_split_round_trip_separator(tmp_path, sep):
    pairs = [_pair(sep)]
    assert _round_trip(lambda fh: write_split_jsonl(pairs, fh),
                       read_split_jsonl) == pairs


@pytest.mark.parametrize("sep", SEPARATORS)
def test_prompts_round_trip_separator(tmp_path, sep):
    pair = _pair(sep)
    prompts = expand_prompts(pair, Direction.TERM_TO_ID) + expand_prompts(
        pair, Direction.ID_TO_TERM)
    back = _round_trip(lambda fh: write_prompts_jsonl(prompts, fh),
                       lambda fh: read_prompts_jsonl(fh, [pair]))
    assert back == prompts


@pytest.mark.parametrize("sep", SEPARATORS)
def test_results_round_trip_separator(tmp_path, sep):
    items = (EvalItem("HPO:HP:0000001", Direction.ID_TO_TERM, 1, f"x{sep}y", f"x{sep}y",
                      False, f"error{sep}text"),)
    back = _round_trip(lambda fh: write_results_jsonl(items, fh), read_results_jsonl)
    assert tuple(back) == items


@pytest.mark.parametrize("sep", SEPARATORS)
def test_outcomes_round_trip_separator(tmp_path, sep):
    outcomes = [PairOutcome(f"HPO:{sep}", Terminology.HPO, Direction.TERM_TO_ID,
                            Split.VALIDATION, True, False)]
    assert _round_trip(lambda fh: write_outcomes_jsonl(outcomes, fh),
                       read_outcomes_jsonl) == outcomes


# Every artifact's reader inverts its writer, through a file. Strings may be
# empty (a record's label may not), hold the separators above, a lone "\r"
# (which ends a CSV row unless quoted) and any other character a UTF-8 file
# can hold; counts, bin indices and template ids may be
# larger than 64 bits; an eval item's error may be None.
_TEXT = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from([*SEPARATORS, "\r"]),
                max_size=8)
_BIG = st.integers(-2**100, 2**100)
_COUNT = st.integers(0, 2**100)
_TERMINOLOGY = st.sampled_from(Terminology)
_DIRECTION = st.sampled_from(Direction)
_SPLIT = st.sampled_from(Split)
_IDENTIFIER_SYNTAX = {Terminology.HPO: r"HP:[0-9]{7}", Terminology.GO_CC: r"GO:[0-9]{7}",
                      Terminology.GENE: r"[A-Z][A-Z0-9-]{0,6}"}


@st.composite
def _term_records(draw):
    t = draw(_TERMINOLOGY)
    label = draw(_TEXT.filter(str.strip))
    synonyms = draw(st.lists(_TEXT.filter(lambda s: s != label), unique=True, max_size=3))
    return TermRecord(t, draw(st.from_regex(_IDENTIFIER_SYNTAX[t], fullmatch=True)), label,
                      tuple(synonyms), draw(st.none() | _TEXT))


_PAIRS = st.builds(SampledPair, _TERMINOLOGY, _TEXT, _TEXT, _BIG, _SPLIT)


@settings(max_examples=50, deadline=None)
@given(records=st.lists(_term_records(), max_size=4))
def test_records_file_round_trips(records):
    assert _round_trip(lambda fh: write_records_jsonl(records, fh), read_records_jsonl) == records


@settings(max_examples=50, deadline=None)
@given(records=st.lists(st.builds(PopularityRecord, _TERMINOLOGY, _TEXT, _TEXT,
                                  _COUNT, _COUNT, _COUNT), max_size=4))
def test_popularity_csv_round_trips(records):
    assert _round_trip(lambda fh: write_popularity_csv(records, fh), read_popularity_csv,
                       newline="") == records


@settings(max_examples=50, deadline=None)
@given(pairs=st.lists(_PAIRS, max_size=4))
def test_split_file_round_trips(pairs):
    assert _round_trip(lambda fh: write_split_jsonl(pairs, fh), read_split_jsonl) == pairs


@settings(max_examples=50, deadline=None)
@given(data=st.data(), pairs=st.lists(_PAIRS, min_size=1, max_size=3, unique_by=pair_id))
def test_prompts_file_round_trips(data, pairs):
    prompts = data.draw(st.lists(st.builds(PromptInstance, st.sampled_from(pairs), _DIRECTION,
                                           _BIG, _TEXT, _TEXT), max_size=4))
    assert _round_trip(lambda fh: write_prompts_jsonl(prompts, fh),
                       lambda fh: read_prompts_jsonl(fh, pairs)) == prompts


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.builds(EvalItem, _TEXT, _DIRECTION, _BIG, _TEXT, _TEXT, st.booleans(),
                                st.none() | _TEXT), max_size=4))
def test_results_file_round_trips(items):
    assert _round_trip(lambda fh: write_results_jsonl(items, fh), read_results_jsonl) == items


@settings(max_examples=50, deadline=None)
@given(outcomes=st.lists(st.builds(PairOutcome, _TEXT, _TERMINOLOGY, _DIRECTION, _SPLIT,
                                   st.booleans(), st.booleans()), max_size=4))
def test_outcomes_file_round_trips(outcomes):
    assert _round_trip(lambda fh: write_outcomes_jsonl(outcomes, fh),
                       read_outcomes_jsonl) == outcomes


@pytest.mark.parametrize("sep", SEPARATORS)
def test_embedding_store_round_trip_separator(tmp_path, sep):
    path = tmp_path / "store.jsonl"
    with closing(EmbeddingCache(path)) as cache:
        cache.put(f"a{sep}b", np.array([1.0, 2.0]))
        cache.put("plain", np.array([3.0, 4.0]))
    assert [json.loads(line)["text"] for line in path.read_text("utf-8").split("\n")
            if line] == [f"a{sep}b", "plain"]
    store = FileEmbeddingStore.from_path(path)
    assert store.embed(f"a{sep}b").tolist() == [1.0, 2.0]


@pytest.mark.parametrize("sep", SEPARATORS)
def test_transcript_round_trip_separator(tmp_path, sep):
    path = tmp_path / "t.jsonl"
    prompt = f"What is{sep}this?"
    with closing(TranscriptWriter(path, "m", DecodingParams(), ())) as writer:
        writer.record(prompt, request_body(prompt, "m", DecodingParams()), f"answer{sep}text")
    provider = ReplayProvider.from_transcript(path, "m", DecodingParams(), [prompt])
    assert provider.complete(prompt, "m", DecodingParams()) == f"answer{sep}text"


@pytest.mark.parametrize("sep", SEPARATORS)
def test_pmc_cache_round_trip_separator(tmp_path, sep):
    path = tmp_path / "cache.jsonl"
    with closing(QueryCache(path)) as cache:
        cache.put(f'"a{sep}b"[All Fields]', "pmc", 7, "t1")
    assert QueryCache(path).get(f'"a{sep}b"[All Fields]', "pmc") == 7


class RowStore(KeyedStore):
    @staticmethod
    def entry(row):
        return (row["thread"], row["i"]), row["pad"]


def test_keyed_store_keeps_every_row_under_contending_threads(tmp_path):
    path = tmp_path / "rows.jsonl"

    def append_rows(store, thread):
        for i in range(200):
            store.put({"thread": thread, "i": i, "pad": "x" * 500})

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with closing(RowStore(path)) as store:
            threads = [threading.Thread(target=append_rows, args=(store, t)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            flushed = path.read_text(encoding="utf-8")  # each row is flushed as it is written
    finally:
        sys.setswitchinterval(switch)
    rows = [json.loads(line) for line in flushed.split("\n") if line]
    assert sorted((r["thread"], r["i"]) for r in rows) == [(t, i) for t in range(8)
                                                         for i in range(200)]
    assert path.read_text(encoding="utf-8") == flushed
    assert RowStore(path).get((7, 199)) == "x" * 500


def test_keyed_store_last_row_for_a_key_wins_and_nothing_is_made_without_a_row(tmp_path):
    path = tmp_path / "sub" / "rows.jsonl"
    with closing(RowStore(path)) as store:
        assert store.get((0, 0)) is None
    assert not path.parent.exists()
    with closing(RowStore(path)) as store:
        store.put({"thread": 0, "i": 0, "pad": "old"})
        store.put({"thread": 0, "i": 0, "pad": "new"})
        assert store.get((0, 0)) == "new"
    assert RowStore(path).get((0, 0)) == "new"


def test_pmc_cache_whose_last_row_lacks_its_newline_gets_the_next_row_on_its_own_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"query": "q", "db": "pmc", "count": 1}), encoding="utf-8")
    with closing(QueryCache(path)) as cache:
        assert cache.get("q", "pmc") == 1
        cache.put("r", "pmc", 2, "t")
    assert [json.loads(line)["query"] for line in path.read_text("utf-8").split("\n")
            if line] == ["q", "r"]
    again = QueryCache(path)
    assert (again.get("q", "pmc"), again.get("r", "pmc")) == (1, 2)


# ---------------------------------------------------------------------------
# the three keyed stores: put, close, reopen

_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))


def _check_round_trip(open_store, put, get, items, cut):
    """After a store gets all but the last of `items` and is closed, and gets the last
    item once reopened, a third opening answers every key as its last `put` did.

    With `cut` set, the file's final "\n" is cut before the second opening.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        with closing(open_store(path)) as store:
            for key, value in items[:-1]:
                put(store, key, value)
        if cut and path.exists():
            path.write_bytes(path.read_bytes().removesuffix(b"\n"))
        with closing(open_store(path)) as store:
            put(store, *items[-1])
        reopened = open_store(path)
        for key, value in dict(items).items():
            assert get(reopened, key) == value


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.tuples(st.tuples(_TEXT, st.sampled_from(["pmc", ""])),
                                st.integers(0, 2**70)), min_size=1, max_size=5),
       cut=st.booleans())
def test_pmc_cache_round_trips(items, cut):
    _check_round_trip(QueryCache, lambda cache, key, count: cache.put(*key, count, "t"),
                      lambda cache, key: cache.get(*key), items, cut)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.tuples(st.tuples(_TEXT, st.sampled_from(["m", "m-ft", ""]), _FLOATS,
                                          st.integers(0, 2**40)), _TEXT),
                      min_size=1, max_size=5),
       cut=st.booleans())
# 0.0 == -0.0, so the two requests are one key
@example(items=[(("", "m", 0.0, 0), ""), (("", "m", -0.0, 0), "0")], cut=False)
def test_transcript_round_trips(items, cut):
    def record(transcript, key, text):
        prompt, model, temperature, max_tokens = key
        transcript.record(prompt, request_body(prompt, model,
                                               DecodingParams(temperature, max_tokens)), text)

    def replay(transcript, key):  # one join per request
        prompt, model, temperature, max_tokens = key
        return TranscriptWriter(transcript.path, model, DecodingParams(temperature, max_tokens),
                                [prompt]).get(prompt)

    _check_round_trip(lambda path: TranscriptWriter(path, "m", DecodingParams(), ()),
                      record, replay, items, cut)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(st.tuples(_TEXT, st.lists(_FLOATS, min_size=1, max_size=4)),
                      min_size=1, max_size=5),
       cut=st.booleans())
def test_embedding_cache_round_trips(items, cut):
    # vectors compare as bytes, so -0.0 must come back as -0.0
    items = [(text, np.array(vector).tobytes()) for text, vector in items]
    _check_round_trip(EmbeddingCache, lambda cache, text, raw: cache.put(text, np.frombuffer(raw)),
                      lambda cache, text: cache.get(text).tobytes(), items, cut)


# ---------------------------------------------------------------------------
# reader and writer contract


def test_write_rows_matches_json_dumps():
    rows = [{"b": "é\u2028", "a": [1, 2.5, None, True]}, {}]
    buf = io.StringIO()
    assert write_rows(rows, buf) == 2
    assert buf.getvalue() == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)


def test_iter_rows_skips_blank_lines():
    text = '\ufeff{"a": 1}\n\n   \n{"a": 2}\r\n{"a": 3}'
    assert list(iter_rows(io.StringIO(text), lambda r: r["a"])) == [1, 2, 3]


@pytest.mark.parametrize("text,message", [
    ('{"a": 1}\n{"a": \n', "line 2: bad JSON"),
    ('{"a": 1}\n\n{"b": 1}\n', "line 3: missing key 'a'"),
    ('{"a": 1}\n{"a": "x"}\n', "line 2: invalid literal"),
    ('[1]\n', "line 1: list indices"),
])
def test_iter_rows_errors_name_the_line(text, message):
    with pytest.raises(ParseError, match=message):
        list(iter_rows(io.StringIO(text), lambda r: int(r["a"])))


def test_iter_rows_builder_parse_error_gets_line():
    def build(row):
        raise ParseError("rejected")
    with pytest.raises(ParseError) as exc:
        list(iter_rows(io.StringIO('\n{"a": 1}\n'), build))
    assert exc.value.line_number == 2
    assert str(exc.value) == "line 2: rejected"


def test_unknown_enum_value_is_parse_error():
    row = {"terminology": "HPO", "term": "t", "identifier": "HP:0000001",
           "bin_index": 0, "split": "trian"}
    with pytest.raises(ParseError, match="line 1: 'trian' is not a valid Split"):
        read_split_jsonl(io.StringIO(json.dumps(row) + "\n"))


def test_pmc_cache_bad_last_line_is_parse_error(tmp_path):
    # a bad last row that ends in "\n" is no torn row: it fails with its line
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"query": "q", "db": "pmc", "count": 1, "retrieved_at": "t"})
        + '\n{"query": "r", "db": "pm\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: bad JSON") as exc:
        QueryCache(path)
    assert not isinstance(exc.value, json.JSONDecodeError)


def _transcript_join(path):
    return TranscriptWriter(path, "m", DecodingParams(), ["p"])


@pytest.mark.parametrize("open_store,good,bad,kind", [
    (QueryCache, {"query": "q", "db": "pmc", "count": 1},
     {"query": ["q"], "db": "pmc", "count": 1}, "list"),
    (_transcript_join, {"prompt_hash": "h", "response": {"text": "x"}},
     {"prompt_hash": ["h"], "response": {"text": "x"}}, "list"),
    (_transcript_join, {"prompt_hash": "h", "response": {"text": "x"}},
     {"prompt_hash": {"h": 1}, "response": {"text": "x"}}, "dict"),
    (EmbeddingCache, {"text": "t", "dim": 1, "vector": [1.0]},
     {"text": ["t"], "dim": 1, "vector": [1.0]}, "list"),
], ids=["pmc-query", "transcript-prompt-hash-list", "transcript-prompt-hash-object",
        "embedding-text"])
def test_a_store_row_whose_key_cannot_be_hashed_names_its_file_and_line(tmp_path, open_store,
                                                                        good, bad, kind):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        open_store(path)
    assert str(exc.value) == f"{path}: line 2: unhashable type: '{kind}'"


def _pmc_row(query: str) -> dict:
    return {"query": query, "db": "pmc", "count": len(query), "retrieved_at": "t"}


def _transcript_row(prompt: str) -> dict:
    return {"prompt_hash": "h", "request": request_body(prompt, "m", DecodingParams()),
            "response": {"text": prompt.upper()}, "timestamp": "t"}


def _store_lines(store_type, make_row, texts) -> list[bytes]:
    """The file lines of a store that put one row for each text."""
    with tempfile.TemporaryDirectory() as tmp, closing(store_type(Path(tmp) / "s.jsonl")) as s:
        for text in texts:
            KeyedStore.put(s, make_row(text))
        s.close()
        return s.path.read_bytes().splitlines(keepends=True)


@settings(max_examples=15, deadline=None)
@given(texts=st.lists(st.text(alphabet='ab"\\ \u2028', max_size=6), min_size=1, max_size=3,
                      unique=True),
       store=st.sampled_from(["pmc", "transcript"]))
def test_a_torn_last_row_is_dropped_and_cut_off_before_the_next_row(texts, store):
    # A process killed as it appended a row leaves it torn. Cut the last row at
    # every byte inside it, one inside a two-byte "\u00fc" among them: the store
    # loads every whole row, says once where it dropped the torn one, and the
    # next row starts where the torn one did.
    texts = [*texts[:-1], texts[-1] + "\u00fc"]
    assume(len(set(texts)) == len(texts))
    if store == "pmc":
        store_type, make_row, key = QueryCache, _pmc_row, lambda text: (text, "pmc")
    else:  # a join over every text the test puts
        def store_type(path):
            return TranscriptWriter(path, "m", DecodingParams(), [*texts, "new"])
        make_row, key = _transcript_row, lambda text: text

    def has(s, text):
        return KeyedStore.get(s, key(text)) is not None

    *whole, last = _store_lines(store_type, make_row, texts)
    head = b"".join(whole)
    expected = _store_lines(store_type, make_row, [*texts[:-1], "new"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        for cut in range(1, len(last)):
            path.write_bytes(head + last[:cut])
            err = io.StringIO()
            with redirect_stderr(err), closing(store_type(path)) as s:
                keeps_last = cut == len(last) - 1  # only its "\n" is gone: a whole row
                assert [has(s, text) for text in texts] == [*(True for _ in whole), keeps_last]
                KeyedStore.put(s, make_row("new"))
            lines = path.read_bytes().splitlines(keepends=True)
            assert lines == (expected if not keeps_last else [*whole, last, expected[-1]])
            assert err.getvalue() == ("" if keeps_last else
                                      f"warning: {path}: dropped the torn last row at byte "
                                      f"{len(head)}; it is cut off before the next row is added\n")
            with closing(store_type(path)) as s:  # it reloads whole
                assert [has(s, text) for text in texts] == [*(True for _ in whole), keeps_last]
                assert has(s, "new")


@pytest.mark.parametrize("reader,row,field,enum_name", [
    (read_records_jsonl, {"terminology": "HPO", "identifier": "HP:0000001", "label": "a",
                          "synonyms": [], "namespace": None}, "terminology", "Terminology"),
    (read_split_jsonl, {"terminology": "HPO", "term": "t", "identifier": "HP:0000001",
                        "bin_index": 0, "split": "train"}, "terminology", "Terminology"),
    (read_split_jsonl, {"terminology": "HPO", "term": "t", "identifier": "HP:0000001",
                        "bin_index": 0, "split": "train"}, "split", "Split"),
    (lambda fh: read_prompts_jsonl(fh, [_pair("")]),
     {"pair_id": "HPO:HP:0000001", "direction": "term_to_id", "template_id": 1,
      "prompt_text": "p", "expected_answer": "HP:0000001"}, "direction", "Direction"),
    (read_results_jsonl, {"pair_id": "HPO:HP:0000001", "direction": "term_to_id",
                          "template_id": 1, "raw_output": "", "normalized_output": "",
                          "correct": False, "error": None}, "direction", "Direction"),
    *((read_outcomes_jsonl, {"pair_id": "HPO:HP:0000001", "terminology": "HPO",
                             "direction": "term_to_id", "split": "train",
                             "baseline_correct": True, "finetuned_correct": False,
                             "category": "Loser"}, field, enum_name)
      for field, enum_name in (("terminology", "Terminology"), ("direction", "Direction"),
                               ("split", "Split"))),
])
@pytest.mark.parametrize("value", ["bogus", ["x"]], ids=["unknown", "unhashable"])
def test_row_readers_name_a_bad_enum_value(reader, row, field, enum_name, value):
    text = json.dumps(row) + "\n" + json.dumps(dict(row, **{field: value})) + "\n"
    with pytest.raises(ParseError) as exc:
        reader(io.StringIO(text))
    assert str(exc.value) == f"line 2: {value!r} is not a valid {enum_name}"


# ---------------------------------------------------------------------------
# codecs against json.loads / json.dumps


def reference_iter_rows(stream, build):
    """iter_rows as first written: `json.loads` on every non-blank line."""
    for lineno, line in enumerate(stream, start=1):
        if lineno == 1:
            line = line.lstrip("\ufeff")
        if not line.strip():
            continue
        try:
            item = build(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", lineno) from exc
        except KeyError as exc:
            raise ParseError(f"missing key {exc}", lineno) from exc
        except (ValueError, TypeError, ParseError) as exc:
            raise ParseError(str(exc), lineno) from exc
        yield item


def _decoded(read, stream):
    """The rows `read` yields (as a repr, so NaN compares equal), or its error."""
    try:
        return "rows", repr(list(read(stream, lambda row: row)))
    except ParseError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


_SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, math.inf, -math.inf,
                                   math.nan])
_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2**300, max_value=2**300)
            | st.floats() | _SPECIAL_FLOATS | st.text(max_size=6)
            | st.sampled_from(["\u2028", "\u2029", "\x85", "\ufeff", "\ud800", '"\\', "é"]))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=10)
_ROWS = st.dictionaries(st.text(max_size=5), _VALUES, max_size=4)

# Lines json.loads rejects, or that only the blank-line rule skips, or that
# hold what the scanner and json.loads might read differently.
_ODD_LINES = st.sampled_from([
    "", "   ", "\t", "\r", "\x0b", "\x0c", "\x85", "\u2028", "\u2029", "\ufeff",
    '\ufeff{"a": 1}', '\x0c{"a": 1}', '{"a": 1}\x0c', ' {"a": 1}\t', '{"a": 1} x',
    '{"a": 1}{}', '{"a": 1}\u2028', '{"a": NaN}', "[Infinity, -Infinity, NaN]", "-Infinity",
    '"\\ud800"', '{"s": "\\udc00x\\ud83d"}', '{"a": ', "nul", "1 2", '{"a": "b\tc"}',
    "{'a': 1}", '{"a": 1,}', "[1] ]", "\\", "1e999", "-", "0123",
])
_LINES = (st.builds(lambda row, ascii: json.dumps(row, ensure_ascii=ascii), _ROWS, st.booleans())
          | _ODD_LINES
          | st.text(st.characters(exclude_categories=("Cs",)), max_size=6))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINES, max_size=6), sep=st.sampled_from(["\n", "\r\n"]),
       bom=st.booleans(), final=st.booleans())
def test_iter_rows_matches_the_json_loads_reference(lines, sep, bom, final):
    text = ("\ufeff" if bom else "") + sep.join(lines) + (sep if final else "")
    expected = _decoded(reference_iter_rows, io.StringIO(text))
    assert _decoded(iter_rows, io.StringIO(text)) == expected


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_ROWS | st.dictionaries(st.text(max_size=3), _SPECIAL_FLOATS, max_size=3),
                     max_size=4))
def test_write_rows_matches_json_dumps_on_generated_rows(rows):
    buf = io.StringIO()
    assert write_rows(rows, buf) == len(rows)
    assert buf.getvalue() == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)


def test_write_rows_encodes_a_container_again_after_a_failed_row():
    inner = [object()]
    row = {"a": inner}
    with pytest.raises(TypeError) as exc:
        write_rows([row], io.StringIO())
    with pytest.raises(TypeError) as reference:
        json.dumps(row, ensure_ascii=False)
    assert str(exc.value) == str(reference.value)
    inner[0] = 1
    buf = io.StringIO()
    write_rows([row], buf)
    assert buf.getvalue() == '{"a": [1]}\n'
    circular = {}
    circular["self"] = circular
    with pytest.raises(ValueError, match="Circular reference detected"):
        write_rows([circular], io.StringIO())

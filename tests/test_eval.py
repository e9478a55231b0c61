import ast
import gc
import hashlib
import io
import json
import re
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import termbench.providers
from termbench.errors import (
    ConsistencyError,
    DomainError,
    ParseError,
    PermanentHttpError,
    ProtocolError,
    TransportError,
)
from termbench.evaluate import (
    EvalItem,
    Phase,
    RunFailedError,
    expected_answers,
    normalize_answer,
    pair_correctness,
    read_results_jsonl,
    run_eval,
    run_summary,
    score_item,
    write_results_jsonl,
)
from termbench.ontology import Terminology
from termbench.prompts import Direction, expand_prompts
from termbench.providers import (
    DecodingParams,
    HttpCompletionProvider,
    ReplayProvider,
    TranscriptWriter,
    prompt_hash,
    request_body,
)
from termbench.jsonl import KeyedStore
from termbench.remote import Endpoint
from termbench.sampling import SampledPair, Split, pair_id


def _pair(term="tremor", identifier="HP:0001337", terminology=Terminology.HPO):
    return SampledPair(terminology=terminology, term=term, identifier=identifier,
                       bin_index=0, split=Split.TRAIN)


def _prompt(pair, direction=Direction.TERM_TO_ID):
    return expand_prompts(pair, direction)[0]


# ---------------------------------------------------------------------------
# normalize_answer


def test_normalize_strips_quotes_and_trailing_period():
    out = normalize_answer('"HP:0001337."', Terminology.HPO, Direction.TERM_TO_ID,
                           extract=False)
    assert out == "HP:0001337"


def test_normalize_strict_keeps_full_string():
    out = normalize_answer("The answer is HP:0001337", Terminology.HPO,
                           Direction.TERM_TO_ID, extract=False)
    assert out == "THE ANSWER IS HP:0001337"


def test_normalize_extract_mode_pulls_identifier():
    out = normalize_answer("The answer is HP:0001337", Terminology.HPO,
                           Direction.TERM_TO_ID, extract=True)
    assert out == "HP:0001337"


def test_normalize_extract_mode_case_insensitive_for_prefixed_ids():
    out = normalize_answer("it should be hp:0001337, I think", Terminology.HPO,
                           Direction.TERM_TO_ID, extract=True)
    assert out == "HP:0001337"


def test_normalize_extract_mode_gene_symbol():
    out = normalize_answer("The symbol is TP53.", Terminology.GENE,
                           Direction.TERM_TO_ID, extract=True)
    assert out == "TP53"


def test_normalize_extract_gene_ignores_capitalized_words():
    out = normalize_answer("The Protein maps to SOD1", Terminology.GENE,
                           Direction.TERM_TO_ID, extract=True)
    assert out == "SOD1"


def test_normalize_id_to_term_lowercases_and_trims():
    out = normalize_answer("  Tremor ", Terminology.HPO, Direction.ID_TO_TERM, extract=False)
    assert out == "tremor"


def test_normalize_collapses_internal_whitespace():
    out = normalize_answer("tumor  protein\tp53", Terminology.GENE, Direction.ID_TO_TERM,
                           extract=False)
    assert out == "tumor protein p53"


def test_normalize_empty_string():
    assert normalize_answer("", Terminology.HPO, Direction.TERM_TO_ID, extract=False) == ""


def test_normalize_single_trailing_punctuation_only():
    assert normalize_answer("HP:0001337;;", Terminology.HPO, Direction.TERM_TO_ID,
                            extract=False) == "HP:0001337;"


_REFERENCE_EXTRACT = {
    Terminology.HPO: re.compile(r"HP:\d{7}", re.IGNORECASE),
    Terminology.GO_CC: re.compile(r"GO:\d{7}", re.IGNORECASE),
    Terminology.GENE: re.compile(r"(?<![A-Za-z0-9-])[A-Z][A-Z0-9-]*(?![A-Za-z0-9-])"),
}


def reference_normalize(raw, terminology, direction, extract=False):
    """normalize_answer as first written, collapsing whitespace through `re.sub`."""
    text = raw.strip()
    if len(text) >= 2 and (text[0], text[-1]) in {('"', '"'), ("'", "'"), ("“", "”"),
                                                   ("‘", "’")}:
        text = text[1:-1].strip()
    if text and text[-1] in ".,;":
        text = text[:-1].rstrip()
    text = re.sub(r"\s+", " ", text)
    if direction is Direction.ID_TO_TERM:
        return text.lower()
    if extract:
        match = _REFERENCE_EXTRACT[terminology].search(text)
        if match:
            text = match.group(0)
    return text.upper()


# Every character `str.strip` or `\s` treats as whitespace, and the quote and
# punctuation characters normalize_answer trims.
_UNICODE_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_ANSWER_PARTS = st.sampled_from(
    _UNICODE_WHITESPACE + ['"', "'", "“", "”", "‘", "’", ".", ",", ";", "-", "a", "Z", "ß",
                           "İ", "HP:0001337", "go:0005634", "TP53", "tumor protein"])


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_ANSWER_PARTS | st.text(max_size=3), max_size=12),
       terminology=st.sampled_from(list(Terminology)),
       direction=st.sampled_from(list(Direction)), extract=st.booleans())
# one space then another whitespace character: a run, though no "  " appears
@example(parts=["a", " ", "\t", "b"], terminology=Terminology.HPO,
         direction=Direction.ID_TO_TERM, extract=False)
def test_normalize_answer_matches_the_re_sub_reference(parts, terminology, direction,
                                                       extract):
    raw = "".join(parts)
    assert (normalize_answer(raw, terminology, direction, extract)
            == reference_normalize(raw, terminology, direction, extract))


def test_the_space_is_the_one_printable_whitespace_character():
    # normalize_answer skips its whitespace regex for a printable text with no "  "
    every = "".join(map(chr, range(0x110000)))
    assert [c for c in re.findall(r"\s", every) if c.isprintable()] == [" "]


def test_score_item_exact():
    assert score_item("HP:0001337", "HP:0001337")
    assert not score_item("HP:0001338", "HP:0001337")
    assert score_item("tremor", "tremor")


# ---------------------------------------------------------------------------
# replay provider + run_eval


def _run_eval(provider, prompts, model_id, concurrency_limit=1, extract=False):
    """`run_eval` scored against `expected_answers` of the prompts."""
    expected = expected_answers(prompts, extract)
    return run_eval(provider, prompts, expected, model_id, concurrency_limit, extract)


def _accuracy(items):
    """A run's accuracy as its summary reports it."""
    return run_summary(items, "m", Terminology.HPO, Direction.TERM_TO_ID,
                       Phase.BASELINE)["accuracy"]


_M = ("m", DecodingParams())  # the model and settings `_run_eval` asks for


def _make_replay(prompts, answers, model="m"):
    return ReplayProvider({p.prompt_text: a for p, a in zip(prompts, answers)},
                          (model, DecodingParams()))


def test_run_eval_all_correct():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(4)]
    prompts = [_prompt(p) for p in pairs]
    provider = _make_replay(prompts, [p.expected_answer for p in prompts])
    items = _run_eval(provider, prompts, "m")
    assert _accuracy(items) == 1.0
    assert all(i.correct for i in items)


def test_run_eval_three_of_four():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(4)]
    prompts = [_prompt(p) for p in pairs]
    answers = [p.expected_answer for p in prompts]
    answers[2] = "HP:9999999"
    provider = _make_replay(prompts, answers)
    items = _run_eval(provider, prompts, "m")
    assert _accuracy(items) == 0.75


def test_run_eval_provider_failure_counts_incorrect():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(4)]
    prompts = [_prompt(p) for p in pairs]
    provider = _make_replay(prompts[:3], [p.expected_answer for p in prompts[:3]])
    items = _run_eval(provider, prompts, "m")
    failed = [i for i in items if i.error is not None]
    assert len(failed) == 1
    assert not failed[0].correct
    assert _accuracy(items) == 0.75


def test_run_eval_all_failed_raises():
    prompts = [_prompt(_pair())]
    provider = ReplayProvider({}, _M)
    with pytest.raises(RunFailedError):
        _run_eval(provider, prompts, "m")


def test_run_eval_order_stable_under_concurrency():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(40)]
    prompts = [_prompt(p) for p in pairs]
    provider = _make_replay(prompts, [p.expected_answer for p in prompts])
    sequential = _run_eval(provider, prompts, "m", concurrency_limit=1)
    threaded = _run_eval(provider, list(reversed(prompts)), "m",
                         concurrency_limit=8)
    assert sequential == threaded


def test_run_eval_keeps_few_submissions_outstanding(monkeypatch):
    lock = threading.Lock()
    counts = {"outstanding": 0, "peak": 0}
    submit = ThreadPoolExecutor.submit

    def counting_submit(self, fn, *args, **kwargs):
        with lock:
            counts["outstanding"] += 1
            counts["peak"] = max(counts["peak"], counts["outstanding"])

        def run():
            try:
                return fn(*args, **kwargs)
            finally:  # before the future is done, so a waiter never sees a stale count
                with lock:
                    counts["outstanding"] -= 1

        return submit(self, run)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    prompts = [_prompt(_pair(term=f"t{i}", identifier=f"HP:{i:07d}")) for i in range(200)]
    answers = {p.prompt_text: p.expected_answer for p in prompts}
    release = threading.Event()

    class BlockingProvider:
        def complete(self, prompt_text, model_id, params):
            release.wait(timeout=10)
            return answers[prompt_text]

    timer = threading.Timer(0.2, release.set)
    timer.start()
    try:
        items = _run_eval(BlockingProvider(), prompts, "m", concurrency_limit=2)
    finally:
        timer.join()
    assert len(items) == 200 and _accuracy(items) == 1.0
    assert 2 <= counts["peak"] <= 4


def test_run_eval_scores_against_expected_answers_given_once():
    pairs = [_pair(term=f"T {i}", identifier=f"HP:{i:07d}") for i in range(4)]
    prompts = [_prompt(p, Direction.ID_TO_TERM) for p in pairs]
    provider = _make_replay(prompts, ["t 0", "T  1.", "t 9", '"t 3"'])
    expected = expected_answers(prompts, False)
    assert expected == ["t 0", "t 1", "t 2", "t 3"]
    given = run_eval(provider, prompts, expected, "m", 1, False)
    assert [i.correct for i in given] == [True, True, False, True]
    with pytest.raises(DomainError, match="3 expected answers for 4 prompts"):
        run_eval(provider, prompts, expected[:3], "m", 1, False)


def test_run_eval_items_share_equal_strings():
    # the next stage holds every item, so equal strings are one object
    pairs = [_pair(term=f"T {i}", identifier=f"HP:{i:07d}") for i in range(3)]
    prompts = [_prompt(p, Direction.ID_TO_TERM) for p in pairs]
    provider = _make_replay(prompts, ["T  0.", "t 1", "other"])
    expected = expected_answers(prompts, False)
    baseline, finetuned = (run_eval(provider, prompts, expected, "m", 1, False)
                           for _ in Phase)
    assert all(b.pair_id is f.pair_id for b, f in zip(baseline, finetuned))
    assert [item.normalized_output for item in baseline] == ["t 0", "t 1", "other"]
    assert baseline[0].normalized_output is expected[0]
    assert baseline[1].normalized_output is expected[1]
    assert baseline[2].normalized_output is baseline[2].raw_output


def test_run_eval_rejects_mixed_sets():
    p1 = _prompt(_pair())
    p2 = _prompt(_pair(terminology=Terminology.GENE, term="tumor protein p53",
                       identifier="TP53"))
    with pytest.raises(DomainError):
        _run_eval(ReplayProvider({}, _M), [p1, p2], "m")


def test_run_eval_empty_prompts():
    with pytest.raises(DomainError):
        _run_eval(ReplayProvider({}, _M), [], "m")


def test_run_eval_majority_vote():
    pair = _pair()
    prompts = expand_prompts(pair, Direction.TERM_TO_ID)
    answers = ["HP:0001337", "HP:0001337", "HP:0001337", "HP:0000000", "HP:0000000"]
    provider = _make_replay(prompts, answers)
    items = _run_eval(provider, prompts, "m")
    assert _accuracy(items) == 1.0
    minority = _make_replay(prompts, ["HP:0000000", "HP:0000000", "HP:0000000",
                                      "HP:0001337", "HP:0001337"])
    run2 = _run_eval(minority, prompts, "m")
    assert _accuracy(run2) == 0.0


def test_failed_templates_count_against_the_pair():
    # Two templates right, one wrong and two failed: a plurality over the
    # answers that came back would pick the right one, but 2 of 5 is no majority.
    pair = _pair()
    prompts = expand_prompts(pair, Direction.TERM_TO_ID)
    provider = _make_replay(prompts[:3], ["HP:0001337", "HP:0001337", "HP:0000000"])
    items = _run_eval(provider, prompts, "m")
    assert [i.error is not None for i in items] == [False, False, False, True, True]
    assert pair_correctness(items) == {pair_id(pair): False}
    assert _accuracy(items) == 0.0


def test_accuracy_of_concatenated_runs_is_weighted_mean():
    pairs_a = [_pair(term=f"a{i}", identifier=f"HP:{i:07d}") for i in range(4)]
    pairs_b = [_pair(term=f"b{i}", identifier=f"HP:{i + 100:07d}") for i in range(6)]
    prompts_a = [_prompt(p) for p in pairs_a]
    prompts_b = [_prompt(p) for p in pairs_b]
    answers_a = [p.expected_answer for p in prompts_a]
    answers_a[0] = "HP:9999999"
    answers_b = [p.expected_answer for p in prompts_b]
    answers_b[0] = answers_b[1] = "HP:9999999"
    provider = _make_replay(prompts_a + prompts_b, answers_a + answers_b)
    run_a = _run_eval(provider, prompts_a, "m")
    run_b = _run_eval(provider, prompts_b, "m")
    run_ab = _run_eval(provider, prompts_a + prompts_b, "m")
    expected = (_accuracy(run_a) * 4 + _accuracy(run_b) * 6) / 10
    assert _accuracy(run_ab) == pytest.approx(expected)


def test_results_jsonl_round_trip():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(4)]
    prompts = [_prompt(p) for p in pairs]
    provider = _make_replay(prompts, [p.expected_answer for p in prompts])
    items = _run_eval(provider, prompts, "m")
    buf = io.StringIO()
    write_results_jsonl(items, buf)
    assert read_results_jsonl(io.StringIO(buf.getvalue())) == items


def test_replay_determinism_byte_for_byte():
    pairs = [_pair(term=f"t{i}", identifier=f"HP:{i:07d}") for i in range(10)]
    prompts = [_prompt(p) for p in pairs]
    answers = [p.expected_answer if i % 3 else '"%s".' % p.expected_answer
               for i, p in enumerate(prompts)]
    provider = _make_replay(prompts, answers)
    blobs = []
    for _ in range(2):
        items = _run_eval(provider, prompts, "m")
        buf = io.StringIO()
        write_results_jsonl(items, buf)
        blobs.append((buf.getvalue().encode(), _accuracy(items)))
    assert blobs[0] == blobs[1]


def test_run_summary_fields():
    prompts = [_prompt(_pair())]
    provider = _make_replay(prompts, [prompts[0].expected_answer], "model-x")
    items = _run_eval(provider, prompts, "model-x")
    summary = run_summary(items, "model-x", Terminology.HPO, Direction.TERM_TO_ID,
                          Phase.FINETUNED)
    assert summary == {
        "model_id": "model-x",
        "terminology": "HPO",
        "direction": "term_to_id",
        "phase": "finetuned",
        "n_items": 1,
        "n_correct": 1,
        "n_errors": 0,
        "accuracy": 1.0,
    }


# ---------------------------------------------------------------------------
# transcript + HTTP provider


def test_replay_from_transcript_file(tmp_path):
    prompts = [_prompt(_pair())]
    with closing(TranscriptWriter(tmp_path / "t.jsonl", "m", DecodingParams(), ())) as writer:
        writer.record(prompts[0].prompt_text,
                      request_body(prompts[0].prompt_text, "m", DecodingParams()),
                      "HP:0001337")
    provider = ReplayProvider.from_transcript(tmp_path / "t.jsonl", "m", DecodingParams(),
                                              [prompts[0].prompt_text])
    assert provider.complete(prompts[0].prompt_text, "m", DecodingParams()) == "HP:0001337"


def test_replay_rejects_a_transcript_text_that_is_not_a_string(tmp_path):
    path = tmp_path / "t.jsonl"
    rows = [{"prompt_hash": "a", "response": {"text": "HP:0001337"}},
            {"prompt_hash": "b", "response": {"text": None}}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(ParseError) as exc:  # a row for no wanted prompt is checked too
        ReplayProvider.from_transcript(path, "m", DecodingParams(), [])
    assert exc.value.line_number == 2
    assert "response.text is not a string" in str(exc.value)


def test_replay_missing_hash_raises():
    with pytest.raises(ConsistencyError):
        ReplayProvider({}, _M).complete("anything", "m", DecodingParams())


def _record(path, rows):
    """A transcript of (prompt, model, params, text) rows; params None writes no request."""
    with closing(TranscriptWriter(path, "m", DecodingParams(), ())) as transcript:
        for prompt, model, params, text in rows:
            transcript.record(prompt, None if params is None
                              else request_body(prompt, model, params), text)


def _replay(path, prompt, model, params):
    """`prompt` sent to `model` with `params`, replayed from the transcript `path`."""
    return ReplayProvider.from_transcript(path, model, params, [prompt]).complete(
        prompt, model, params)


@pytest.mark.parametrize("model,params", [
    ("model-b", DecodingParams()),
    ("model-a", DecodingParams(temperature=0.7)),
    ("model-a", DecodingParams(max_tokens=64)),
], ids=["model", "temperature", "max-tokens"])
def test_replay_answers_only_the_model_and_settings_it_recorded(tmp_path, model, params):
    _record(tmp_path / "t.jsonl", [("p", "model-a", DecodingParams(), "A")])
    replay = ReplayProvider.from_transcript(tmp_path / "t.jsonl", "model-a", DecodingParams(),
                                            ["p"])
    assert replay.complete("p", "model-a", DecodingParams()) == "A"
    with pytest.raises(ConsistencyError, match=repr(model)):
        replay.complete("p", model, params)
    with pytest.raises(ConsistencyError, match=repr(model)):
        _replay(tmp_path / "t.jsonl", "p", model, params)
    # a live provider answers its phase's model and settings alone, too
    transport = ScriptedHttp([(200, _chat_body("B"))])
    with closing(TranscriptWriter(tmp_path / "t.jsonl", "model-a", DecodingParams(),
                                  ["p"])) as transcript:
        live = _http_provider(transport, transcript)
        assert live.complete("p", "model-a", DecodingParams()) == "A"
        with pytest.raises(ConsistencyError, match=re.escape(repr((model, params)))):
            live.complete("p", model, params)
    assert transport.calls == 0


def test_replay_keeps_rows_for_two_models_of_one_prompt_apart(tmp_path):
    _record(tmp_path / "t.jsonl", [("p", "model-a", DecodingParams(), "A"),
                                   ("p", "model-b", DecodingParams(), "B")])
    assert [_replay(tmp_path / "t.jsonl", "p", m, DecodingParams())
            for m in ("model-a", "model-b")] == ["A", "B"]


def test_a_row_without_a_request_answers_its_prompt_for_any_model(tmp_path):
    _record(tmp_path / "t.jsonl", [("p", None, None, "any"),
                                   ("p", "model-a", DecodingParams(), "A")])
    assert _replay(tmp_path / "t.jsonl", "p", "model-a", DecodingParams()) == "A"
    assert _replay(tmp_path / "t.jsonl", "p", "model-b", DecodingParams(temperature=1.0)) == "any"


# ---------------------------------------------------------------------------
# the replay join, against the keyed lookup it replaced


def _keyed_request_key(model_id, temperature, max_tokens, prompt_text):
    """A request's transcript key as replay made it before the join (copied)."""
    settings = f"{model_id!r} {temperature + 0.0!r} {max_tokens!r} {prompt_text}"
    return hashlib.sha256(settings.encode("utf-8")).digest()


class _KeyedTranscript(KeyedStore):
    """A transcript keyed as replay keyed it before the join (copied)."""

    @staticmethod
    def entry(row):
        text = row["response"]["text"]
        if not isinstance(text, str):
            raise ParseError(f"response.text is not a string: {text!r}")
        request = row.get("request")
        if request is None:
            return row["prompt_hash"], text
        return _keyed_request_key(request["model"], request["temperature"],
                                  request["max_tokens"],
                                  request["messages"][0]["content"]), text


def _keyed_answer(transcript, prompt, model, params):
    """The text replay answered before the join: by request, else by prompt (copied)."""
    text = transcript.get(_keyed_request_key(model, params.temperature, params.max_tokens,
                                             prompt))
    return transcript.get(prompt_hash(prompt)) if text is None else text


def _outcome(call):
    """`call()`'s result, or the type and message of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


_JOIN_PROMPTS = ["p", "q", "5", "", "p\u2028q", "\u00fc"]


def _request(row):
    """The row's request; a row with none gets one."""
    return row.setdefault("request", request_body("p", "m", DecodingParams()))


# a fault a row may carry, and how it is planted
_ROW_FAULTS = {
    "no model": lambda row, draw: _request(row).pop("model"),
    "no prompt_hash": lambda row, draw: row.pop("prompt_hash"),
    "text": lambda row, draw: row["response"].update(
        text=draw(st.sampled_from([None, 7, ["x"]]))),
    "temperature": lambda row, draw: _request(row).update(
        temperature=draw(st.sampled_from([None, "0.0", [0], 10**400]))),
    "no messages": lambda row, draw: _request(row).update(messages=[]),
    "prompt not a string": lambda row, draw: _request(row).update(
        messages=[{"role": "user", "content": draw(st.sampled_from([5, None, ["p"]]))}]),
    "lone surrogate": lambda row, draw: _request(row).update(
        messages=[{"role": "user", "content": "p\ud800"}]),
}


@st.composite
def _transcript_row(draw):
    """A transcript row for a prompt of `_JOIN_PROMPTS`, with or without a request."""
    prompt = draw(st.sampled_from(_JOIN_PROMPTS))
    row = {"prompt_hash": prompt_hash(prompt), "response": {"text": draw(st.text(max_size=3))}}
    if draw(st.integers(0, 3)):
        row["request"] = {
            "model": draw(st.sampled_from(["m", "m-ft", ""])),
            "messages": [{"role": "user", "content": prompt}],
            "temperature": draw(st.sampled_from([0.0, -0.0, 0.7, 1, True])),
            "max_tokens": draw(st.sampled_from([32, 32.0, 64, True])),
        }
    return row


@st.composite
def _transcript_rows(draw):
    """Transcript rows, one of them carrying a fault of `_ROW_FAULTS`, or none."""
    rows = draw(st.lists(_transcript_row(), max_size=12))
    fault = draw(st.none() | st.sampled_from(sorted(_ROW_FAULTS)))
    if rows and fault is not None:
        _ROW_FAULTS[fault](rows[draw(st.integers(0, len(rows) - 1))], draw)
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=_transcript_rows(),
       wanted=st.lists(st.sampled_from([*_JOIN_PROMPTS, "absent"]), unique=True),
       model=st.sampled_from(["m", "m-ft"]),
       params=st.sampled_from([DecodingParams(), DecodingParams(-0.0, 32),
                               DecodingParams(1, 32.0)]),
       cut=st.integers(0, 3))
def test_the_replay_join_answers_as_the_keyed_lookup_did(rows, wanted, model, params, cut):
    # Each wanted prompt gets the text, or the ConsistencyError, that the keyed
    # lookup gave; a transcript that failed to load fails with the same error
    # and message, and a torn last row (`cut` bytes short) gets the same warning.
    data = "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_bytes(data[:len(data) - cut] if rows else data)
        keyed_err, joined_err = io.StringIO(), io.StringIO()
        with redirect_stderr(keyed_err):
            keyed = _outcome(lambda: _KeyedTranscript(path))
        with redirect_stderr(joined_err):
            joined = _outcome(lambda: ReplayProvider.from_transcript(path, model, params, wanted))
    assert joined_err.getvalue() == keyed_err.getvalue()
    if isinstance(keyed, tuple):
        assert joined == keyed
        return
    for prompt in wanted:
        text = _keyed_answer(keyed, prompt, model, params)
        answer = _outcome(lambda: joined.complete(prompt, model, params))
        assert answer == (text if text is not None else (
            ConsistencyError, f"no transcript entry for {model!r} and {prompt!r}")), prompt


def test_the_join_drops_a_torn_last_row_with_the_store_warning(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _record(path, [("p", "m", DecodingParams(), "A"), ("q", "m", DecodingParams(), "B")])
    data = path.read_bytes()
    torn_at = data.index(b"\n") + 1
    path.write_bytes(data[:-10])
    with closing(TranscriptWriter(path, "m", DecodingParams(), ["p", "q"])):
        warning = capsys.readouterr().err
    assert warning == (f"warning: {path}: dropped the torn last row at byte {torn_at}; "
                       "it is cut off before the next row is added\n")
    replay = ReplayProvider.from_transcript(path, "m", DecodingParams(), ["p", "q"])
    assert capsys.readouterr().err == warning
    assert replay.complete("p", "m", DecodingParams()) == "A"
    with pytest.raises(ConsistencyError):
        replay.complete("q", "m", DecodingParams())


class ScriptedHttp:
    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.bodies = []

    def __call__(self, method, url, json, headers):
        self.calls += 1
        self.bodies.append(json)
        step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        return step


def _chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def _http_provider(transport, transcript, url="http://example", credential=None):
    """An `HttpCompletionProvider` whose endpoint retries without waiting."""
    endpoint = Endpoint("completion", url, transport, credential=credential,
                        sleep=lambda s: None)
    return HttpCompletionProvider(endpoint, transcript)


def test_http_provider_parses_and_records(tmp_path):
    transport = ScriptedHttp([(200, _chat_body("HP:0001337"))])
    with closing(TranscriptWriter(tmp_path / "t.jsonl", "model-a", DecodingParams(),
                                  ["prompt text"])) as transcript:
        provider = _http_provider(transport, transcript, "http://example/v1/chat",
                                  {"headers": {"Authorization": "Bearer k"}})
        out = provider.complete("prompt text", "model-a", DecodingParams())
        # each row is flushed as it is recorded
        row = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert out == "HP:0001337"
    assert transport.bodies[0]["model"] == "model-a"
    assert transport.bodies[0]["temperature"] == 0.0
    assert transport.bodies[0]["max_tokens"] == 32
    assert row["prompt_hash"] == prompt_hash("prompt text")
    assert row["response"]["text"] == "HP:0001337"
    # the recorded transcript replays to the same output
    assert _replay(tmp_path / "t.jsonl", "prompt text", "model-a", DecodingParams()) == out


@pytest.fixture
def transcript(tmp_path):
    """A `TranscriptWriter` on the test's `t.jsonl` for "p" sent to "m", closed when
    the test ends."""
    with closing(TranscriptWriter(tmp_path / "t.jsonl", *_M, ["p"])) as transcript:
        yield transcript


def test_http_provider_sends_only_what_its_transcript_lacks(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, [("p", "model-a", DecodingParams(), "A"), ("q", None, None, "Q")])
    before = path.read_bytes()
    transport = ScriptedHttp([(200, _chat_body("B"))])
    with closing(TranscriptWriter(path, "model-a", DecodingParams(), ["p", "q"])) as transcript:
        assert _http_provider(transport, transcript).complete(
            "p", "model-a", DecodingParams()) == "A"
    # one join per model
    with closing(TranscriptWriter(path, "model-b", DecodingParams(), ["p", "q"])) as transcript:
        provider = _http_provider(transport, transcript)
        assert provider.complete("q", "model-b", DecodingParams()) == "Q"
        assert transport.calls == 0
        # a row for model A does not answer model B: that request is sent, and recorded
        assert provider.complete("p", "model-b", DecodingParams()) == "B"
        assert provider.complete("p", "model-b", DecodingParams()) == "B"
    assert [body["model"] for body in transport.bodies] == ["model-b"]
    assert path.read_bytes().startswith(before)
    assert _replay(path, "p", "model-b", DecodingParams()) == "B"


def test_http_provider_retries_then_succeeds(transcript):
    transport = ScriptedHttp([(429, ""), (503, ""), (200, _chat_body("x"))])
    provider = _http_provider(transport, transcript)
    assert provider.complete("p", "m", DecodingParams()) == "x"
    assert transport.calls == 3


def test_http_provider_permanent_error(transcript):
    transport = ScriptedHttp([(401, "no auth")])
    provider = _http_provider(transport, transcript)
    with pytest.raises(PermanentHttpError):
        provider.complete("p", "m", DecodingParams())


def test_http_provider_exhausts_retries(transcript):
    transport = ScriptedHttp([(500, "boom")])
    provider = _http_provider(transport, transcript)
    with pytest.raises(TransportError):
        provider.complete("p", "m", DecodingParams())
    assert transport.calls == 5


def test_http_provider_failures_leave_no_reference_cycle(transcript):
    def down(method, url, **request):
        raise TransportError("connection refused")

    provider = _http_provider(down, transcript)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            try:
                provider.complete("p", "m", DecodingParams())
            except TransportError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_http_provider_fails_an_item_whose_content_is_not_a_string(tmp_path):
    null = json.dumps({"choices": [{"message": {"content": None}}]})
    transport = ScriptedHttp([(200, null), (200, _chat_body("HP:0000001"))])
    prompts = [_prompt(_pair(term=f"t{i}", identifier=f"HP:{i:07d}")) for i in range(2)]
    with closing(TranscriptWriter(tmp_path / "t.jsonl", "m", DecodingParams(),
                                  [p.prompt_text for p in prompts])) as transcript:
        provider = _http_provider(transport, transcript)
        items = _run_eval(provider, prompts, "m")
    assert [i.error is not None for i in items] == [True, False]
    assert "completion content is not a string" in items[0].error
    assert items[1].correct
    rows = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(r)["response"]["text"] for r in rows] == ["HP:0000001"]
    with pytest.raises(ProtocolError):
        _http_provider(ScriptedHttp([(200, null)]), transcript).complete(
            "p", "m", DecodingParams())


def test_every_top_level_name_in_providers_is_reached_outside_the_tests():
    # A function or class of providers.py that only tests reach is test code:
    # each must be named in providers.py itself, or imported from it (or read
    # as `providers.<name>`) in src/, bench/ or tools/.
    tree = ast.parse(Path(termbench.providers.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    root = Path(__file__).resolve().parent.parent
    for path in (path for top in ("src", "bench", "tools") for path in (root / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("providers"):
                reached.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and "providers" in (
                    getattr(node.value, "id", None), getattr(node.value, "attr", None)):
                reached.add(node.attr)
    assert defined and sorted(defined - reached) == []

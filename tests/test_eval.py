import gc
import io
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
from hypothesis import given, settings, strategies as st

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
def test_normalize_answer_matches_the_re_sub_reference(parts, terminology, direction,
                                                       extract):
    raw = "".join(parts)
    assert (normalize_answer(raw, terminology, direction, extract)
            == reference_normalize(raw, terminology, direction, extract))


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


def _make_replay(prompts, answers):
    return ReplayProvider({prompt_hash(p.prompt_text): a for p, a in zip(prompts, answers)})


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
    provider = ReplayProvider({})
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
        _run_eval(ReplayProvider({}), [p1, p2], "m")


def test_run_eval_empty_prompts():
    with pytest.raises(DomainError):
        _run_eval(ReplayProvider({}), [], "m")


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
    provider = _make_replay(prompts, [prompts[0].expected_answer])
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
    with closing(TranscriptWriter(tmp_path / "t.jsonl")) as writer:
        writer.record(prompts[0].prompt_text,
                      request_body(prompts[0].prompt_text, "m", DecodingParams()),
                      "HP:0001337")
    provider = ReplayProvider.from_transcript(tmp_path / "t.jsonl")
    assert provider.complete(prompts[0].prompt_text, "m", DecodingParams()) == "HP:0001337"


def test_replay_rejects_a_transcript_text_that_is_not_a_string(tmp_path):
    path = tmp_path / "t.jsonl"
    rows = [{"prompt_hash": "a", "response": {"text": "HP:0001337"}},
            {"prompt_hash": "b", "response": {"text": None}}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        ReplayProvider.from_transcript(path)
    assert exc.value.line_number == 2
    assert "response.text is not a string" in str(exc.value)


def test_replay_missing_hash_raises():
    with pytest.raises(ConsistencyError):
        ReplayProvider({}).complete("anything", "m", DecodingParams())


def _record(path, rows):
    """A transcript of (prompt, model, params, text) rows; params None writes no request."""
    with closing(TranscriptWriter(path)) as transcript:
        for prompt, model, params, text in rows:
            transcript.record(prompt, None if params is None
                              else request_body(prompt, model, params), text)


@pytest.mark.parametrize("model,params", [
    ("model-b", DecodingParams()),
    ("model-a", DecodingParams(temperature=0.7)),
    ("model-a", DecodingParams(max_tokens=64)),
], ids=["model", "temperature", "max-tokens"])
def test_replay_answers_only_the_model_and_settings_it_recorded(tmp_path, model, params):
    _record(tmp_path / "t.jsonl", [("p", "model-a", DecodingParams(), "A")])
    replay = ReplayProvider.from_transcript(tmp_path / "t.jsonl")
    assert replay.complete("p", "model-a", DecodingParams()) == "A"
    with pytest.raises(ConsistencyError, match=repr(model)):
        replay.complete("p", model, params)


def test_replay_keeps_rows_for_two_models_of_one_prompt_apart(tmp_path):
    _record(tmp_path / "t.jsonl", [("p", "model-a", DecodingParams(), "A"),
                                   ("p", "model-b", DecodingParams(), "B")])
    replay = ReplayProvider.from_transcript(tmp_path / "t.jsonl")
    assert [replay.complete("p", m, DecodingParams()) for m in ("model-a", "model-b")] == [
        "A", "B"]


def test_a_row_without_a_request_answers_its_prompt_for_any_model(tmp_path):
    _record(tmp_path / "t.jsonl", [("p", None, None, "any"),
                                   ("p", "model-a", DecodingParams(), "A")])
    replay = ReplayProvider.from_transcript(tmp_path / "t.jsonl")
    assert replay.complete("p", "model-a", DecodingParams()) == "A"
    assert replay.complete("p", "model-b", DecodingParams(temperature=1.0)) == "any"


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
    with closing(TranscriptWriter(tmp_path / "t.jsonl")) as transcript:
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
    replay = ReplayProvider.from_transcript(tmp_path / "t.jsonl")
    assert replay.complete("prompt text", "model-a", DecodingParams()) == out


@pytest.fixture
def transcript(tmp_path):
    """A `TranscriptWriter` on the test's `t.jsonl`, closed when the test ends."""
    with closing(TranscriptWriter(tmp_path / "t.jsonl")) as transcript:
        yield transcript


def test_http_provider_sends_only_what_its_transcript_lacks(tmp_path):
    path = tmp_path / "t.jsonl"
    _record(path, [("p", "model-a", DecodingParams(), "A"), ("q", None, None, "Q")])
    before = path.read_bytes()
    transport = ScriptedHttp([(200, _chat_body("B"))])
    with closing(TranscriptWriter(path)) as transcript:
        provider = _http_provider(transport, transcript)
        assert provider.complete("p", "model-a", DecodingParams()) == "A"
        assert provider.complete("q", "model-b", DecodingParams()) == "Q"
        assert transport.calls == 0
        # a row for model A does not answer model B: that request is sent, and recorded
        assert provider.complete("p", "model-b", DecodingParams()) == "B"
        assert provider.complete("p", "model-b", DecodingParams()) == "B"
    assert [body["model"] for body in transport.bodies] == ["model-b"]
    assert path.read_bytes().startswith(before)
    replay = ReplayProvider.from_transcript(path)
    assert replay.complete("p", "model-b", DecodingParams()) == "B"


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
    with closing(TranscriptWriter(tmp_path / "t.jsonl")) as transcript:
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

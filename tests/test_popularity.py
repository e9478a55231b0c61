import io
import json
import threading
import time
from contextlib import ExitStack, closing

import numpy as np
import pytest
from hypothesis import given, strategies as st

import termbench.remote
from termbench.errors import DomainError, ParseError, ProtocolError, TransportError, PermanentHttpError
from termbench.ontology import Terminology
from termbench.pmc import ESEARCH_URL, PmcClient, QueryCache, identifier_query, term_query
from termbench.popularity import (
    POPULARITY_CSV_COLUMNS,
    PopularityRecord,
    laplace_log,
    load_annotation_counts,
    log_log_points,
    rank_frequency,
    read_popularity_csv,
    write_popularity_csv,
)
from termbench.ratelimit import TokenBucket
from termbench.remote import Endpoint


def _pop(identifier, count, label=None):
    return PopularityRecord(
        terminology=Terminology.HPO,
        identifier=identifier,
        label=label or identifier.lower(),
        id_count_pmc=count,
        term_count_pmc=0,
        annotation_count=0,
    )


def test_laplace_log_reference_points():
    assert laplace_log(0) == 0.0
    assert laplace_log(99) == 2.0
    assert laplace_log(999) == 3.0


@given(st.integers(0, 10**12), st.integers(0, 10**12))
def test_laplace_log_monotone(a, b):
    if a < b:
        assert laplace_log(a) < laplace_log(b)
    elif a == b:
        assert laplace_log(a) == laplace_log(b)


def test_rank_frequency_tie_break():
    dist = rank_frequency(
        [_pop("HP:0000001", 5, "a"), _pop("HP:0000002", 9, "b"), _pop("HP:0000003", 5, "c")],
        "id_count_pmc",
    )
    assert dist == (
        ("HP:0000002", 9, 1),
        ("HP:0000001", 5, 2),
        ("HP:0000003", 5, 3),
    )


def test_rank_frequency_all_equal_is_lexicographic():
    records = [_pop(f"HP:{i:07d}", 7, f"t{i}") for i in (3, 1, 2)]
    dist = rank_frequency(records, "id_count_pmc")
    assert [e[0] for e in dist] == ["HP:0000001", "HP:0000002", "HP:0000003"]


def test_rank_frequency_empty_raises():
    with pytest.raises(DomainError):
        rank_frequency([], "id_count_pmc")


def test_rank_frequency_preserves_multiset():
    records = [_pop(f"HP:{i:07d}", i % 5, f"t{i}") for i in range(1, 40)]
    dist = rank_frequency(records, "id_count_pmc")
    assert sorted((e[0], e[1]) for e in dist) == sorted(
        (r.identifier, r.id_count_pmc) for r in records
    )
    assert [e[2] for e in dist] == list(range(1, 40))


def test_rank_frequency_zipf_slope_near_minus_one():
    # Zipf-synthetic counts; slope of the log-log points fit by least squares.
    records = [_pop(f"HP:{i:07d}", 1000 // i, f"t{i}") for i in range(1, 101)]
    points = log_log_points(rank_frequency(records, "id_count_pmc"))
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - (-1.0)) < 0.1


def test_load_annotation_counts():
    counts = load_annotation_counts(io.StringIO("HP:0001337\t42\n"), Terminology.HPO)
    assert counts == {"HP:0001337": 42}


def test_load_annotation_counts_duplicate_identifier():
    data = "HP:0001337\t42\nHP:0001337\t7\n"
    with pytest.raises(ParseError, match="HP:0001337"):
        load_annotation_counts(io.StringIO(data), Terminology.HPO)


def test_load_annotation_counts_empty():
    assert load_annotation_counts(io.StringIO(""), Terminology.HPO) == {}


def test_load_annotation_counts_splits_lines_at_newline_only():
    # CRLF rows parse; a U+0085 inside a row neither splits it nor shifts
    # the line number of a later error.
    data = "HP:0000001\t1\r\nHP:0000002\t2\r\n"
    assert load_annotation_counts(io.StringIO(data), Terminology.HPO) == {
        "HP:0000001": 1, "HP:0000002": 2}
    data = "HP:0000001\t1\nHP:0000002\t2\u0085\nHP:0000003\tx\n"
    with pytest.raises(ParseError) as exc:
        load_annotation_counts(io.StringIO(data), Terminology.HPO)
    assert exc.value.line_number == 3


def test_load_annotation_counts_negative():
    from termbench.errors import ValidationError

    with pytest.raises(ValidationError):
        load_annotation_counts(io.StringIO("HP:0001337\t-1\n"), Terminology.HPO)


def test_popularity_csv_round_trip():
    records = [_pop(f"HP:{i:07d}", i, f"term {i}") for i in range(3)]
    buf = io.StringIO()
    write_popularity_csv(records, buf)
    back = read_popularity_csv(io.StringIO(buf.getvalue()))
    assert back == records


# ---------------------------------------------------------------------------
# PMC client


class MockTransport:
    def __init__(self, script):
        # script: list of (status, body) or callables
        self.script = list(script)
        self.calls = 0

    def __call__(self, method, url, params):
        self.calls += 1
        step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(step, Exception):
            raise step
        return step


def _count_body(count):
    return json.dumps({"esearchresult": {"count": str(count)}})


@pytest.fixture
def open_cache(tmp_path):
    """`open_cache()` is a `QueryCache` on the test's cache file, closed when the test ends."""
    with ExitStack() as stack:
        yield lambda: stack.enter_context(closing(QueryCache(tmp_path / "cache.jsonl")))


def _client(open_cache, script):
    transport = MockTransport(script)
    cache = open_cache()
    limiter = TokenBucket(1000.0, clock=lambda: 0.0, sleep=lambda s: None)
    client = PmcClient(cache, Endpoint("esearch", ESEARCH_URL, transport, limiter,
                                       sleep=lambda s: None))
    return client, transport


def test_fetch_count_parses_count(open_cache):
    client, transport = _client(open_cache, [(200, _count_body(1234))])
    assert client.fetch_count(identifier_query("HP:0001337")) == 1234
    assert transport.calls == 1


def test_fetch_count_retries_on_429(open_cache):
    client, transport = _client(
        open_cache, [(429, ""), (429, ""), (200, _count_body(7))]
    )
    assert client.fetch_count(identifier_query("HP:0001337")) == 7
    assert transport.calls == 3


def test_fetch_count_zero_hits(open_cache):
    client, _ = _client(open_cache, [(200, _count_body(0))])
    assert client.fetch_count(term_query("no such term")) == 0


def test_fetch_count_permanent_4xx(open_cache):
    client, _ = _client(open_cache, [(404, "not found")])
    with pytest.raises(PermanentHttpError):
        client.fetch_count(identifier_query("HP:0001337"))


def test_fetch_count_exhausts_retries(open_cache):
    client, transport = _client(open_cache, [(500, "boom")])
    with pytest.raises(TransportError):
        client.fetch_count(identifier_query("HP:0001337"))
    assert transport.calls == 5


def test_fetch_count_protocol_error(open_cache):
    client, _ = _client(open_cache, [(200, json.dumps({"esearchresult": {"count": "many"}}))])
    with pytest.raises(ProtocolError):
        client.fetch_count(identifier_query("HP:0001337"))


@pytest.mark.parametrize("count", [3.7, 12.0, True, False, " 12 ", "١٢", "+12", "1e3", "",
                                   None, [12], "-3", -3])
def test_fetch_count_rejects_a_count_that_is_not_a_natural_number(open_cache, count):
    body = json.dumps({"esearchresult": {"count": count}})
    client, _ = _client(open_cache, [(200, body)])
    with pytest.raises(ProtocolError):
        client.fetch_count(identifier_query("HP:0001337"))
    assert client.cache.get(identifier_query("HP:0001337"), "pmc") is None


@pytest.mark.parametrize("count,expected", [("12", 12), (12, 12), ("0", 0), (0, 0), ("007", 7)])
def test_fetch_count_accepts_an_int_or_ascii_digits(open_cache, count, expected):
    body = json.dumps({"esearchresult": {"count": count}})
    client, _ = _client(open_cache, [(200, body)])
    assert client.fetch_count(identifier_query("HP:0001337")) == expected


def test_cache_write_through_one_network_call(open_cache):
    client, transport = _client(open_cache, [(200, _count_body(55))])
    q = identifier_query("HP:0001337")
    assert client.fetch_count(q) == 55
    assert client.fetch_count(q) == 55
    assert transport.calls == 1
    # a fresh client over the same cache file needs no endpoint at all
    offline = PmcClient(open_cache(), None)
    assert offline.fetch_count(q) == 55


def test_offline_without_cache_entry_fails(open_cache):
    offline = PmcClient(open_cache(), None)
    message = (r"not cached in the PMC cache .*cache\.jsonl and flags\.offline is set: "
               r"'\"HP:0001337\"\[All Fields\]'")
    with pytest.raises(TransportError, match=message):
        offline.fetch_count(identifier_query("HP:0001337"))


def test_cache_last_entry_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"query": "q", "db": "pmc", "count": 1, "retrieved_at": "t1"}) + "\n")
        fh.write(json.dumps({"query": "q", "db": "pmc", "count": 2, "retrieved_at": "t2"}) + "\n")
    client = PmcClient(QueryCache(path), None)
    assert client.fetch_count("q") == 2


def _cache_with_count(path, count):
    with open(path, "w") as fh:
        fh.write(json.dumps({"query": "q", "db": "pmc", "count": 1, "retrieved_at": "t1"}) + "\n")
        fh.write(json.dumps({"query": "r", "db": "pmc", "count": count,
                             "retrieved_at": "t2"}) + "\n")


@pytest.mark.parametrize("count,message", [
    (True, "non-numeric count True"), (2.9, "non-numeric count 2.9"),
    ("x", "non-numeric count 'x'"), (" 12 ", "non-numeric count ' 12 '"),
    ("١٢", "non-numeric count '١٢'"), (None, "non-numeric count None"),
    (-3, "negative count -3"),
])
def test_cache_rejects_a_cached_count_as_a_live_one(tmp_path, count, message):
    path = tmp_path / "cache.jsonl"
    _cache_with_count(path, count)
    with pytest.raises(ParseError) as exc:
        QueryCache(path)
    assert str(exc.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("count,expected", [("007", 7), (12, 12), (0, 0)])
def test_cache_serves_an_int_or_ascii_digits(tmp_path, count, expected):
    path = tmp_path / "cache.jsonl"
    _cache_with_count(path, count)
    assert PmcClient(QueryCache(path), None).fetch_count("r") == expected


class CountsByQuery:
    """esearch transport answering from a {query: count} map, optionally slowly."""

    def __init__(self, counts, delay=0.0, fail=None):
        self.counts = counts
        self.delay = delay
        self.fail = fail or {}
        self.calls = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, method, url, params):
        query = params["term"]
        with self._lock:
            self.calls.append(query)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if query in self.fail:
                return self.fail[query], "failed"
            time.sleep(self.delay)
            return 200, _count_body(self.counts[query])
        finally:
            with self._lock:
                self.in_flight -= 1


def _counts_client(open_cache, transport):
    limiter = TokenBucket(1e6, clock=lambda: 0.0, sleep=lambda s: None)
    return PmcClient(open_cache(), Endpoint("esearch", ESEARCH_URL, transport, limiter,
                                            sleep=lambda s: None))


def test_fetch_counts_overlaps_requests(open_cache):
    barrier = threading.Barrier(2, timeout=5)

    def transport(method, url, params):
        barrier.wait()  # breaks unless both requests are in flight together
        return 200, _count_body(len(params["term"]))

    client = _counts_client(open_cache, transport)
    assert client.fetch_counts(["a", "bb"], concurrency=2) == [1, 2]


def test_fetch_counts_caps_requests_in_flight(open_cache):
    transport = CountsByQuery({f"q{i}": i for i in range(30)}, delay=0.002)
    client = _counts_client(open_cache, transport)
    queries = [f"q{i}" for i in range(30)]
    assert client.fetch_counts(queries, concurrency=3) == list(range(30))
    assert 1 <= transport.max_in_flight <= 3
    assert sorted(transport.calls) == sorted(queries)


def test_fetch_counts_sends_a_duplicated_query_once(open_cache):
    transport = CountsByQuery({"a": 1, "b": 2})
    client = _counts_client(open_cache, transport)
    assert client.fetch_counts(["a", "b", "a", "a"], concurrency=2) == [1, 2, 1, 1]
    assert sorted(transport.calls) == ["a", "b"]


def test_fetch_counts_stops_at_the_first_error_and_resumes(open_cache):
    queries = [f"q{i}" for i in range(50)]
    counts = {q: i for i, q in enumerate(queries)}
    failing = CountsByQuery(counts, delay=0.01, fail={"q0": 404})
    with pytest.raises(PermanentHttpError):
        _counts_client(open_cache, failing).fetch_counts(queries, concurrency=4)
    assert len(failing.calls) < 10
    # the counts fetched before the error are cached, so a re-run fetches the rest
    rerun = CountsByQuery(counts)
    assert _counts_client(open_cache, rerun).fetch_counts(queries, concurrency=4) == list(range(50))
    fetched = [q for q in failing.calls if q != "q0"]
    assert sorted(rerun.calls + fetched) == sorted(queries)


def test_fetch_counts_answers_cached_queries_without_a_pool(open_cache, monkeypatch):
    client = _counts_client(open_cache, CountsByQuery({"a": 1, "b": 2}))
    client.fetch_counts(["a", "b"], concurrency=2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(termbench.remote, "ThreadPoolExecutor", no_pool)
    cached = _counts_client(open_cache, CountsByQuery({}))
    assert cached.fetch_counts(["b", "a", "b"], concurrency=4) == [2, 1, 2]


def test_fetch_counts_offline_uncached_raises_as_fetch_count(tmp_path):
    path = tmp_path / "cache.jsonl"
    with closing(QueryCache(path)) as cache:
        cache.put("a", "pmc", 1, "t")
    offline = PmcClient(QueryCache(path), None)
    with pytest.raises(TransportError) as single:
        offline.fetch_count("b")
    with pytest.raises(TransportError) as many:
        offline.fetch_counts(["a", "b", "c"], concurrency=4)
    assert str(many.value) == str(single.value)


def test_query_shapes():
    assert identifier_query("HP:0001337") == '"HP:0001337"[All Fields]'
    assert term_query("tremor") == '"tremor"[All Fields]'


def test_token_bucket_spaces_requests():
    now = [0.0]
    slept = []

    def clock():
        return now[0]

    def sleep(s):
        slept.append(s)
        now[0] += s

    bucket = TokenBucket(1.0, clock=clock, sleep=sleep)
    for _ in range(3):
        bucket.acquire()
    assert len(slept) == 2
    assert all(abs(s - 1.0) < 1e-9 for s in slept)


@pytest.mark.parametrize("row,message", [
    ("HPO,HP:0000002,b,1,x,3", "invalid literal for int"),
    ("HPX,HP:0000002,b,1,2,3", "'HPX' is not a valid Terminology"),
    ("HPO,HP:0000002,b,1,2", "expected 6 columns, got 5"),
])
def test_popularity_csv_bad_row_names_the_line(row, message):
    text = ",".join(POPULARITY_CSV_COLUMNS) + "\nHPO,HP:0000001,a,1,2,3\n" + row + "\n"
    with pytest.raises(ParseError, match=f"line 3: {message}") as exc:
        read_popularity_csv(io.StringIO(text))
    assert exc.value.line_number == 3

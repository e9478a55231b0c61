import gc
import sys
import threading
import time
import warnings
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

import termbench.remote
from termbench.errors import ProtocolError, TransportError
from termbench.remote import Endpoint, HttpTransport, bounded_map


class Script:
    """Transport answering from a list of (status, body) steps or exceptions; the last repeats."""

    def __init__(self, *steps):
        self.steps = list(steps)
        self.requests = []

    def __call__(self, method, url, **request):
        self.requests.append((method, url, request))
        step = self.steps.pop(0) if len(self.steps) > 1 else self.steps[0]
        if isinstance(step, Exception):
            raise step
        return step


class CountingLimiter:
    def __init__(self):
        self.calls = 0

    def acquire(self):
        self.calls += 1


def _call(transport, sleep=None, limiter=None):
    endpoint = Endpoint("svc", "http://x", transport, limiter, sleep=sleep or (lambda s: None))
    return endpoint.call("GET", params={"q": 1})


def test_endpoint_call_retries_failures_and_429_5xx_on_a_doubling_schedule():
    transport = Script(TransportError("down"), (429, ""), (502, ""), (500, ""), (200, '{"a": 1}'))
    slept, limiter = [], CountingLimiter()
    assert _call(transport, slept.append, limiter) == {"a": 1}
    assert slept == [1.0, 2.0, 4.0, 8.0]
    assert limiter.calls == 5
    assert transport.requests[0] == ("GET", "http://x", {"params": {"q": 1}})


@pytest.mark.parametrize("step, last", [
    (TransportError("down"), "down"),
    ((503, ""), "HTTP 503 from svc"),
])
def test_endpoint_call_names_the_last_failure_when_it_gives_up(step, last):
    with pytest.raises(TransportError) as info:
        _call(Script(step))
    assert str(info.value) == f"svc failed after 5 attempts: {last}"


def test_endpoint_call_rejects_a_body_that_is_not_json():
    transport = Script((200, "<html>"))
    with pytest.raises(ProtocolError, match="svc response is not JSON"):
        _call(transport)
    assert len(transport.requests) == 1


def test_endpoint_call_merges_its_credential_after_the_requests_own_fields():
    transport = Script((200, "{}"))
    params = {"q": 1}
    endpoint = Endpoint("svc", "http://x", transport,
                        credential={"params": {"key": "k"}, "headers": {"Authorization": "a"}})
    endpoint.call("GET", params=params)
    endpoint.call("POST", json={}, headers={"Content-Type": "t"})
    assert transport.requests == [
        ("GET", "http://x", {"params": {"q": 1, "key": "k"}, "headers": {"Authorization": "a"}}),
        ("POST", "http://x", {"json": {}, "params": {"key": "k"},
                              "headers": {"Content-Type": "t", "Authorization": "a"}}),
    ]
    assert list(transport.requests[0][2]["params"]) == ["q", "key"]
    assert params == {"q": 1}  # the caller's own fields are left as they were


def test_http_transport_turns_a_failed_request_into_a_transport_error(fake_http):
    def refuse(request, timeout, **kwargs):
        assert timeout == 30
        raise requests.ConnectionError("refused")

    fake_http(refuse)
    with closing(HttpTransport(1)) as transport:
        with pytest.raises(TransportError, match="request failed: refused"):
            transport("GET", "http://x", params={})


PROXY_ENV = ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
             "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "NETRC")


def _clear_proxy_env(monkeypatch):
    for name in PROXY_ENV:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)


@pytest.mark.parametrize("host", ["direct.test", "proxied.test"])
@pytest.mark.parametrize("method, path, request_args", [
    ("GET", "/eutils/esearch.fcgi",
     {"params": {"db": "pmc", "term": '"a b"[All Fields]', "rettype": "count"}}),
    ("POST", "/v1/chat/completions",
     {"json": {"model": "m", "messages": [{"role": "user", "content": "Tremor?"}]},
      "headers": {"Content-Type": "application/json", "Authorization": "Bearer k"}}),
], ids=["get-params", "post-json"])
def test_http_transport_sends_what_requests_request_sends(fake_http, monkeypatch, tmp_path,
                                                          host, method, path, request_args):
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("HTTPS_PROXY", "http://proxy.test:3128")
    monkeypatch.setenv("NO_PROXY", "direct.test")
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
    (tmp_path / "netrc").write_text("machine direct.test login user password secret\n")
    monkeypatch.setenv("NETRC", str(tmp_path / "netrc"))
    sent = []
    fake_http(lambda request, **kwargs: sent.append((request, kwargs)) or (200, "{}"))
    url = f"https://{host}{path}"

    requests.request(method, url, **request_args, timeout=termbench.remote._TIMEOUTS[method])
    with closing(HttpTransport(2)) as transport:
        for _ in range(2):  # the second request takes the settings the first looked up
            assert transport(method, url, **request_args) == (200, "{}")

    (expected, expected_kwargs), *got = sent
    assert len(got) == 2
    for request, kwargs in got:
        assert (request.method, request.url, request.body) == (
            expected.method, expected.url, expected.body)
        assert dict(request.headers) == dict(expected.headers)
        for name in ("proxies", "verify", "cert", "timeout"):
            assert kwargs[name] == expected_kwargs[name], name
        assert kwargs == expected_kwargs
    # the environment was read: the proxy, the CA bundle and the netrc entry all apply
    assert ("https" in expected_kwargs["proxies"]) == (host == "proxied.test")
    assert expected_kwargs["verify"] == str(tmp_path / "ca.pem")
    assert expected.headers.get("Authorization", "").startswith("Basic ") == (
        host == "direct.test")


def test_http_transport_makes_one_session_under_concurrent_first_requests(fake_http,
                                                                         monkeypatch):
    made = []
    init = requests.Session.__init__

    def tracked_init(session, *args, **kwargs):
        made.append(session)
        init(session, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "__init__", tracked_init)
    fake_http(lambda request, **kwargs: (200, "{}"))
    barrier = threading.Barrier(8, timeout=10)

    def first_request(i):
        barrier.wait()  # all eight reach the transport before it has a session
        return transport("GET", "http://a.test/x", params={"i": i})

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with closing(HttpTransport(8)) as transport:
            assert bounded_map(first_request, range(8), 8) == [(200, "{}")] * 8
    finally:
        sys.setswitchinterval(switch)
    assert len(made) == 2  # the shared session, and the one that read the environment


@pytest.mark.loopback
def test_http_transport_keeps_its_connections_alive_on_loopback(monkeypatch):
    _clear_proxy_env(monkeypatch)
    connections = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            connections.append(self.client_address)  # one handler per connection

        def do_GET(self):
            body = b'{"ok": true}'
            # status, headers and body in one write: a reply split over several
            # writes waits on the client's delayed ACK at every keep-alive request
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\n\r\n%s" % (len(body), body))

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/count"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with closing(HttpTransport(2)) as transport:
                replies = bounded_map(lambda i: transport("GET", url, params={"i": i}),
                                      range(50), 2)
            gc.collect()
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert replies == [(200, '{"ok": true}')] * 50
    assert 1 <= len(connections) <= 2
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bounded_map_keeps_input_order_under_concurrency():
    def slow_first(i):
        time.sleep(0.001 * (20 - i))
        return i * i

    assert bounded_map(slow_first, range(20), 4) == [i * i for i in range(20)]


def test_bounded_map_runs_inline_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(termbench.remote, "ThreadPoolExecutor", no_pool)
    caller = threading.current_thread()
    on_caller = lambda i: threading.current_thread() is caller
    assert bounded_map(on_caller, range(5), 1) == [True] * 5
    assert bounded_map(on_caller, [0], 8) == [True]
    assert bounded_map(on_caller, [], 8) == []


def test_bounded_map_first_error_cancels_calls_not_yet_started():
    started = []
    lock = threading.Lock()

    def fn(i):
        with lock:
            started.append(i)
        if i == 0:
            raise ValueError("first")
        time.sleep(0.1)
        return i

    with pytest.raises(ValueError, match="first"):
        bounded_map(fn, range(50), 4)
    # 2 * concurrency = 8 calls were submitted; the error cancelled those not yet started
    assert len(started) < 8

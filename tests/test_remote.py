import threading
import time

import pytest

import termbench.remote
from termbench.errors import ProtocolError, TransportError
from termbench.remote import bounded_map, call_json, http_transport


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
    return call_json("svc", "GET", "http://x", transport=transport, limiter=limiter,
                     sleep=sleep or (lambda s: None), params={"q": 1})


def test_call_json_retries_failures_and_429_5xx_on_a_doubling_schedule():
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
def test_call_json_names_the_last_failure_when_it_gives_up(step, last):
    with pytest.raises(TransportError) as info:
        _call(Script(step))
    assert str(info.value) == f"svc failed after 5 attempts: {last}"


def test_call_json_rejects_a_body_that_is_not_json():
    transport = Script((200, "<html>"))
    with pytest.raises(ProtocolError, match="svc response is not JSON"):
        _call(transport)
    assert len(transport.requests) == 1


def test_http_transport_turns_a_failed_request_into_a_transport_error(monkeypatch):
    import requests

    def get(url, params, timeout):
        assert timeout == 30
        raise requests.ConnectionError("refused")

    monkeypatch.setattr(requests, "get", get)
    with pytest.raises(TransportError, match="request failed: refused"):
        http_transport("GET", "http://x", params={})


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

import os
from urllib.parse import urlsplit

import pytest

from termbench.config import BLAS_THREADS_ENV

# The tests run stages in this process and compare them with CLI launches,
# which run the BLAS libraries on one thread; so does this process. It is set
# here because numpy reads it once, as it loads, before any test module runs.
os.environ.update(dict.fromkeys(BLAS_THREADS_ENV, "1"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "loopback: the test may send requests to a server on 127.0.0.1")


@pytest.fixture(autouse=True)
def no_network(request, monkeypatch):
    """Make a request that reaches `requests`' adapter unfaked fail its test.

    Tests fake replies by patching `HTTPAdapter.send` (see `fake_http`), the
    seam the benchmark's fake endpoints use. A test marked `loopback` may
    also reach a server on 127.0.0.1, directly and never through a proxy.
    """
    from requests.adapters import HTTPAdapter
    from requests.utils import select_proxy

    real_send = HTTPAdapter.send
    loopback = request.node.get_closest_marker("loopback") is not None

    def send(adapter, prepared, **kwargs):
        if (loopback and urlsplit(prepared.url).hostname == "127.0.0.1"
                and select_proxy(prepared.url, kwargs.get("proxies")) is None):
            return real_send(adapter, prepared, **kwargs)
        raise RuntimeError(f"a test sent an unfaked request to {prepared.url}")

    monkeypatch.setattr(HTTPAdapter, "send", send)


@pytest.fixture
def fake_http(monkeypatch):
    """`fake_http(answer)` answers every request with `answer(request, **kwargs)`.

    `request` is the prepared request and `kwargs` what the session hands
    the adapter (timeout, proxies, verify, cert, stream). `answer` returns
    (status, body text) or raises; no socket opens.
    """
    import requests

    def install(answer):
        def send(adapter, request, **kwargs):
            status, text = answer(request, **kwargs)
            response = requests.Response()
            response.status_code = status
            response._content = text.encode("utf-8")
            response.encoding = "utf-8"
            response.url = request.url
            response.request = request
            return response

        monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", send)

    return install

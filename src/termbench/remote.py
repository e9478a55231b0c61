"""The one remote-call layer shared by the esearch, completion and embedding clients.

An `Endpoint` is one remote service as a stage reaches it: its name, URL,
transport, token bucket (or none), the credential merged into each of its
requests and the `sleep` its retries wait with. `Endpoint.call` is the one
request path: it takes a rate-limit token, sends the request, retries a
failed request or an HTTP 429 or 5xx (waits start at 1 s and double; the
fifth failed attempt gives up), fails at once on any other 4xx, and
returns the decoded JSON body. A client holds its store and an endpoint,
and only builds its request and pulls its field out of the reply.

A transport is anything callable as `transport(method, url, **request) ->
(status_code, body_text)`. `HttpTransport` is the one that uses `requests`:
`pipeline.StageFiles.endpoint` opens one per live stage (`popularity`,
`eval`, `lexicalize`) at the stage's first endpoint and closes it when the
stage ends or raises, so the stage's requests share one keep-alive
connection pool, sized to its concurrency. `requests` is imported at the
first request, so a stage that sends none never loads it. `bounded_map` is
the one thread pool.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Callable, Iterable, TypeVar

from .errors import PermanentHttpError, ProtocolError, TransportError
from .ratelimit import TokenBucket

RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
MAX_ATTEMPTS = 5
# seconds before `requests` gives up on one attempt, by HTTP method
_TIMEOUTS = {"GET": 30, "POST": 120}

T = TypeVar("T")
R = TypeVar("R")

Transport = Callable[..., tuple[int, str]]


class HttpTransport:
    """One stage's `requests` session, shared by its `bounded_map` workers.

    The session is made at the first request, with a pool that keeps up to
    `pool_size` connections per host alive. It reads nothing from the
    environment itself (`trust_env = False`): the proxies, CA bundle and
    netrc credentials that `requests.request` would look up on every call
    are looked up once per endpoint URL, at its first request, and passed
    with each request to it, so each request is sent as `requests.request`
    would send it. It keeps no cookies between requests, as the throwaway
    session of `requests.request` would not; a redirect to another host
    keeps the first host's proxies. A failed connection is a
    `TransportError`. Close it when done.
    """

    def __init__(self, pool_size: int):
        self._pool_size = max(1, pool_size)
        self._lock = threading.Lock()
        self._session = None
        # endpoint URL -> proxies, stream, verify, cert and auth for its requests
        self._settings: dict[str, dict] = {}

    def __call__(self, method: str, url: str, **request) -> tuple[int, str]:
        import requests

        settings = self._settings.get(url) or self._resolve(url)
        try:
            resp = self._session.request(method, url, **request, **settings,
                                         timeout=_TIMEOUTS[method])
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        return resp.status_code, resp.text

    def _resolve(self, url: str) -> dict:
        """Make the session if need be, and read `url`'s settings from the environment."""
        from http.cookiejar import DefaultCookiePolicy

        import requests

        with self._lock:
            if self._session is None:
                session = requests.Session()
                session.trust_env = False
                session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=()))
                adapter = requests.adapters.HTTPAdapter(pool_maxsize=self._pool_size)
                session.mount("https://", adapter)
                session.mount("http://", adapter)
                self._session = session
            if url not in self._settings:
                # a default session trusts the environment, as `requests.request` does
                with requests.Session() as probe:
                    settings = probe.merge_environment_settings(url, {}, None, None, None)
                settings["auth"] = requests.utils.get_netrc_auth(url)
                self._settings[url] = settings
            return self._settings[url]

    def close(self) -> None:
        with self._lock:
            if self._session is not None:
                self._session.close()
                self._session = None
            self._settings.clear()


class Endpoint:
    """One remote service, reached through `call`.

    `credential` maps request fields to the entries `call` merges into each
    request's own, after them: `{"headers": {"Authorization": "Bearer <key>"}}`.
    """

    def __init__(self, name: str, url: str, transport: Transport,
                 limiter: TokenBucket | None = None, credential: dict | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.name = name
        self.url = url
        self.transport = transport
        self.limiter = limiter
        self.credential = credential or {}
        self._sleep = sleep

    def call(self, method: str, **request):
        """Decoded JSON body of the first attempt that is not a failed request, 429 or 5xx."""
        for field, entries in self.credential.items():
            request[field] = {**request.get(field, {}), **entries}
        delay = RETRY_BASE_SECONDS
        last_error = ""  # the message only: the exception's traceback holds this frame
        for n in range(MAX_ATTEMPTS):
            if n > 0:
                self._sleep(delay)
                delay *= RETRY_FACTOR
            if self.limiter is not None:
                self.limiter.acquire()
            try:
                status, text = self.transport(method, self.url, **request)
            except TransportError as exc:
                last_error = str(exc)
                continue
            if status == 429 or 500 <= status < 600:
                last_error = f"HTTP {status} from {self.name}"
                continue
            if 400 <= status < 500:
                raise PermanentHttpError(status, text[:200])
            try:
                return json.loads(text)
            except ValueError as exc:
                raise ProtocolError(f"{self.name} response is not JSON: {exc}") from exc
        raise TransportError(f"{self.name} failed after {MAX_ATTEMPTS} attempts: {last_error}")


def bounded_map(fn: Callable[[T], R], items: Iterable[T], concurrency: int) -> list[R]:
    """`[fn(item) for item in items]`, with up to `concurrency` calls running at once.

    Runs inline at concurrency 1 or for fewer than two items. Otherwise at
    most 2 * concurrency calls are submitted ahead of the results: enough
    to keep every worker busy without holding one future per item (82k
    pending calls hold about 150 MB). The first call to raise cancels the
    calls not yet started, and its exception is re-raised.
    """
    items = list(items)
    if concurrency <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    pending: dict[Future, int] = {}

    def settle_one() -> None:
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            results[pending.pop(future)] = future.result()

    pool = ThreadPoolExecutor(max_workers=concurrency)
    try:
        for index, item in enumerate(items):
            if len(pending) >= 2 * concurrency:
                settle_one()
            pending[pool.submit(fn, item)] = index
        while pending:
            settle_one()
    finally:
        pool.shutdown(cancel_futures=True)
    return results

"""Fake remote endpoints for the live-fake workload.

`FakeEndpoints.install()` replaces `requests.adapters.HTTPAdapter.send`, so
termbench's own HTTP code (its requests transports, request building,
status handling, the token bucket and the transcript writer) runs in full
while no socket opens. Each endpoint answers from the corpus's planted data
after a fixed sleep: esearch counts from the pre-seeded PMC cache rows,
completions from the planted transcripts, embeddings from the planted store.
A URL that matches no endpoint gets a 404, never a real request.

A loopback server would not do: `pmc.ESEARCH_URL` is a constant and the
popularity stage passes no transport, so only the adapter reaches it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import requests
from requests.structures import CaseInsensitiveDict

from corpus import COMPLETION_URL, EMBEDDING_URL
from termbench.pmc import ESEARCH_URL

ENDPOINTS = ("esearch", "completion", "embedding", "other")


def _read_jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


class FakeEndpoints:
    def __init__(self, corpus_dir: Path, latency_s: float):
        self.latency_s = latency_s
        self.counts = {row["query"]: row["count"]
                       for row in _read_jsonl(corpus_dir / "pmc_cache.jsonl")}
        self.answers = {}
        for phase in ("baseline", "finetuned"):
            for row in _read_jsonl(corpus_dir / "transcripts" / f"{phase}.jsonl"):
                request = row["request"]
                key = (request["model"], request["messages"][0]["content"])
                self.answers[key] = row["response"]["text"]
        self.vectors = {row["text"]: row["vector"]
                        for row in _read_jsonl(corpus_dir / "embeddings.jsonl")}
        self._lock = threading.Lock()
        # per endpoint: requests served, seconds spent inside, texts embedded, error replies
        self.requests = dict.fromkeys(ENDPOINTS, 0)
        self.busy_s = dict.fromkeys(ENDPOINTS, 0.0)
        self.texts = 0
        self.errors = 0

    def install(self) -> None:
        fake = self

        def send(adapter, request, **kwargs):
            return fake.handle(request)

        requests.adapters.HTTPAdapter.send = send

    def _answer(self, request) -> tuple[str, int, dict, int]:
        url = urlsplit(request.url)
        base = f"{url.scheme}://{url.netloc}{url.path}"
        if base == ESEARCH_URL:
            term = parse_qs(url.query).get("term", [""])[0]
            if term in self.counts:
                return "esearch", 200, {"esearchresult": {"count": str(self.counts[term])}}, 0
            return "esearch", 404, {"error": "unknown query"}, 0
        if base == COMPLETION_URL:
            body = json.loads(request.body)
            text = self.answers.get((body["model"], body["messages"][0]["content"]))
            if text is None:
                return "completion", 404, {"error": "unknown prompt"}, 0
            return "completion", 200, {"choices": [{"message": {"content": text}}]}, 0
        if base == EMBEDDING_URL:
            texts = json.loads(request.body)["texts"]
            if not all(t in self.vectors for t in texts):
                return "embedding", 404, {"error": "unknown text"}, len(texts)
            return "embedding", 200, {"vectors": [self.vectors[t] for t in texts]}, len(texts)
        return "other", 404, {"error": f"no fake endpoint for {base}"}, 0

    def handle(self, request) -> requests.Response:
        start = time.perf_counter()
        time.sleep(self.latency_s)
        endpoint, status, payload, n_texts = self._answer(request)
        response = requests.Response()
        response.status_code = status
        response.reason = "OK" if status == 200 else "Not Found"
        response.headers = CaseInsensitiveDict({"Content-Type": "application/json"})
        response._content = json.dumps(payload).encode("utf-8")
        response.encoding = "utf-8"
        response.url = request.url
        response.request = request
        elapsed = time.perf_counter() - start
        with self._lock:
            self.requests[endpoint] += 1
            self.busy_s[endpoint] += elapsed
            self.texts += n_texts
            self.errors += status != 200
        return response

    def report(self) -> dict:
        with self._lock:
            return {"requests": dict(self.requests), "busy_s": dict(self.busy_s),
                    "texts": self.texts, "errors": self.errors}

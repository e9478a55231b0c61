"""Completion providers: recorded-transcript replay and chat-completions HTTP.

Every request/response is a transcript row `{prompt_hash, request,
response, timestamp}` (JSON Lines). The HTTP provider sends through the
transport its stage hands it and appends rows as it goes, through one
`TranscriptWriter` handle that the stage closes before hashing the file;
the replay provider serves responses from such a file by prompt hash,
which makes evaluations reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Protocol

from .errors import ConsistencyError, ParseError, ProtocolError
from .jsonl import RowAppender, iter_rows
from .ratelimit import TokenBucket
from .remote import Transport, call_json


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_tokens: int = 32


def prompt_hash(prompt_text: str) -> str:
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


class CompletionProvider(Protocol):
    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str: ...


def request_body(prompt_text: str, model_id: str, params: DecodingParams) -> dict:
    return {
        "model": model_id,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": params.temperature,
        "max_tokens": params.max_tokens,
    }


class ReplayProvider:
    """Serve completions from a recorded transcript, keyed by prompt hash."""

    def __init__(self, responses: dict[str, str]):
        self._responses = responses

    @classmethod
    def from_transcript(cls, path: str | Path) -> "ReplayProvider":
        with open(path, encoding="utf-8") as fh:
            return cls(dict(iter_rows(fh, _transcript_entry)))

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        key = prompt_hash(prompt_text)
        if key not in self._responses:
            raise ConsistencyError(f"no transcript entry for prompt hash {key[:12]}…")
        return self._responses[key]


def _transcript_entry(row: dict) -> tuple[str, str]:
    text = row["response"]["text"]
    if not isinstance(text, str):
        raise ParseError(f"response.text is not a string: {text!r}")
    return row["prompt_hash"], text


class TranscriptWriter(RowAppender):
    """Append-only transcript sink, safe under concurrent completions; close it when done."""

    def record(self, prompt_text: str, request: dict, response_text: str) -> None:
        self.append({
            "prompt_hash": prompt_hash(prompt_text),
            "request": request,
            "response": {"text": response_text},
            "timestamp": datetime.now(timezone.utc).isoformat(),
        })


class HttpCompletionProvider:
    """Chat-completions POST client with retry, rate limit and transcript."""

    def __init__(
        self,
        url: str,
        transport: Transport,
        api_key: str | None = None,
        transcript: TranscriptWriter | None = None,
        rate_limiter: TokenBucket | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url
        self.api_key = api_key
        self.transcript = transcript
        self.rate_limiter = rate_limiter
        self._transport = transport
        self._sleep = sleep

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        body = request_body(prompt_text, model_id, params)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = call_json("completion", "POST", self.url, transport=self._transport,
                            limiter=self.rate_limiter, sleep=self._sleep,
                            json=body, headers=headers)
        try:
            output = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"unexpected completion payload: {exc}") from exc
        if not isinstance(output, str):
            raise ProtocolError(f"completion content is not a string: {output!r}")
        if self.transcript is not None:
            self.transcript.record(prompt_text, body, output)
        return output

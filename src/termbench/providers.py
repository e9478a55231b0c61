"""Completion providers: recorded-transcript replay and chat-completions HTTP.

Every request/response is a transcript row `{prompt_hash, request, response,
timestamp}` (JSON Lines), keyed on the model, decoding settings and prompt.
The HTTP provider sends only what its transcript lacks, through the
`remote.Endpoint` its stage hands it (which carries the API key and the
rate limit), and records each reply there through one handle that the
stage closes before hashing the file; the replay provider serves
responses from such a file alone, so evaluations replay byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Protocol

from .errors import ConsistencyError, ParseError, ProtocolError
from .jsonl import KeyedStore
from .remote import Endpoint


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
    """Serve completions from a recorded transcript (or a dict of its keys) alone."""

    def __init__(self, responses):
        self._responses = responses

    @classmethod
    def from_transcript(cls, path: str | Path) -> "ReplayProvider":
        return cls(TranscriptWriter(path))

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        text = recorded(self._responses, prompt_text, model_id, params)
        if text is None:
            raise ConsistencyError(f"no transcript entry for {model_id!r} and {prompt_text!r}")
        return text


def request_key(model_id, temperature, max_tokens, prompt_text: str) -> bytes:
    """The SHA-256 digest of a request's model, decoding settings and prompt.

    Equal settings give one key: `+ 0.0` turns -0.0 into 0.0 and 1 into 1.0."""
    settings = f"{model_id!r} {temperature + 0.0!r} {max_tokens!r} {prompt_text}"
    return hashlib.sha256(settings.encode("utf-8")).digest()


def recorded(responses, prompt_text: str, model_id: str, params: DecodingParams) -> str | None:
    """The text recorded for this request, else for its prompt by a row with no request."""
    text = responses.get(request_key(model_id, params.temperature, params.max_tokens,
                                     prompt_text))
    return responses.get(prompt_hash(prompt_text)) if text is None else text


class TranscriptWriter(KeyedStore):
    """A transcript: `{prompt_hash, request, response, timestamp}` rows, by `request_key`."""

    @staticmethod
    def entry(row: dict) -> tuple[str | bytes, str]:
        text = row["response"]["text"]
        if not isinstance(text, str):
            raise ParseError(f"response.text is not a string: {text!r}")
        request = row.get("request")
        if request is None:
            return row["prompt_hash"], text
        return request_key(request["model"], request["temperature"], request["max_tokens"],
                           request["messages"][0]["content"]), text

    def record(self, prompt_text: str, request: dict, response_text: str) -> None:
        self.put({
            "prompt_hash": prompt_hash(prompt_text),
            "request": request,
            "response": {"text": response_text},
            "timestamp": datetime.now(timezone.utc).isoformat(),
        })


class HttpCompletionProvider:
    """Chat-completions POST client over its endpoint, for what its transcript lacks."""

    def __init__(self, endpoint: Endpoint, transcript: TranscriptWriter):
        self.endpoint = endpoint
        self.transcript = transcript

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        text = recorded(self.transcript, prompt_text, model_id, params)
        if text is not None:
            return text
        body = request_body(prompt_text, model_id, params)
        payload = self.endpoint.call("POST", json=body,
                                     headers={"Content-Type": "application/json"})
        try:
            output = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"unexpected completion payload: {exc}") from exc
        if not isinstance(output, str):
            raise ProtocolError(f"completion content is not a string: {output!r}")
        self.transcript.record(prompt_text, body, output)
        return output

"""Completion providers: recorded-transcript replay and chat-completions HTTP.

Every request/response is a transcript row `{prompt_hash, request, response,
timestamp}` (JSON Lines); a request is the model, the decoding settings and
the prompt, and two requests are one when their `request_text` is. The
HTTP provider keys its transcript by `request_key`, the SHA-256 of that
text, and sends only what the transcript lacks, through the
`remote.Endpoint` its stage hands it (which carries the API key and the
rate limit), and records each reply there through one handle that the
stage closes before hashing the file. The replay provider serves
responses from such a file alone, so evaluations replay byte for byte:
`from_transcript` reads the file once, joined to the one model, settings
and prompt set of an eval phase, and keeps one response per prompt under
the prompt's own string, so it hashes no row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Protocol

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
    """Serve completions from a recorded transcript alone.

    `ReplayProvider(responses)` looks each request up in `responses`, a
    transcript's keys (`request_key`, else `prompt_hash`) and their texts.
    `from_transcript` makes one joined to a phase's `request`, its model
    and settings, whose `responses` are keyed by prompt; it answers that
    model and those settings alone.
    """

    def __init__(self, responses, request: tuple[str, DecodingParams] | None = None):
        self._responses = responses
        self._request = request

    @classmethod
    def from_transcript(cls, path: str | Path, model_id: str, params: DecodingParams,
                        prompts: Iterable[str]) -> "ReplayProvider":
        """The transcript `path`, joined to `prompts` sent to `model_id` with `params`.

        Each prompt gets the text of the last row whose request is the one
        this prompt would send (its `request_text`), else of the last row
        with no request for that prompt, as `recorded` answers it; every
        other row is checked as a `TranscriptWriter` loads it, and dropped.
        """
        return cls(_PhaseTranscript(path, model_id, params, prompts).answers(),
                   (model_id, params))

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        if self._request is None:
            text = recorded(self._responses, prompt_text, model_id, params)
        elif (model_id, params) == self._request:
            text = self._responses.get(prompt_text)
        else:
            text = None
        if text is None:
            raise ConsistencyError(f"no transcript entry for {model_id!r} and {prompt_text!r}")
        return text


def request_text(model_id, temperature, max_tokens, prompt_text) -> bytes:
    """A request's model, decoding settings and prompt, as one UTF-8 text.

    Equal settings give one text: `+ 0.0` turns -0.0 into 0.0 and 1 into 1.0.
    A prompt that is not a string is formatted as `str` does."""
    return f"{model_id!r} {temperature + 0.0!r} {max_tokens!r} {prompt_text}".encode("utf-8")


def request_key(model_id, temperature, max_tokens, prompt_text: str) -> bytes:
    """The SHA-256 digest of a request's `request_text`."""
    return hashlib.sha256(request_text(model_id, temperature, max_tokens,
                                       prompt_text)).digest()


def recorded(responses, prompt_text: str, model_id: str, params: DecodingParams) -> str | None:
    """The text recorded for this request, else for its prompt by a row with no request."""
    text = responses.get(request_key(model_id, params.temperature, params.max_tokens,
                                     prompt_text))
    return responses.get(prompt_hash(prompt_text)) if text is None else text


def _row_request(row: dict) -> tuple[str, tuple | None]:
    """A transcript row's response text, and its request's (model, temperature,
    max_tokens, prompt), or None for a row with no request."""
    text = row["response"]["text"]
    if not isinstance(text, str):
        raise ParseError(f"response.text is not a string: {text!r}")
    request = row.get("request")
    if request is None:
        return text, None
    return text, (request["model"], request["temperature"], request["max_tokens"],
                  request["messages"][0]["content"])


class _PhaseTranscript(KeyedStore):
    """A transcript read for one phase: the rows that answer its prompts.

    A row whose request is the one a wanted prompt sends is keyed by that
    prompt's own string, so the row's copy of it is freed; a row with no
    request by the 1-tuple of its `prompt_hash`; any other row by None.
    """

    def __init__(self, path: str | Path, model_id: str, params: DecodingParams,
                 prompts: Iterable[str]):
        # what `request_text` writes of the phase's request, but its prompt; the
        # tuples compare as those texts do, but for a NaN temperature
        self._request = (model_id, params.temperature + 0.0, repr(params.max_tokens))
        self._wanted = {prompt: prompt for prompt in prompts}
        super().__init__(path)

    def entry(self, row: dict) -> tuple[object, str]:
        text, request = _row_request(row)
        if request is None:
            return (row["prompt_hash"],), text
        model, temperature, max_tokens, prompt = request
        # raise where `request_key` would: for a temperature that is not a
        # number, then for a prompt that is not UTF-8 (a lone surrogate)
        temperature = temperature + 0.0
        prompt = f"{prompt}"
        if not prompt.isascii():
            request_text(model, temperature, max_tokens, prompt)
        if (model, temperature, repr(max_tokens)) == self._request:
            return self._wanted.get(prompt), text
        return None, text

    def answers(self) -> dict[str, str]:
        """Each wanted prompt that a row answers, and its text."""
        answers = self._values
        answers.pop(None, None)
        unkeyed = {key[0]: answers.pop(key) for key in [k for k in answers if type(k) is tuple]}
        if unkeyed:
            for prompt in self._wanted.keys() - answers.keys():
                text = unkeyed.get(prompt_hash(prompt))
                if text is not None:
                    answers[prompt] = text
        return answers


class TranscriptWriter(KeyedStore):
    """A transcript: `{prompt_hash, request, response, timestamp}` rows, by `request_key`."""

    @staticmethod
    def entry(row: dict) -> tuple[str | bytes, str]:
        text, request = _row_request(row)
        if request is None:
            return row["prompt_hash"], text
        return request_key(*request), text

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

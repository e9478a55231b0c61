"""Completion providers: recorded-transcript replay and chat-completions HTTP.

Every request/response is a transcript row `{prompt_hash, request, response,
timestamp}` (JSON Lines); a request is the model, the decoding settings and
the prompt. A transcript is read one way, for replay and live alike: as a
`TranscriptWriter`, the file read once and joined to the one model,
settings and prompt set of an eval phase, which keeps one response per
prompt under the prompt's own string and so hashes no row. The replay
provider serves responses from such a join alone, so evaluations replay
byte for byte. The HTTP provider asks its join and sends only what it
lacks, through the `remote.Endpoint` its stage hands it (which carries the
API key and the rate limit), and records each reply there through one
handle that the stage closes before hashing the file. Either provider
answers only its phase's model and settings.
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

    `answers` holds each prompt's text, all of them for the one `request`, a
    (model, params) pair; the provider answers that model and those
    settings alone.
    """

    def __init__(self, answers: dict[str, str], request: tuple[str, DecodingParams]):
        self._answers = answers
        self._request = request

    @classmethod
    def from_transcript(cls, path: str | Path, model_id: str, params: DecodingParams,
                        prompts: Iterable[str]) -> "ReplayProvider":
        """The transcript `path`, joined to `prompts` sent to `model_id` with `params`."""
        return cls(TranscriptWriter(path, model_id, params, prompts)._values, (model_id, params))

    def complete(self, prompt_text: str, model_id: str, params: DecodingParams) -> str:
        text = self._answers.get(prompt_text) if (model_id, params) == self._request else None
        if text is None:
            raise ConsistencyError(f"no transcript entry for {model_id!r} and {prompt_text!r}")
        return text


class TranscriptWriter(KeyedStore):
    """A transcript read for one phase: `prompts` sent to `model_id` with `params`.

    Each prompt gets the text of the last row whose request is the one it
    sends (the same model, `temperature + 0.0` and `max_tokens`), else of
    the last row with no request and its `prompt_hash`, kept under the
    prompt's own string, so the row's copy of it is freed. Every other row
    is checked as it loads, and dropped. `record` appends a row, and keeps
    its text under its prompt.
    """

    def __init__(self, path: str | Path, model_id: str, params: DecodingParams,
                 prompts: Iterable[str]):
        self.request = (model_id, params)
        # the phase's request as `entry` compares a row's with it: two such tuples
        # are equal when their `f"{model!r} {temperature!r} {max_tokens!r}"` texts
        # are, but for a NaN temperature
        self._compared = (model_id, params.temperature + 0.0, repr(params.max_tokens))
        self._wanted = {prompt: prompt for prompt in prompts}
        super().__init__(path)
        # a row with no request was keyed by the 1-tuple of its `prompt_hash`,
        # and a row for no wanted prompt by None
        answers = self._values
        answers.pop(None, None)
        unkeyed = {key[0]: answers.pop(key) for key in [k for k in answers if type(k) is tuple]}
        if unkeyed:
            for prompt in self._wanted.keys() - answers.keys():
                text = unkeyed.get(prompt_hash(prompt))
                if text is not None:
                    answers[prompt] = text

    def entry(self, row: dict) -> tuple[object, str]:
        text = row["response"]["text"]
        if not isinstance(text, str):
            raise ParseError(f"response.text is not a string: {text!r}")
        request = row.get("request")
        if request is None:
            return (row["prompt_hash"],), text
        model, temperature, max_tokens, prompt = (
            request["model"], request["temperature"], request["max_tokens"],
            request["messages"][0]["content"])
        # raise for a temperature that is not a number, then for a prompt that
        # is not UTF-8 (a lone surrogate), with the error the request written
        # as one text gives
        temperature = temperature + 0.0
        prompt = f"{prompt}"
        if not prompt.isascii():
            f"{model!r} {temperature!r} {max_tokens!r} {prompt}".encode("utf-8")
        if (model, temperature, repr(max_tokens)) == self._compared:
            return self._wanted.get(prompt), text
        return None, text

    def record(self, prompt_text: str, request: dict | None, response_text: str) -> None:
        self._wanted.setdefault(prompt_text, prompt_text)
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
        if (model_id, params) != self.transcript.request:
            raise ConsistencyError(f"{self.transcript.path} is the transcript of "
                                   f"{self.transcript.request}, not of {(model_id, params)}")
        text = self.transcript.get(prompt_text)
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

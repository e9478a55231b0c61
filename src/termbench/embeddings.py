"""Embedding acquisition: file-backed store, HTTP endpoint, token pooling.

Hosting the embedding model is out of scope; vectors arrive either from a
store file or from an HTTP service, reached through a `remote.Endpoint`
that carries the API key and no rate limit, which grows a JSONL store.
Two layouts:

  JSONL   one object per line: {"text": ..., "dim": D, "vector": [...]}
  binary  magic "EMB1", u32le record count, then per record:
          u32le text byte length, UTF-8 text, u32le dim, dim float32le

Token matrices are mean-pooled into a single vector per string.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, ParseError, ProtocolError
from .jsonl import KeyedStore
from .remote import Endpoint

MAGIC = b"EMB1"
# Texts per embedding request; the default client batch cap of common embedding servers.
BATCH_SIZE = 32


def mean_pool(token_matrix: Sequence[Sequence[float]]) -> np.ndarray:
    """Componentwise mean over token rows (numpy pairwise summation)."""
    matrix = np.asarray(token_matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.shape[0] == 0 or matrix.size == 0:
        raise DomainError("cannot pool an empty token matrix")
    return matrix.mean(axis=0)


class FileEmbeddingStore:
    """Deterministic text -> vector lookup backed by a store file."""

    def __init__(self, vectors):
        self._vectors = vectors  # {text: vector}, or an `EmbeddingCache`

    def embed(self, text: str) -> np.ndarray:
        vec = self._vectors.get(text)
        if vec is None:
            raise ConsistencyError(f"no embedding stored for text {text!r}")
        return vec

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed(t) for t in texts]

    @classmethod
    def from_binary(cls, stream: IO) -> "FileEmbeddingStore":
        data = stream.read()
        if data[:4] != MAGIC:
            raise ParseError("bad magic bytes; not an EMB1 store")
        vectors: dict[str, np.ndarray] = {}
        try:
            (count,) = struct.unpack_from("<I", data, 4)
            offset = 8
            for index in range(count):
                (text_len,) = struct.unpack_from("<I", data, offset)
                offset += 4
                text = data[offset:offset + text_len]
                offset += text_len
                (dim,) = struct.unpack_from("<I", data, offset)  # raises on a cut text first
                offset += 4
                vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).astype(float)
                offset += 4 * dim
                try:
                    vectors[text.decode("utf-8")] = vec
                except UnicodeDecodeError as exc:
                    raise ParseError(f"the text of record {index} is not UTF-8: byte "
                                     f"{text[exc.start]:#04x} ({exc.reason})") from exc
        except (struct.error, ValueError) as exc:  # a cut file, or a count above its records
            raise ParseError(f"truncated EMB1 store: {exc}") from exc
        return cls(vectors)

    @classmethod
    def from_path(cls, path: str | Path) -> "FileEmbeddingStore":
        """The store in the file `path`, sniffed by its magic bytes; a
        binary store that does not parse is a ParseError naming the file."""
        with open(path, "rb") as fh:
            if fh.read(4) == MAGIC:
                fh.seek(0)
                try:
                    return cls.from_binary(fh)
                except ParseError as exc:
                    raise ParseError(f"{path}: {exc}") from exc
        return cls(EmbeddingCache(path))


class EmbeddingCache(KeyedStore):
    """A JSONL embedding store: a `KeyedStore` of `{text, dim, vector}` rows."""

    @staticmethod
    def entry(row: dict) -> tuple[str, np.ndarray]:
        vec = np.asarray(row["vector"], dtype=float)
        if vec.size != row["dim"]:
            raise ParseError(f"vector length {vec.size} != declared dim {row['dim']}")
        return row["text"], vec

    def put(self, text: str, vec: np.ndarray) -> None:
        super().put({"text": text, "dim": int(vec.size), "vector": [float(v) for v in vec]})

    def dim(self) -> int | None:
        return next((vec.size for vec in self._values.values()), None)


class HttpEmbeddingProvider:
    """POST {"texts": [...]} -> {"vectors": [[...]]} or {"token_vectors": [[[...]]]}.

    Only the distinct texts its cache lacks are sent, each vector being put
    in the cache as it arrives. A request goes through the endpoint the
    caller hands it, carries at most `BATCH_SIZE` texts and is retried like
    every other remote call. Every vector must be finite, flat and as long
    as the cached ones; a reply that breaks that is a `ProtocolError`.
    """

    def __init__(self, endpoint: Endpoint, cache: EmbeddingCache):
        self.endpoint = endpoint
        self.cache = cache

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        missing = [t for t in dict.fromkeys(texts) if self.cache.get(t) is None]
        for start in range(0, len(missing), BATCH_SIZE):
            batch = missing[start:start + BATCH_SIZE]
            for text, vec in zip(batch, self._request(batch)):
                self.cache.put(text, vec)
        return [self.cache.get(t) for t in texts]

    def _request(self, batch: list[str]) -> list[np.ndarray]:
        payload = self.endpoint.call("POST", json={"texts": batch})
        if not isinstance(payload, dict):
            raise ProtocolError("embedding response is not a JSON object")
        try:
            if "token_vectors" in payload:
                vectors = [mean_pool(m) for m in payload["token_vectors"]]
            elif "vectors" in payload:
                vectors = [np.asarray(v, dtype=float) for v in payload["vectors"]]
            else:
                raise ProtocolError("embedding response lacks vectors/token_vectors")
        except (TypeError, ValueError, DomainError) as exc:
            raise ProtocolError(f"embedding vectors are not numeric: {exc}") from exc
        if len(vectors) != len(batch):
            raise ProtocolError(f"asked for {len(batch)} embeddings, got {len(vectors)}")
        if not all(np.isfinite(v).all() for v in vectors):
            raise ProtocolError("embedding vectors hold a value that is not a finite number")
        lengths = {v.size if v.ndim == 1 else -1 for v in vectors}  # -1: not a flat vector
        if self.cache.dim() is not None:
            lengths.add(self.cache.dim())
        if len(lengths) != 1 or min(lengths) < 1:
            raise ProtocolError(f"embedding vectors of unequal or no length: {sorted(lengths)}")
        return vectors

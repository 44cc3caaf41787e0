"""Count-based n-gram language models used as desk-scale LM stand-ins.

Both the verifying target and the drafting backbone are instances of
:class:`NGramModel`; the only difference between them is the order (context
length) and smoothing they are trained with. Distributions are dense float64
vectors over the shared vocabulary and always sum to one, so every downstream
component can treat the model as an oracle for "probabilities of the next
token given this context".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyCorpus,
    InvalidOrder,
    IoError,
    SchemaVersionMismatch,
    UnknownToken,
)

EOS_TOKEN = "<eos>"
MODEL_SCHEMA_VERSION = 1

_CTX_SEP = "\x1f"
_DIST_CACHE_CAP = 1 << 17


@dataclass(frozen=True)
class Vocabulary:
    """Token strings in first-occurrence order, with ``<eos>`` always last.

    Ids are dense and 0-based; the id of a token is its position in
    ``tokens``. A vocabulary always contains at least one content token plus
    the end-of-sequence marker.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise EmptyCorpus("vocabulary needs at least one content token plus <eos>")
        if self.tokens[-1] != EOS_TOKEN:
            raise ConfigError("vocabulary must end with the <eos> token")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        if len(self._index) != len(self.tokens):
            raise ConfigError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def eos_id(self) -> int:
        return len(self.tokens) - 1

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownToken(f"token not in vocabulary: {token!r}") from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


def build_vocab(docs: Sequence[Sequence[str]]) -> Vocabulary:
    """Collect tokens by first occurrence across ``docs`` and append ``<eos>``."""
    seen: dict[str, None] = {}
    for doc in docs:
        for tok in doc:
            if tok == EOS_TOKEN:
                raise ConfigError("corpus contains the reserved <eos> token")
            if tok not in seen:
                seen[tok] = None
    if not seen:
        raise EmptyCorpus("corpus has no tokens")
    return Vocabulary(tuple(seen) + (EOS_TOKEN,))


class NGramModel:
    """Order-``k`` add-lambda n-gram model with longest-suffix backoff.

    Counts are gathered for every context window of length 0..k-1 observed in
    the training corpus, so backoff never falls off the end: the empty context
    (the unigram level) is always available. The model is immutable after
    training; distribution lookups are cached.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        smoothing: float,
        counts: dict[tuple[int, ...], dict[int, int]],
    ) -> None:
        if order < 1:
            raise InvalidOrder(f"n-gram order must be >= 1, got {order}")
        if smoothing < 0:
            raise ConfigError(f"smoothing must be >= 0, got {smoothing}")
        if () not in counts:
            raise EmptyCorpus("model has no unigram counts")
        self.vocabulary = vocabulary
        self.order = order
        self.smoothing = float(smoothing)
        self._counts = counts
        self._dist_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._top_cache: dict[tuple[int, ...], tuple[int, float]] = {}

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """Context -> token -> count for contexts shorter than ``order``, as
        training at ``order`` builds it (a copy; treat buckets as read-only)."""
        return {ctx: bucket for ctx, bucket in self._counts.items() if len(ctx) < self.order}

    def with_order(self, order: int, smoothing: float) -> NGramModel:
        """An O(1) view sharing this vocabulary and count table; it equals
        training at ``order``. A higher order would need contexts the table
        never counted, so ``order`` must be in 1..``self.order``."""
        if not 1 <= order <= self.order:
            raise InvalidOrder(f"view order must be in 1..{self.order}, got {order}")
        return NGramModel(self.vocabulary, order, smoothing, self._counts)

    def window(self, context: Sequence[int]) -> tuple[int, ...]:
        """The last ``order - 1`` tokens of ``context``: all the model reads of
        it, so every lookup and everything derived from one is keyed by it."""
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def next_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Dense next-token distribution after ``context``.

        Only the :meth:`window` of ``context`` is used. If that window was
        never observed, the model backs off to the longest observed suffix,
        bottoming out at the unigram level. Add-lambda smoothing is applied at
        the matched level only.
        """
        ctx = self.window(context)
        cached = self._dist_cache.get(ctx)
        if cached is not None:
            return cached
        level = ctx
        while level and level not in self._counts:
            level = level[1:]
        bucket = self._counts[level]
        size = len(self.vocabulary)
        lam = self.smoothing
        probs = np.full(size, lam, dtype=np.float64)
        for tok, cnt in bucket.items():
            probs[tok] += cnt
        probs /= sum(bucket.values()) + lam * size
        probs.setflags(write=False)
        if len(self._dist_cache) < _DIST_CACHE_CAP:
            self._dist_cache[ctx] = probs
        return probs

    def top(self, context: Sequence[int]) -> tuple[int, float]:
        """The argmax token after ``context`` (ties go to the lowest id) and
        its probability, cached per :meth:`window`."""
        ctx = self.window(context)
        cached = self._top_cache.get(ctx)
        if cached is not None:
            return cached
        dist = self.next_distribution(ctx)
        tok = argmax_token(dist)
        best = (tok, float(dist[tok]))
        if len(self._top_cache) < _DIST_CACHE_CAP:
            self._top_cache[ctx] = best
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NGramModel(order={self.order}, smoothing={self.smoothing}, "
            f"vocab={len(self.vocabulary)}, contexts={len(self._counts)})"
        )


def argmax_token(dist: np.ndarray) -> int:
    """Index of the largest probability; ties resolve to the lowest token id."""
    return int(np.argmax(dist))


def train_ngram(
    docs: Sequence[Sequence[str]],
    order: int,
    smoothing: float = 0.1,
    vocabulary: Vocabulary | None = None,
) -> NGramModel:
    """Train an order-``order`` model on tokenized documents.

    Every document is terminated by ``<eos>``; counts are collected for all
    context windows of length 0..order-1 that fit inside the document (windows
    never cross document boundaries). Pass ``vocabulary`` to train against a
    pre-built shared vocabulary (required when target and drafter must agree
    on token ids but are trained on different text).
    """
    if order < 1:
        raise InvalidOrder(f"n-gram order must be >= 1, got {order}")
    if vocabulary is None:
        vocabulary = build_vocab(docs)
    eos = vocabulary.eos_id
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    total_tokens = 0
    for doc in docs:
        seq = vocabulary.encode(doc)
        seq.append(eos)
        total_tokens += len(seq) - 1
        for j, tok in enumerate(seq):
            lo = j - min(j, order - 1)
            for start in range(lo, j + 1):
                ctx = tuple(seq[start:j])
                bucket = counts.get(ctx)
                if bucket is None:
                    bucket = {}
                    counts[ctx] = bucket
                bucket[tok] = bucket.get(tok, 0) + 1
    if total_tokens == 0:
        raise EmptyCorpus("corpus has no tokens")
    return NGramModel(vocabulary, order, smoothing, counts)


def save_model(model: NGramModel, path: str | os.PathLike[str]) -> None:
    """Write the model as versioned JSON; round-trips bit-exactly."""
    for tok in model.vocabulary.tokens:
        if _CTX_SEP in tok:
            raise ConfigError("token contains the reserved context separator 0x1f")
    vocab = model.vocabulary.tokens
    counts_obj: dict[str, dict[str, int]] = {}
    for ctx, bucket in model.counts.items():
        key = _CTX_SEP.join(vocab[i] for i in ctx)
        counts_obj[key] = {vocab[t]: c for t, c in bucket.items()}
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "ngram-model",
        "order": model.order,
        "smoothing": model.smoothing,
        "vocabulary": list(vocab),
        "counts": counts_obj,
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from exc


def load_model(path: str | os.PathLike[str]) -> NGramModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`IoError` on unreadable, unparseable or malformed files (a
    field of the wrong type, a count that is not a positive integer, a
    non-finite smoothing) and :class:`SchemaVersionMismatch` on a version
    this build does not support; never returns a partially valid model.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IoError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "ngram-model":
        raise IoError(f"{path} is not an n-gram model file")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"model schema_version {version!r} unsupported (expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        tokens, order, smoothing = payload["vocabulary"], payload["order"], payload["smoothing"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary must be a list of strings")
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if type(smoothing) not in (int, float) or not 0 <= smoothing < math.inf:
            raise ValueError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
        if not isinstance(payload["counts"], dict):
            raise ValueError("counts must be an object")
        vocabulary = Vocabulary(tuple(tokens))
        index = {t: i for i, t in enumerate(vocabulary.tokens)}
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for key, bucket in payload["counts"].items():
            if not isinstance(bucket, dict) or not bucket:
                raise ValueError(f"bucket {key!r} must be a non-empty object")
            if not all(type(c) is int and c >= 1 for c in bucket.values()):
                raise ValueError(f"bucket {key!r} holds a count that is not an integer >= 1")
            ctx = () if key == "" else tuple(index[t] for t in key.split(_CTX_SEP))
            counts[ctx] = {index[t]: c for t, c in bucket.items()}
        return NGramModel(vocabulary, order, float(smoothing), counts)
    except (KeyError, TypeError, ValueError, ConfigError, EmptyCorpus) as exc:
        raise IoError(f"model file {path} is malformed: {exc}") from exc

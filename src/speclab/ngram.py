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
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IoError, check_number

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
            raise ConfigError("vocabulary needs at least one content token plus <eos>")
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
            raise ConfigError(f"token not in vocabulary: {token!r}") from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        try:
            return list(map(self._index.__getitem__, tokens))
        except KeyError as exc:
            raise ConfigError(f"token not in vocabulary: {exc.args[0]!r}") from None

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
        raise ConfigError("corpus has no tokens")
    return Vocabulary(tuple(seen) + (EOS_TOKEN,))


class _SuffixTrie:
    """A count table as a reversed trie over flat arrays, shared by every
    order view of one training.

    Node 0 is the empty context. The node of a context ``(t,) + rest`` is
    ``edges[node(rest) * |V| + t]``: every node hangs off the context one
    token shorter at the left, the key of Pauls & Klein's suffix-indexed
    n-grams. A node's bucket is ``tokens[bounds[v]:bounds[v + 1]]`` with
    their counts at the same places of ``tallies``, and ``totals[v]`` is
    their sum. Every suffix of a node is a node, so walking the window from
    its last token stops at the longest suffix there is.
    """

    def __init__(
        self,
        size: int,
        edges: dict[int, int],
        bounds: np.ndarray,
        tokens: np.ndarray,
        tallies: np.ndarray,
        totals: np.ndarray,
        counts: dict[tuple[int, ...], dict[int, int]] | None = None,
    ) -> None:
        self.size = size
        self.edges = edges
        # A memoryview indexes to a Python int in about half the time numpy does.
        self.bounds, self.tokens, self.tallies, self.totals = (
            memoryview(np.asarray(a)) for a in (bounds, tokens, tallies, totals)
        )
        self._counts = counts

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, ...], dict[int, int]], size: int) -> _SuffixTrie:
        """The trie of a context -> token -> count dict holding ``()``.

        The dict need not be suffix-closed (a model file may leave out the
        suffix of a context it keeps): every suffix of a stored context
        becomes a node, and one the dict lacks takes the bucket of its
        longest suffix the dict holds, so a walk still ends on the bucket
        of the longest suffix in ``counts``.
        """
        nodes = {(): 0}
        for ctx in counts:
            for start in range(len(ctx)):
                nodes.setdefault(ctx[start:], len(nodes))
        tokens: list[int] = []
        tallies: list[int] = []
        bounds, totals = [0], []
        for ctx in nodes:
            while ctx not in counts:
                ctx = ctx[1:]
            bucket = counts[ctx]
            tokens += bucket
            tallies += bucket.values()
            bounds.append(len(tokens))
            totals.append(sum(bucket.values()))
        edges = {nodes[ctx[1:]] * size + ctx[0]: node for ctx, node in nodes.items() if ctx}
        # int64 throughout: a count or total past it raises OverflowError here.
        arrays = (np.array(a, dtype=np.int64) for a in (bounds, tokens, tallies, totals))
        return cls(size, edges, *arrays, counts)

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """Context -> token -> count for every node, built on first read.

        A trained trie numbers its nodes in the order counting position by
        position inserts contexts, so the dict comes out in that order.
        Contexts with equal ordered buckets share one bucket dict, so
        buckets are read-only.
        """
        if self._counts is None:
            self._counts = dict(zip(self._contexts(), self._buckets()))
        return self._counts

    def _contexts(self) -> list[tuple[int, ...]]:
        """Every node's context, by node (a trained trie inserts its edges in
        node order)."""
        keys = np.fromiter(self.edges, dtype=np.int64, count=len(self.edges))
        parents, firsts = (np.r_[0, a].tolist() for a in np.divmod(keys, self.size))
        contexts: list = [()] + [None] * len(keys)
        for node in range(1, len(contexts)):
            path, up = [], node
            while contexts[up] is None:  # a suffix can come later at one position
                path.append(up)
                up = parents[up]
            ctx = contexts[up]
            for step in reversed(path):
                ctx = contexts[step] = (firsts[step],) + ctx
        return contexts

    def _buckets(self) -> list[dict[int, int]]:
        """Every node's bucket as a token -> count dict, by node; equal
        ordered buckets are one dict."""
        items = np.empty(2 * len(self.tokens), dtype=np.int64)
        items[0::2], items[1::2] = self.tokens, self.tallies
        flat = tuple(items.tolist())
        ends = 2 * np.asarray(self.bounds, dtype=np.int64)
        shared: dict[tuple[int, ...], dict[int, int]] = {}
        return [
            shared.get(key) or shared.setdefault(key, dict(zip(key[0::2], key[1::2])))
            for key in map(flat.__getitem__, map(slice, ends[:-1], ends[1:]))
        ]


class NGramModel:
    """Order-``k`` add-lambda n-gram model with longest-suffix backoff.

    Counts are gathered for every context window of length 0..k-1 observed in
    the training corpus, so backoff never falls off the end: the empty context
    (the unigram level) is always available. The model is immutable after
    training; lookups are cached per window.

    ``counts`` is a context -> token -> count dict holding ``()``, or the
    trie of another model (how training and :meth:`with_order` share one).
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        smoothing: float,
        counts: dict[tuple[int, ...], dict[int, int]] | _SuffixTrie,
    ) -> None:
        if order < 1:
            raise ConfigError(f"n-gram order must be >= 1, got {order}")
        check_number(smoothing, float, "smoothing", at_least=0)
        if not isinstance(counts, _SuffixTrie):
            if () not in counts:
                raise ConfigError("model has no unigram counts")
            counts = _SuffixTrie.from_counts(counts, len(vocabulary))
        self.vocabulary = vocabulary
        self.order = order
        self.smoothing = float(smoothing)
        self._trie = counts
        self._window = slice(1 - order, None) if order > 1 else slice(0, 0)
        self._floor = np.full(len(vocabulary), self.smoothing)  # the numerator of an unseen token
        self._cache: dict[tuple[int, ...], tuple[np.ndarray, int, float]] = {}

    @cached_property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        """Context -> token -> count for contexts shorter than ``order``, as
        training at ``order`` builds it (built on first read and kept; treat
        it as read-only)."""
        return {ctx: bucket for ctx, bucket in self._trie.counts.items() if len(ctx) < self.order}

    def with_order(self, order: int, smoothing: float) -> NGramModel:
        """An O(1) view sharing this vocabulary and count table; it equals
        training at ``order``. A higher order would need contexts the table
        never counted, so ``order`` must be in 1..``self.order``."""
        if not 1 <= order <= self.order:
            raise ConfigError(f"view order must be in 1..{self.order}, got {order}")
        return NGramModel(self.vocabulary, order, smoothing, self._trie)

    def window(self, context: Sequence[int]) -> tuple[int, ...]:
        """The last ``order - 1`` tokens of ``context``: all the model reads of
        it, so every lookup and everything derived from one is keyed by it."""
        return tuple(context[self._window])

    def next_distribution(self, context: Sequence[int]) -> np.ndarray:
        """Dense next-token distribution after ``context``, a sequence of ids
        of this model's vocabulary.

        Only the :meth:`window` of ``context`` is used. If that window was
        never observed, the model backs off to the longest observed suffix,
        bottoming out at the unigram level. Add-lambda smoothing is applied at
        the matched level only.
        """
        ctx = tuple(context[self._window])
        return (self._cache.get(ctx) or self._lookup(ctx))[0]

    def top(self, context: Sequence[int]) -> tuple[int, float]:
        """The argmax token after ``context`` (ties go to the lowest id) and
        its probability, cached per :meth:`window`."""
        ctx = tuple(context[self._window])
        found = self._cache.get(ctx) or self._lookup(ctx)
        return found[1], found[2]

    def _lookup(self, ctx: tuple[int, ...]) -> tuple[np.ndarray, int, float]:
        """Walk the trie from the last token of the window ``ctx`` to its
        longest counted suffix, and read the distribution and its argmax off
        that bucket: a counted token never scores below an unseen one, so
        the argmax is the lowest id of the largest probability among the
        bucket and token 0."""
        trie = self._trie
        edges, size = trie.edges, trie.size
        node = 0
        for tok in reversed(ctx):
            child = edges.get(node * size + tok)
            if child is None:
                break
            node = child
        lam = self.smoothing
        total = trie.totals[node] + lam * size
        probs = self._floor / total
        best, best_p = 0, lam / total
        tokens, tallies = trie.tokens, trie.tallies
        for i in range(trie.bounds[node], trie.bounds[node + 1]):
            tok = tokens[i]
            p = probs[tok] = (lam + tallies[i]) / total
            if p > best_p or (p == best_p and tok < best):
                best, best_p = tok, p
        probs.setflags(write=False)
        found = (probs, best, best_p)
        if len(self._cache) < _DIST_CACHE_CAP:
            self._cache[ctx] = found
        return found

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NGramModel(order={self.order}, smoothing={self.smoothing}, "
            f"vocab={len(self.vocabulary)}, nodes={len(self._trie.totals)})"
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
    on token ids but are trained on different text). A document holding
    ``<eos>`` itself is rejected on both paths.

    The corpus is counted as one id array into the arrays of a suffix trie,
    one context length ``L`` at a time. Every position ``j`` whose
    length-``L`` context lies in its document has the key (rank of the
    context's suffix one token shorter, the context's first token, the next
    token ``ids[j]``). Sorting the keys groups equal contexts, and within
    them equal next tokens: a group's size is its count, its lowest position
    its first occurrence, and the contexts' dense ranks key the next length.
    Levels stop when no window fits in a document, so an ``order`` above the
    longest document costs nothing. Nodes are numbered in the order
    counting position by position inserts contexts (by first occurrence,
    the longer first at one position) and bucket tokens by first
    occurrence. No Python object is built per context: the ``counts`` dict
    is built from the arrays when it is first read.
    """
    if order < 1:
        raise ConfigError(f"n-gram order must be >= 1, got {order}")
    if vocabulary is None:
        vocabulary = build_vocab(docs)
    lengths = [len(doc) + 1 for doc in docs]
    corpus: list[str] = []
    for doc in docs:
        corpus += doc
        corpus.append(EOS_TOKEN)
    # The narrowest id type: the ids stay alive through counting's peak.
    ids = np.array(vocabulary.encode(corpus), dtype=np.min_scalar_type(len(vocabulary)))
    del corpus
    if np.count_nonzero(ids == vocabulary.eos_id) != len(lengths):
        raise ConfigError("corpus contains the reserved <eos> token")
    if len(ids) == len(lengths):
        raise ConfigError("corpus has no tokens")
    return NGramModel(vocabulary, order, smoothing, _count_windows(ids, lengths, order, len(vocabulary)))


def _count_windows(ids: np.ndarray, lengths: list[int], order: int, size: int) -> _SuffixTrie:
    """Count the windows of the corpus ``ids``, documents of ``lengths``
    tokens each, that lie in one document into a trie, as :func:`train_ngram`
    describes. The edges dict is built last, once every temporary is gone."""
    edge_keys, *arrays = _number_nodes(*_count_levels(ids, lengths, order, size), size)
    edges = dict(zip(edge_keys.tolist(), range(1, len(edge_keys) + 1)))
    return _SuffixTrie(size, edges, *arrays)


def _count_levels(
    ids: np.ndarray, lengths: list[int], order: int, size: int
) -> tuple[np.ndarray, ...]:
    """Every context of the corpus, one context length at a time.

    Returns per context its place in insertion order (first position times
    ``order``, plus ``order - 1 - length`` so the longer comes first at one
    position), its parent (the context without its first token, as an index
    into these arrays) and first token, and its bucket width; and the
    buckets, each one's (token, count) groups by first position. Positions
    are int32, and every sort key stays below (contexts of one length) *
    |V|², so a corpus must hold fewer than 2**31 and 2**63 / |V|² tokens.
    """
    n = len(ids)
    if n >= 1 << 31 or n * size * size >= 1 << 63:
        raise ConfigError(f"corpus of {n} tokens over {size} types is too large to count")
    doc_start = np.zeros(n + 1, dtype=bool)  # where a document starts, and at n
    doc_start[np.cumsum([0] + lengths)] = True
    # The positions j whose length-L context lies in their document, and the
    # key of each: the dense rank of its context's suffix one token shorter
    # and the context's first token (both nothing at L = 0), then ids[j].
    at, keys = np.arange(n, dtype=np.int32), ids
    levels: list[tuple[np.ndarray, ...]] = []
    parent_base = start = 0  # where the previous length's and this length's contexts begin
    for length in range(order):
        if not len(at):
            break
        # For the narrow ids at length 0, numpy's stable sort is a radix sort.
        perm = np.argsort(keys, kind="stable" if length == 0 else "quicksort")
        at = at[perm]
        keys = keys[perm]
        heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        first = np.minimum.reduceat(at, heads)
        cnt = np.diff(np.r_[heads, len(at)])
        ctx, tok = np.divmod(keys[heads], size)  # ctx is (suffix rank, first token)
        new = np.r_[True, ctx[1:] != ctx[:-1]]
        runs = np.flatnonzero(new)  # the groups that start a context
        perm = np.argsort(np.cumsum(new) * n + first)  # within each context, by first position
        suffix, first_tok = np.divmod(ctx[runs], size)
        levels.append((
            np.minimum.reduceat(first, runs).astype(np.int64) * order + (order - 1 - length),
            suffix + parent_base,
            first_tok,
            np.diff(np.r_[runs, len(heads)]),
            tok[perm],
            cnt[perm],
        ))
        parent_base, start = start, start + len(runs)
        marks = np.zeros(len(at), dtype=bool)
        marks[heads[runs]] = True
        keys = np.cumsum(marks)  # each position's context rank + 1
        # The context grows one token to the left while that token lies in
        # the document, that is while j - L is not where it starts.
        keep = ~doc_start[at - length]
        at = at[keep]
        keys = keys[keep]
        keys -= 1
        keys *= size
        keys += ids[at - length - 1]
        keys *= size
        keys += ids[at]
    return tuple(np.concatenate(a) for a in zip(*levels))


def _number_nodes(
    place: np.ndarray, parent: np.ndarray, first_tok: np.ndarray, widths: np.ndarray,
    tok: np.ndarray, cnt: np.ndarray, size: int,
) -> tuple[np.ndarray, ...]:
    """Number the contexts of :func:`_count_levels` in insertion order: the
    edge key of nodes 1.. (node 0 is ``()``), and the bucket bounds, tokens,
    counts and totals by node, in the narrowest dtype that holds them."""
    by_first = np.argsort(place)
    node = np.empty_like(by_first)
    node[by_first] = np.arange(len(node))
    edge_keys = (node[parent] * size + first_tok)[by_first[1:]]
    old_start = (np.cumsum(widths) - widths)[by_first]
    widths = widths[by_first]
    ends = np.cumsum(widths)
    gather = np.repeat(old_start - (ends - widths), widths) + np.arange(len(tok))
    bounds, tallies = np.r_[0, ends], cnt[gather]
    totals = np.add.reduceat(tallies, bounds[:-1])
    dtype = np.min_scalar_type(max(len(tok), size, totals[0]))  # the root's total is the largest
    return (edge_keys, *(a.astype(dtype) for a in (bounds, tok[gather], tallies, totals)))


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
    field of the wrong type, a count that is not a positive integer or
    overflows int64, a non-finite smoothing) and :class:`ConfigError` on a version
    this build does not support; never returns a partially valid model.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:  # also text that is not UTF-8, or an integer past Python's digit limit
        raise IoError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "ngram-model":
        raise IoError(f"{path} is not an n-gram model file")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ConfigError(
            f"model schema_version {version!r} unsupported (expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        tokens, order, smoothing = payload["vocabulary"], payload["order"], payload["smoothing"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary must be a list of strings")
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
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
        return NGramModel(vocabulary, order, smoothing, counts)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError) as exc:
        raise IoError(f"model file {path} is malformed: {exc}") from exc

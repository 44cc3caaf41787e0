"""N-gram model unit tests with hand-enumerated probability oracles."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.config import read_corpus
from speclab.drafter import DiffusionDrafter
from speclab.engine import CostModel, run_episode
from speclab.errors import (
    ConfigError,
    EmptyCorpus,
    InvalidOrder,
    IoError,
    SchemaVersionMismatch,
    UnknownToken,
)
from speclab.ngram import (
    EOS_TOKEN,
    NGramModel,
    Vocabulary,
    _SuffixTrie,
    argmax_token,
    build_vocab,
    load_model,
    save_model,
    train_ngram,
)
from speclab.policies import FailFast
from speclab.tokenizers import detokenize, tokenize


DATA = os.path.join(os.path.dirname(__file__), "..", "workloads", "data")


def model_for(texts: list[str], order: int, smoothing: float = 0.0) -> NGramModel:
    return train_ngram([list(t) for t in texts], order=order, smoothing=smoothing)


def loop_counts(docs, order, vocabulary=None):
    """The reference trainer: every context window counted position by
    position, in the insertion order the table must keep."""
    if vocabulary is None:
        vocabulary = build_vocab(docs)
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    total_tokens = 0
    for doc in docs:
        seq = vocabulary.encode(doc)
        seq.append(vocabulary.eos_id)
        total_tokens += len(seq) - 1
        for j, tok in enumerate(seq):
            for start in range(j - min(j, order - 1), j + 1):
                bucket = counts.setdefault(tuple(seq[start:j]), {})
                bucket[tok] = bucket.get(tok, 0) + 1
    if total_tokens == 0:
        raise EmptyCorpus("corpus has no tokens")
    return NGramModel(vocabulary, order, 0.1, counts)


def backoff_distribution(counts, order, smoothing, size, context) -> np.ndarray:
    """The reference lookup: the longest suffix of the window in ``counts``,
    filled and normalised as one dense vector."""
    level = tuple(context[max(0, len(context) - order + 1):])
    while level not in counts:
        level = level[1:]
    bucket = counts[level]
    probs = np.full(size, float(smoothing))
    for tok, cnt in bucket.items():
        probs[tok] += cnt
    return probs / (sum(bucket.values()) + smoothing * size)


def items(model: NGramModel) -> list:
    return [(ctx, list(b.items())) for ctx, b in model.counts.items()]


def saved(model: NGramModel, path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


class TestVocabulary:
    def test_first_occurrence_order_with_eos_last(self):
        vocab = build_vocab([list("baab"), list("c")])
        assert vocab.tokens == ("b", "a", "c", EOS_TOKEN)
        assert vocab.eos_id == 3
        assert vocab.encode("cab") == [2, 1, 0]
        assert vocab.decode([0, 1]) == ["b", "a"]

    def test_unknown_token_raises(self):
        vocab = build_vocab([list("ab")])
        with pytest.raises(UnknownToken):
            vocab.id_of("z")

    def test_encode_names_the_unknown_token(self):
        vocab = build_vocab([list("ab")])
        with pytest.raises(UnknownToken, match="token not in vocabulary: 'z'"):
            vocab.encode("abz")

    def test_reserved_eos_in_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([["a", EOS_TOKEN]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([[]])


class TestTokenizers:
    def test_char_round_trip(self):
        assert tokenize("ab c", "char") == ["a", "b", " ", "c"]
        assert detokenize(["a", "b", " ", "c"], "char") == "ab c"

    def test_whitespace_round_trip(self):
        assert tokenize("the  quick fox", "whitespace") == ["the", "quick", "fox"]
        assert detokenize(["the", "quick", "fox"], "whitespace") == "the quick fox"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            tokenize("x", "bytes")


class TestDistributions:
    def test_unigram_counts_aab(self):
        # "aab" + <eos>: counts a=2, b=1, eos=1 over 4 events.
        model = model_for(["aab"], order=1)
        dist = model.next_distribution([])
        assert dist.tolist() == [0.5, 0.25, 0.25]
        assert float(dist.sum()) == 1.0

    def test_deterministic_bigram_abab(self):
        # In "abab" every a is followed by b, so P(b|a) = 1 exactly.
        model = model_for(["abab"], order=2)
        a, b = model.vocabulary.encode("ab")
        assert model.next_distribution([a]).tolist() == [0.0, 1.0, 0.0]
        # b is followed by a once and by <eos> once.
        assert model.next_distribution([b]).tolist() == [0.5, 0.0, 0.5]

    def test_add_one_smoothing_ab(self):
        # Context "a" saw only b once; add-1 over 3 symbols: (1, 2, 1) / 4.
        model = model_for(["ab"], order=2, smoothing=1.0)
        a = model.vocabulary.id_of("a")
        assert model.next_distribution([a]).tolist() == [0.25, 0.5, 0.25]

    def test_backoff_to_longest_observed_suffix(self):
        model = model_for(["abcab"], order=3)
        a, b, c = model.vocabulary.encode("abc")
        # (c, c) was never seen; the model must fall back to context (c,).
        assert np.array_equal(model.next_distribution([c, c]), model.next_distribution([c]))
        # (c,) deterministically continues with a.
        assert model.next_distribution([c]).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_only_last_order_minus_one_tokens_matter(self):
        model = model_for(["abcab"], order=3)
        ids = model.vocabulary.encode("abcab")
        assert np.array_equal(
            model.next_distribution(ids), model.next_distribution(ids[-2:])
        )

    def test_argmax_tie_takes_lowest_id(self):
        # "ba": b, a, <eos> all have count 1; the tie resolves to id 0 = b.
        model = model_for(["ba"], order=1)
        assert argmax_token(model.next_distribution([])) == 0
        assert model.vocabulary.tokens[0] == "b"

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            model_for(["ab"], order=0)

    def test_negative_smoothing(self):
        for smoothing in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="smoothing"):
                model_for(["ab"], order=1, smoothing=smoothing)


class TestPersistence:
    def test_round_trip_preserves_distributions(self, tmp_path, mixed_lab):
        path = tmp_path / "model.json"
        save_model(mixed_lab.target, path)
        clone = load_model(path)
        assert clone.vocabulary.tokens == mixed_lab.target.vocabulary.tokens
        assert clone.order == mixed_lab.target.order
        assert clone.smoothing == mixed_lab.target.smoothing
        probe = mixed_lab.target.vocabulary.encode(tokenize("the quick", "char"))
        assert np.array_equal(
            clone.next_distribution(probe), mixed_lab.target.next_distribution(probe)
        )

    def test_round_trip_is_byte_stable(self, tmp_path):
        model = model_for(["abcab", "cba"], order=3, smoothing=0.1)
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        model = model_for(["ab"], order=1)
        path = tmp_path / "m.json"
        save_model(model, path)
        tampered = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(tampered)
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    # Each edit of a valid file must fail to load with one typed error, never
    # a traceback and never a model that loads but computes nonsense.
    @pytest.mark.parametrize(
        "path,value",
        [
            (["counts"], [["a", 1]]),
            (["counts", ""], [1, 2]),
            (["counts", ""], {}),
            (["counts", ""], {"a": -3, "b": 1}),
            (["counts", ""], {"a": 1.5, "b": 1}),
            (["counts", ""], {"a": True}),
            (["counts", ""], {"a": "2"}),
            (["order"], 2.7),
            (["order"], True),
            (["order"], 0),
            (["smoothing"], "nan"),
            (["smoothing"], float("nan")),
            (["smoothing"], -0.5),
            (["smoothing"], None),
            (["vocabulary"], "ab"),
            (["vocabulary"], ["a", "b"]),
            pytest.param(["smoothing"], 10**400, id="path16-401-digits"),
            (["counts", ""], {"a": 2**63, "b": 1}),
        ],
    )
    def test_malformed_fields_raise_io_error(self, tmp_path, path, value):
        file = tmp_path / "m.json"
        save_model(model_for(["abab"], order=2, smoothing=0.1), file)
        payload = json.loads(file.read_text())
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        file.write_text(json.dumps(payload))
        with pytest.raises(IoError, match="is malformed"):
            load_model(file)

    def test_integral_smoothing_still_loads(self, tmp_path):
        file = tmp_path / "m.json"
        save_model(model_for(["abab"], order=2, smoothing=1.0), file)
        payload = json.loads(file.read_text())
        payload["smoothing"] = 1
        file.write_text(json.dumps(payload))
        assert load_model(file).smoothing == 1.0


WORDS = ["the", "cat", "sat", "a"]


@st.composite
def training_case(draw):
    """Corpora with empty and one-token documents, char or whitespace
    tokens, an order up to well past the longest document, and sometimes a
    given vocabulary in any order, holding tokens the corpus never uses."""
    if draw(st.booleans()):
        texts = draw(st.lists(st.text(alphabet="abc", max_size=10), min_size=1, max_size=5))
        docs = [tokenize(t, "char") for t in texts]
    else:
        texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=8), min_size=1, max_size=5))
        docs = [tokenize(" ".join(t), "whitespace") for t in texts]
    order = draw(st.integers(min_value=1, max_value=12))
    vocabulary = None
    if draw(st.booleans()):
        used = sorted({tok for doc in docs for tok in doc})
        unused = draw(st.lists(st.sampled_from(["x", "y", "zz"]), unique=True, max_size=3))
        tokens = draw(st.permutations(used + unused)) if used + unused else []
        if tokens:
            vocabulary = Vocabulary(tuple(tokens) + (EOS_TOKEN,))
    return docs, order, vocabulary


class TestTrainingOracle:
    """The trainer equals counting position by position, in content and in
    insertion order, so saved models and everything read from them match."""

    @settings(max_examples=200, deadline=None)
    @given(case=training_case())
    def test_equals_the_position_loop(self, tmp_path_factory, case):
        docs, order, vocabulary = case
        try:
            expected = loop_counts(docs, order, vocabulary)
        except EmptyCorpus:
            with pytest.raises(EmptyCorpus):
                train_ngram(docs, order, vocabulary=vocabulary)
            return
        model = train_ngram(docs, order, vocabulary=vocabulary)
        assert items(model) == items(expected)
        out = tmp_path_factory.mktemp("oracle")
        assert saved(model, out / "model.json") == saved(expected, out / "expected.json")

    @pytest.mark.parametrize("name", ["mixed", "high_entropy", "periodic"])
    def test_shipped_corpora_at_order_5(self, name):
        # save_model writes the items in order, so equal items and vocabulary
        # are equal files; writing them here would double the test's time.
        docs = [tokenize(d, "char") for d in read_corpus(os.path.join(DATA, f"{name}.txt"))]
        model, expected = train_ngram(docs, 5), loop_counts(docs, 5)
        assert model.vocabulary == expected.vocabulary
        assert items(model) == items(expected)

    def test_all_empty_corpus_with_a_vocabulary_raises_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_ngram([[], []], 3, vocabulary=Vocabulary(("a", EOS_TOKEN)))

    @pytest.mark.parametrize("with_vocabulary", [False, True])
    def test_eos_inside_a_document_is_rejected(self, with_vocabulary):
        vocabulary = Vocabulary(("a", "b", "c", EOS_TOKEN)) if with_vocabulary else None
        with pytest.raises(ConfigError, match="corpus contains the reserved <eos> token"):
            train_ngram([["a", "b", EOS_TOKEN, "c"], ["a", "c"]], 3, vocabulary=vocabulary)


class TestSharedBuckets:
    @staticmethod
    def assert_equal_buckets_are_one_object(model: NGramModel) -> None:
        buckets = list(model.counts.values())
        assert len({id(b) for b in buckets}) == len({tuple(b.items()) for b in buckets})

    def test_equal_ordered_buckets_are_one_object(self, mixed_lab, iid_lab):
        for lab in (mixed_lab, iid_lab):
            self.assert_equal_buckets_are_one_object(lab.target)
            self.assert_equal_buckets_are_one_object(lab.drafter.backbone)
            target_counts = lab.target.counts
            for ctx, bucket in lab.drafter.backbone.counts.items():
                assert target_counts[ctx] is bucket

    def test_same_tokens_in_another_order_are_not_shared(self):
        # After a: b then c; after d: c then b. One count each, so the two
        # buckets hold the same items and differ only in their order.
        model = model_for(["abacdcdb"], order=2)
        a, b, c, d = model.vocabulary.encode("abcd")
        assert list(model.counts[(a,)].items()) == [(b, 1), (c, 1)]
        assert list(model.counts[(d,)].items()) == [(c, 1), (b, 1)]
        self.assert_equal_buckets_are_one_object(model)
        assert items(model) == items(loop_counts([list("abacdcdb")], 2))


@st.composite
def corpus_and_context(draw):
    docs = draw(
        st.lists(st.text(alphabet="abc", min_size=1, max_size=12), min_size=1, max_size=4)
    )
    order = draw(st.integers(min_value=1, max_value=4))
    smoothing = draw(st.sampled_from([0.0, 0.1, 1.0]))
    context = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=6))
    return docs, order, smoothing, context


@st.composite
def corpus_and_orders(draw):
    docs = draw(
        st.lists(st.text(alphabet="abcd", min_size=1, max_size=16), min_size=1, max_size=4)
    )
    table_order = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.integers(min_value=1, max_value=table_order))
    smoothing = draw(st.sampled_from([0.0, 0.1, 1.0]))
    contexts = draw(
        st.lists(st.lists(st.integers(min_value=0, max_value=4), max_size=6), max_size=5)
    )
    return [list(d) for d in docs], table_order, order, smoothing, contexts


class TestOrderViews:
    @settings(max_examples=150, deadline=None)
    @given(case=corpus_and_orders())
    def test_a_view_equals_training_at_its_order(self, tmp_path_factory, case):
        docs, table_order, order, smoothing, contexts = case
        table = train_ngram(docs, table_order)
        view = table.with_order(order, smoothing)
        trained = train_ngram(docs, order, smoothing)
        assert (view.order, view.smoothing) == (order, smoothing)
        assert view.vocabulary == trained.vocabulary
        for context in contexts:
            context = [c % len(trained.vocabulary) for c in context]
            assert np.array_equal(
                view.next_distribution(context), trained.next_distribution(context)
            )
        out = tmp_path_factory.mktemp("views")
        save_model(view, out / "view.json")
        save_model(trained, out / "trained.json")
        assert (out / "view.json").read_bytes() == (out / "trained.json").read_bytes()
        for outside in (0, table_order + 1):
            with pytest.raises(InvalidOrder):
                table.with_order(outside, smoothing)

    def test_views_share_the_vocabulary_and_nest(self):
        model = model_for(["abcab"], order=3)
        view = model.with_order(2, 0.5)
        assert view.vocabulary is model.vocabulary
        assert view.with_order(1, 0.0).counts == {(): model.counts[()]}
        with pytest.raises(InvalidOrder):
            view.with_order(3, 0.1)

    def test_counts_are_built_once_per_model(self):
        model = model_for(["abcab"], order=3)
        view = model.with_order(2, 0.5)
        assert model.counts is model.counts
        assert view.counts is view.counts
        assert view.counts == {ctx: b for ctx, b in model.counts.items() if len(ctx) < 2}


class TestDistributionProperties:
    @settings(max_examples=150, deadline=None)
    @given(corpus_and_context())
    def test_always_a_distribution(self, case):
        docs, order, smoothing, context = case
        model = model_for(docs, order=order, smoothing=smoothing)
        context = [c % len(model.vocabulary) for c in context]
        dist = model.next_distribution(context)
        assert dist.shape == (len(model.vocabulary),)
        assert float(dist.min()) >= 0.0
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ab", min_size=1, max_size=20))
    def test_unsmoothed_counts_are_exact_fractions(self, text):
        model = model_for([text], order=1)
        dist = model.next_distribution([])
        total = len(text) + 1
        for tok_id, tok in enumerate(model.vocabulary.tokens):
            expected = (text.count(tok) if tok != EOS_TOKEN else 1) / total
            assert float(dist[tok_id]) == pytest.approx(expected, abs=1e-15)


class TestTop:
    @settings(max_examples=150, deadline=None)
    @given(corpus_and_context())
    def test_top_is_the_argmax_and_its_probability(self, case):
        docs, order, smoothing, context = case
        model = model_for(docs, order=order, smoothing=smoothing)
        context = [c % len(model.vocabulary) for c in context]
        dist = model.next_distribution(context)
        best = argmax_token(dist)
        assert model.top(context) == (best, float(dist[best]))
        assert model.top(context) == (best, float(dist[best]))  # served from the cache

    def test_four_way_unigram_tie_goes_to_the_lowest_id(self):
        # "abc" + <eos>: four tokens with one count each.
        model = model_for(["abc"], order=1)
        assert model.top([2, 1]) == (0, 0.25)

    def test_window_is_the_last_order_minus_one_tokens(self):
        assert model_for(["abcab"], order=3).window([0, 1, 2, 0]) == (2, 0)
        assert model_for(["abcab"], order=3).window([1]) == (1,)
        assert model_for(["abcab"], order=1).window([0, 1]) == ()


@st.composite
def lookup_case(draw):
    """A corpus, a table order, a view order in it, a smoothing (1e20 makes
    every probability equal), windows over the vocabulary, <eos> included,
    and a random source that drops contexts from the table."""
    texts = draw(st.lists(st.text(alphabet="abc", max_size=12), min_size=1, max_size=4))
    table_order = draw(st.integers(min_value=1, max_value=6))
    order = draw(st.integers(min_value=1, max_value=table_order))
    smoothing = draw(st.sampled_from([0.0, 0.1, 1.0, 1e20]))
    symbols = st.sampled_from(["a", "b", "c", EOS_TOKEN])
    contexts = draw(st.lists(st.lists(symbols, max_size=7), min_size=1, max_size=6))
    rng = draw(st.randoms(use_true_random=False))
    return [list(t) for t in texts], table_order, order, smoothing, contexts, rng


class TestSuffixTrieLookups:
    """Lookups walk the trie; they equal the longest-suffix backoff over the
    position loop's dict, or over any dict holding ``()``, bit for bit, and
    never build ``counts``."""

    @settings(max_examples=200, deadline=None)
    @given(case=lookup_case())
    def test_trained_views_and_dict_models_equal_the_backoff_oracle(self, case):
        docs, table_order, order, smoothing, contexts, rng = case
        try:
            oracle = loop_counts(docs, table_order)
        except EmptyCorpus:
            return
        counts = oracle.counts
        vocab = oracle.vocabulary
        # Not suffix-closed, as a model file may be.
        sparse = {ctx: bucket for ctx, bucket in counts.items() if not ctx or rng.random() < 0.5}
        models = (
            (train_ngram(docs, table_order).with_order(order, smoothing), counts),
            (oracle.with_order(order, smoothing), counts),
            (NGramModel(vocab, order, smoothing, counts), counts),
            (NGramModel(vocab, order, smoothing, sparse), sparse),
        )
        prefixes = [doc[:end] for doc in docs for end in range(len(doc) + 1)]  # windows that hit
        for context in contexts + prefixes:
            ids = [vocab.id_of(t) for t in context if t in vocab.tokens]
            for model, table in models:
                expected = backoff_distribution(table, order, smoothing, len(vocab), ids)
                best = argmax_token(expected)
                assert np.array_equal(model.next_distribution(ids), expected)
                assert model.top(ids) == (best, float(expected[best]))

    def test_a_file_that_is_not_suffix_closed_backs_off_to_its_longest_stored_suffix(self, tmp_path):
        # "ab" is stored but its suffix "b" is not: the window "xb" backs off
        # to "", and "ab" reads its own bucket. "abx" is stored but "bx" is
        # not, so "xbx" backs off to "x"; so does "bxbx", whose longest
        # suffix "xbx" is a node only as a suffix of the stored "axbx".
        file = tmp_path / "m.json"
        file.write_text(json.dumps({
            "schema_version": 1,
            "kind": "ngram-model",
            "order": 5,
            "smoothing": 0.5,
            "vocabulary": ["a", "b", "x", EOS_TOKEN],
            "counts": {
                "": {"a": 1, "b": 2, "x": 1},
                "a\u001fb": {"x": 3},
                "x": {"a": 2},
                "a\u001fb\u001fx": {"b": 1},
                "a\u001fx\u001fb\u001fx": {"a": 1},
            },
        }))
        model = load_model(file)
        a, b, x, eos = range(4)
        unigram = [1.5 / 6, 2.5 / 6, 1.5 / 6, 0.5 / 6]
        assert model.next_distribution([x, b]).tolist() == unigram
        assert model.next_distribution([b]).tolist() == unigram
        assert model.next_distribution([eos, a, b]).tolist() == [0.5 / 5, 0.5 / 5, 3.5 / 5, 0.5 / 5]
        assert model.next_distribution([x, b, x]).tolist() == [2.5 / 4, 0.5 / 4, 0.5 / 4, 0.5 / 4]
        assert model.next_distribution([b, x, b, x]).tolist() == [2.5 / 4, 0.5 / 4, 0.5 / 4, 0.5 / 4]
        assert model.next_distribution([a, x, b, x]).tolist() == [1.5 / 3, 0.5 / 3, 0.5 / 3, 0.5 / 3]
        assert model.top([x, b]) == (b, 2.5 / 6)
        assert model.top([a, b]) == (x, 3.5 / 5)
        assert model.top([a, b, x]) == (b, 1.5 / 3)
        assert list(model.counts) == [(), (a, b), (x,), (a, b, x), (a, x, b, x)]

    def test_the_largest_count_a_table_holds_keeps_its_value(self):
        # 300 counts of one token: more than the narrowest array type holds.
        model = model_for(["a" * 299], order=1)
        assert model.counts[()] == {0: 299, 1: 1}
        assert model.top([]) == (0, 299 / 300)

    def test_lookups_on_iid_lab_do_not_build_counts(self, iid_lab, monkeypatch):
        def unread(trie):
            raise AssertionError("a lookup read the counts dict")

        monkeypatch.setattr(_SuffixTrie, "counts", property(unread))
        target = iid_lab.target.with_order(iid_lab.target.order, 0.1)  # empty caches
        drafter = DiffusionDrafter(iid_lab.drafter.backbone.with_order(4, 0.1))
        for seed, prompt in enumerate(iid_lab.prompts(5)):
            for verifier in ("greedy", "stochastic"):
                run_episode(target, drafter, FailFast(), CostModel(), prompt, 48, verifier, seed)
        assert target._cache and drafter.backbone._cache

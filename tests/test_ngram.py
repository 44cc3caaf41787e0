"""N-gram model unit tests with hand-enumerated probability oracles."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    argmax_token,
    build_vocab,
    load_model,
    save_model,
    train_ngram,
)
from speclab.tokenizers import detokenize, tokenize


def model_for(texts: list[str], order: int, smoothing: float = 0.0) -> NGramModel:
    return train_ngram([list(t) for t in texts], order=order, smoothing=smoothing)


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
        with pytest.raises(ConfigError):
            model_for(["ab"], order=1, smoothing=-0.5)


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

"""Verification-rule tests: greedy prefix matching and stochastic acceptance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.drafter import DraftProposal
from speclab.errors import ConfigError, ZeroDraftProbability
from speclab.ngram import train_ngram
from speclab.verifier import (
    BONUS,
    CORRECTION,
    accept_probability,
    residual_distribution,
    vanilla_decode,
    verify_greedy,
    verify_stochastic,
)


@pytest.fixture(scope="module")
def abc():
    # "abcabcabcabcabc": P(b|a) = P(c|b) = 1, P(a|c) = 4/5, so the greedy
    # chain after "a" is the repeating b c a b c a ...
    return train_ngram([list("abc" * 5)], order=2, smoothing=0.0)


def proposal_for(model, tokens):
    """Wrap raw tokens with uniform draft distributions (greedy ignores them)."""
    size = len(model.vocabulary)
    dists = [np.full(size, 1.0 / size) for _ in tokens]
    return DraftProposal(list(tokens), [1.0] * len(tokens), dists, forward_passes=1)


class TestGreedyVerification:
    def test_full_accept_earns_a_bonus(self, abc):
        prefix = abc.vocabulary.encode("a")
        result = verify_greedy(abc, prefix, proposal_for(abc, abc.vocabulary.encode("bca")))
        assert result.accepted_len == 3
        assert result.all_accepted
        assert result.replacement == abc.vocabulary.id_of("b")
        assert result.replacement_kind == BONUS

    def test_first_mismatch_truncates_and_corrects(self, abc):
        prefix = abc.vocabulary.encode("a")
        result = verify_greedy(abc, prefix, proposal_for(abc, abc.vocabulary.encode("bcc")))
        assert result.accepted_len == 2
        assert not result.all_accepted
        assert result.replacement == abc.vocabulary.id_of("a")
        assert result.replacement_kind == CORRECTION

    def test_immediate_mismatch_accepts_nothing(self, abc):
        prefix = abc.vocabulary.encode("a")
        result = verify_greedy(abc, prefix, proposal_for(abc, abc.vocabulary.encode("c")))
        assert result.accepted_len == 0
        assert result.replacement == abc.vocabulary.id_of("b")

    def test_rejection_ignores_everything_after_it(self, abc):
        # Positions after the first mismatch must not rescue the draft even if
        # they happen to match the target's chain from some other context.
        prefix = abc.vocabulary.encode("a")
        good = verify_greedy(abc, prefix, proposal_for(abc, abc.vocabulary.encode("cab")))
        assert good.accepted_len == 0


class TestAcceptanceRule:
    def test_ratio_clips_at_one(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.5, 0.5])
        assert accept_probability(p, q, 0) == 1.0
        assert accept_probability(p, q, 1) == pytest.approx(0.8, abs=1e-15)

    def test_zero_draft_probability_is_an_error(self):
        p = np.array([0.6, 0.4])
        q = np.array([1.0, 0.0])
        with pytest.raises(ZeroDraftProbability):
            accept_probability(p, q, 1)

    def test_residual_concentrates_where_target_exceeds_draft(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.5, 0.5])
        np.testing.assert_allclose(residual_distribution(p, q), [1.0, 0.0], atol=1e-15)

    def test_residual_of_identical_distributions_is_the_target(self):
        p = np.array([0.3, 0.7])
        out = residual_distribution(p, p)
        np.testing.assert_allclose(out, p)
        out[0] = 99.0  # must be a copy, not a view of the caller's array
        assert p[0] == 0.3

    def test_rejection_plus_residual_reproduces_the_target(self):
        # One drafted position: P(emit x) must equal p(x) exactly when the
        # token is sampled from q. Checked analytically over every token.
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        residual = residual_distribution(p, q)
        reject_mass = sum(q[t] * (1.0 - accept_probability(p, q, t)) for t in range(3))
        for x in range(3):
            induced = q[x] * accept_probability(p, q, x) + reject_mass * residual[x]
            assert induced == pytest.approx(p[x], abs=1e-12)


class TestStochasticVerification:
    def test_same_seed_same_outcome(self, abc):
        prefix = abc.vocabulary.encode("ab")
        proposal = proposal_for(abc, abc.vocabulary.encode("cab"))
        first = verify_stochastic(abc, prefix, proposal, np.random.default_rng(42))
        second = verify_stochastic(abc, prefix, proposal, np.random.default_rng(42))
        assert first == second

    def test_sure_tokens_are_always_accepted(self, abc):
        # Draft distribution q puts mass 1 where p also has its mass peak at
        # >= q, so min(1, p/q) = p; with p(c|b) = 1 the accept is certain.
        prefix = abc.vocabulary.encode("ab")
        tok = abc.vocabulary.id_of("c")
        q = np.zeros(len(abc.vocabulary))
        q[tok] = 1.0
        proposal = DraftProposal([tok], [1.0], [q], forward_passes=1)
        rng = np.random.default_rng(7)
        for _ in range(200):
            result = verify_stochastic(abc, prefix, proposal, rng)
            assert result.accepted_len == 1
            assert result.all_accepted

    def test_single_token_marginal_matches_target(self, abc):
        # Monte Carlo sanity at unit-test scale: committed-token frequencies
        # after one drafted position should track the target's conditional.
        prefix = abc.vocabulary.encode("c")  # p = (0.8, 0, 0, 0.2) over a b c <eos>
        size = len(abc.vocabulary)
        q = np.full(size, 1.0 / size)
        rng = np.random.default_rng(3)
        counts = np.zeros(size)
        trials = 20_000
        for _ in range(trials):
            tok = int(rng.integers(size))
            proposal = DraftProposal([tok], [1.0], [q], forward_passes=1)
            result = verify_stochastic(abc, prefix, proposal, rng)
            committed = tok if result.accepted_len == 1 else result.replacement
            counts[committed] += 1
        p = abc.next_distribution(prefix)
        tv = 0.5 * np.abs(counts / trials - p).sum()
        assert tv < 0.02


class TestVanillaDecode:
    def test_follows_the_argmax_chain(self, abc):
        out = vanilla_decode(abc, abc.vocabulary.encode("a"), 7)
        assert out == abc.vocabulary.encode("bcabcab")

    def test_stops_before_eos(self):
        model = train_ngram([list("ab")], order=2, smoothing=0.0)
        out = vanilla_decode(model, model.vocabulary.encode("a"), 10)
        assert out == model.vocabulary.encode("b")

    def test_rejects_nonpositive_budget(self, abc):
        with pytest.raises(ConfigError):
            vanilla_decode(abc, [0], 0)


@st.composite
def simplex_pair(draw):
    size = draw(st.integers(min_value=2, max_value=6))
    def vec():
        raw = [draw(st.floats(min_value=1e-3, max_value=1.0)) for _ in range(size)]
        total = sum(raw)
        return np.array([v / total for v in raw])
    return vec(), vec()


class TestDistributionProperties:
    @settings(max_examples=60, deadline=None)
    @given(pq=simplex_pair())
    def test_residual_is_a_distribution(self, pq):
        p, q = pq
        residual = residual_distribution(p, q)
        assert residual.min() >= 0.0
        assert residual.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(pq=simplex_pair(), token_seed=st.integers(min_value=0, max_value=5))
    def test_accept_probability_is_a_probability(self, pq, token_seed):
        p, q = pq
        token = token_seed % len(p)
        acc = accept_probability(p, q, token)
        assert 0.0 <= acc <= 1.0

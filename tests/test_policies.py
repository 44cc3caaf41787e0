"""Draft-length policy tests.

Oracle corpora are chosen so the confidence profile along the drafted chain
is known in closed form:

* ``"a" * 100`` — P(a|a) = 0.99, so every drafted token clears any sane
  threshold and only the length cap can stop expansion.
* ``["ab"*20, "ac"*20]`` — P(.|a) splits 0.5/0.5 between b and c, so the very
  first drafted token sits at confidence 0.5 and a threshold of 0.6 stops the
  policy inside its first chunk.
* ``["abz", "acz", "adz"]`` — after ``a b`` the chain reaches z and then the
  end-of-sequence marker, exercising the cut-after-eos rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.drafter import ONE_STEP, DiffusionDrafter, modal_chain, one_step_block
from speclab.errors import ConfigError
from speclab.ngram import train_ngram
from speclab.policies import FailFast, FixedAR, FixedDLLM


def make_drafter(docs):
    return DiffusionDrafter(train_ngram(docs, order=2, smoothing=0.0))


@pytest.fixture(scope="module")
def confident():
    return make_drafter([list("a" * 100)])


class TestFailFastConfig:
    def test_defaults(self):
        policy = FailFast()
        assert (policy.step_size, policy.confidence_threshold, policy.max_length) == (10, 0.45, 60)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_size": 0},
            {"step_size": 61},
            {"confidence_threshold": 0.0},
            {"confidence_threshold": 1.0},
            {"confidence_threshold": -0.2},
            {"step_size": 2.5},
            {"confidence_threshold": "0.5"},
            {"max_length": 60.0},
            {"confidence_threshold": float("nan")},
            {"confidence_threshold": float("inf")},
            {"confidence_threshold": float("-inf")},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            FailFast(**kwargs)


class TestFailFastExpansion:
    def test_fully_confident_runs_to_the_cap(self, confident):
        prefix = [confident.backbone.vocabulary.id_of("a")]
        proposal = FailFast().propose(confident, prefix)
        assert len(proposal.tokens) == 60
        # Six chunks of 10 need blocks up to position 64: eight passes total.
        assert proposal.forward_passes == 8
        assert min(proposal.confidences) >= 0.99

    def test_subthreshold_first_chunk_stops_at_one_step(self):
        drafter = make_drafter([list("ab" * 20), list("ac" * 20)])
        prefix = [drafter.backbone.vocabulary.id_of("a")]
        policy = FailFast(confidence_threshold=0.6)
        proposal = policy.propose(drafter, prefix)
        assert len(proposal.tokens) == policy.step_size
        assert min(proposal.confidences) < 0.6

    def test_cap_truncates_the_final_chunk(self, confident):
        prefix = [confident.backbone.vocabulary.id_of("a")]
        policy = FailFast(step_size=10, max_length=25)
        proposal = policy.propose(confident, prefix)
        assert len(proposal.tokens) == 25
        # The third chunk was drafted before truncation, so its passes stay
        # on the bill: blocks through position 32 cost four passes.
        assert proposal.forward_passes == 4

    def test_eos_cuts_the_draft_just_after_the_marker(self):
        drafter = make_drafter([list("abz"), list("acz"), list("adz")])
        vocab = drafter.backbone.vocabulary
        proposal = FailFast().propose(drafter, [vocab.id_of("a")])
        assert proposal.tokens[-1] == vocab.eos_id
        assert len(proposal.tokens) == 3
        assert vocab.eos_id not in proposal.tokens[:-1]


class TestPolicyObjects:
    def test_labels(self):
        assert FixedAR(8).label() == "fixed_ar(8)"
        assert FixedDLLM(16).label() == "fixed_dllm(16,confidence_aware)"
        assert FixedDLLM(5, mode=ONE_STEP).label() == "fixed_dllm(5,one_step)"
        assert FailFast().label() == "failfast(step=10,threshold=0.45,cap=60)"

    def test_draft_length_validated(self):
        with pytest.raises(ConfigError):
            FixedAR(0)
        with pytest.raises(ConfigError):
            FixedDLLM(-3)
        for draft_len in ("3", 2.5, True):
            with pytest.raises(ConfigError):
                FixedAR(draft_len)
            with pytest.raises(ConfigError):
                FixedDLLM(draft_len)

    def test_fixed_ar_charges_one_pass_per_token(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=21)[0]
        proposal = FixedAR(12).propose(mixed_lab.drafter, prompt)
        assert proposal.forward_passes == 12
        assert len(proposal.tokens) == 12

    def test_fixed_ar_and_one_step_agree_on_tokens(self, mixed_lab):
        # Both walk the backbone's modal chain; only the pass bill differs.
        prompt = mixed_lab.prompts(1, seed=22)[0]
        ar = FixedAR(12).propose(mixed_lab.drafter, prompt)
        block = mixed_lab.drafter.draft_tokens(prompt, 12, ONE_STEP)
        assert ar.tokens == block.tokens
        assert ar.forward_passes == 12
        assert block.forward_passes == 2

    def test_fixed_dllm_propose(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=23)[0]
        proposal = FixedDLLM(16, mode=ONE_STEP).propose(mixed_lab.drafter, prompt)
        assert len(proposal.tokens) == 16
        assert proposal.forward_passes == 2


def random_drafter_and_prefix(seed):
    rng = np.random.default_rng(seed)
    letters = "abcd"
    text = "".join(rng.choice(list(letters), size=240))
    drafter = DiffusionDrafter(train_ngram([list(text)], order=3, smoothing=0.1))
    start = int(rng.integers(0, 200))
    prefix = drafter.backbone.vocabulary.encode(text[start : start + 6])
    return drafter, prefix


class TestWorstRound:
    """``worst_round(block_size)`` bounds the draft length and passes of every
    proposal, so ``config.materialize`` can reject overflowing costs upfront."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(["fixed_ar", ONE_STEP, "confidence_aware", "failfast"]),
        size=st.integers(min_value=1, max_value=9),
        unmask=st.floats(min_value=0.05, max_value=1.0),
        n=st.integers(min_value=1, max_value=24),
        step=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=0, max_value=30),
        threshold=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_every_proposal_is_within_the_bound(
        self, seed, family, size, unmask, n, step, extra, threshold
    ):
        drafter, prefix = random_drafter_and_prefix(seed)
        drafter = DiffusionDrafter(drafter.backbone, block_size=size, unmask_threshold=unmask)
        policy = {
            "fixed_ar": FixedAR(n),
            ONE_STEP: FixedDLLM(n, ONE_STEP),
            "confidence_aware": FixedDLLM(n),
            "failfast": FailFast(step, threshold, step + extra),
        }[family]
        proposal = policy.propose(drafter, prefix)
        longest, passes = policy.worst_round(size)
        assert len(proposal.tokens) <= longest
        assert proposal.forward_passes <= passes

    def test_the_bound_is_reached(self, confident):
        prefix = confident.backbone.vocabulary.encode("a")
        # Chunks of 4 up to 12 cover a cap of 10: three one-step blocks of 5.
        policy = FailFast(step_size=4, confidence_threshold=0.5, max_length=10)
        drafter = DiffusionDrafter(confident.backbone, block_size=5)
        proposal = policy.propose(drafter, prefix)
        assert (len(proposal.tokens), proposal.forward_passes) == policy.worst_round(5) == (10, 3)
        assert FixedDLLM(7, ONE_STEP).worst_round(5) == (7, 2)
        assert FixedDLLM(7).worst_round(5) == (7, 10)
        assert FixedAR(7).worst_round(5) == (7, 7)


class TestFailFastProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        step=st.integers(min_value=2, max_value=12),
        threshold=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_length_is_chunk_aligned_capped_or_eos_cut(self, seed, step, threshold):
        drafter, prefix = random_drafter_and_prefix(seed)
        policy = FailFast(step_size=step, confidence_threshold=threshold, max_length=36)
        proposal = policy.propose(drafter, prefix)
        n = len(proposal.tokens)
        eos = drafter.backbone.vocabulary.eos_id
        assert 1 <= n <= policy.max_length
        assert n % step == 0 or n == policy.max_length or proposal.tokens[-1] == eos

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        low=st.floats(min_value=0.05, max_value=0.9),
        bump=st.floats(min_value=0.01, max_value=0.09),
    )
    def test_raising_the_threshold_never_lengthens_the_draft(self, seed, low, bump):
        drafter, prefix = random_drafter_and_prefix(seed)
        lenient = FailFast(confidence_threshold=low).propose(drafter, prefix)
        strict = FailFast(confidence_threshold=min(low + bump, 0.99)).propose(drafter, prefix)
        assert len(strict.tokens) <= len(lenient.tokens)


def reference_failfast(drafter, prefix, policy):
    """The chunk loop over an uncached stream of one-step blocks, decoded on
    a cold view of the drafter's backbone."""
    backbone = drafter.backbone.with_order(drafter.backbone.order, drafter.backbone.smoothing)

    def stream():
        context = list(prefix)
        while True:
            block = one_step_block(backbone, context, drafter.block_size)
            context += block.tokens
            yield block

    blocks = stream()
    eos = backbone.vocabulary.eos_id
    tokens, confidences, distributions = [], [], []
    passes = 0
    length = 0
    while True:
        chunk_start = length
        length += policy.step_size
        while len(tokens) < length:
            block = next(blocks)
            passes += 1
            tokens += block.tokens
            confidences += block.confidences
            distributions += block.distributions
        chunk = tokens[chunk_start:length]
        if eos in chunk:
            length = chunk_start + chunk.index(eos) + 1
            break
        if min(confidences[chunk_start:length]) < policy.confidence_threshold:
            break
        if length >= policy.max_length:
            break
    length = min(length, policy.max_length)
    return tokens[:length], confidences[:length], distributions[:length], passes


@pytest.fixture(scope="module")
def warm_failfast(mixed_lab):
    """Drafters whose block caches fill up across examples, with their prompts:
    the mixed corpus, and the ``<eos>`` corpus from the module docstring."""
    eos = train_ngram([list("abz"), list("acz"), list("adz")], order=2, smoothing=0.0)
    eos_prompts = [eos.vocabulary.encode(text) for text in ("a", "ab", "ac", "d", "z", "")]
    return {
        (corpus, size): (DiffusionDrafter(backbone, block_size=size), prompts)
        for corpus, backbone, prompts in (
            ("mixed", mixed_lab.drafter.backbone, mixed_lab.prompts(30, seed=24)),
            ("eos", eos, eos_prompts),
        )
        for size in (4, 8)
    }


class TestFailFastReadsTheBlockCache:
    @settings(max_examples=120, deadline=None)
    @given(
        corpus=st.sampled_from(["mixed", "eos"]),
        size=st.sampled_from([4, 8]),
        pick=st.integers(min_value=0, max_value=29),
        step=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=0, max_value=30),
        threshold=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_equals_the_uncached_block_stream(
        self, warm_failfast, corpus, size, pick, step, extra, threshold
    ):
        drafter, prompts = warm_failfast[corpus, size]
        prefix = prompts[pick % len(prompts)]
        policy = FailFast(step_size=step, confidence_threshold=threshold, max_length=step + extra)
        tokens, confidences, distributions, passes = reference_failfast(drafter, prefix, policy)
        for _ in range(2):
            got = policy.propose(drafter, prefix)
            assert got.tokens == tokens
            assert got.confidences == confidences
            assert got.forward_passes == passes
            assert len(got.distributions) == len(distributions)
            assert all(np.array_equal(g, w) for g, w in zip(got.distributions, distributions))


class TestFixedARIsTheModalChain:
    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.sampled_from(["mixed", "eos"]),
        size=st.sampled_from([4, 8]),
        pick=st.integers(min_value=0, max_value=29),
        n=st.integers(min_value=1, max_value=20),
    )
    def test_equals_the_modal_chain_on_warm_drafters(self, warm_failfast, corpus, size, pick, n):
        """One-step blocks put end to end, read from a warm block cache, are
        the backbone's modal chain, billed one pass per token."""
        drafter, prompts = warm_failfast[corpus, size]
        prefix = prompts[pick % len(prompts)]
        tokens, confidences, distributions = modal_chain(drafter.backbone, prefix, n)
        for _ in range(2):
            got = FixedAR(n).propose(drafter, prefix)
            assert got.tokens == tokens
            assert got.confidences == confidences
            assert got.forward_passes == n
            assert len(got.distributions) == n
            assert all(np.array_equal(g, w) for g, w in zip(got.distributions, distributions))


class TestProposalIsAFunctionOfTheWindow:
    """``engine.run_episode`` memoizes greedy rounds by window, which holds only
    if every policy's proposal reads nothing of the prefix before the
    drafter's backbone window. Each side gets a cold drafter, so no cache
    can hand the second prefix the first one's answer."""

    @settings(max_examples=80, deadline=None)
    @given(
        corpus=st.sampled_from(["mixed", "eos"]),
        family=st.sampled_from(["fixed_ar", ONE_STEP, "confidence_aware", "failfast"]),
        size=st.sampled_from([4, 8]),
        data=st.data(),
        n=st.integers(min_value=1, max_value=24),
        step=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=0, max_value=30),
        threshold=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_prefixes_sharing_the_window_get_equal_proposals(
        self, warm_failfast, corpus, family, size, data, n, step, extra, threshold
    ):
        backbone = warm_failfast[corpus, size][0].backbone
        ids = st.integers(min_value=0, max_value=len(backbone.vocabulary) - 1)
        window = data.draw(st.lists(ids, min_size=backbone.order - 1, max_size=backbone.order - 1))
        heads = [data.draw(st.lists(ids, max_size=6)) for _ in range(2)]
        policy = {
            "fixed_ar": FixedAR(n),
            ONE_STEP: FixedDLLM(n, ONE_STEP),
            "confidence_aware": FixedDLLM(n),
            "failfast": FailFast(step, threshold, step + extra),
        }[family]
        first, second = (
            policy.propose(
                DiffusionDrafter(backbone.with_order(backbone.order, backbone.smoothing), block_size=size),
                head + window,
            )
            for head in heads
        )
        assert first.tokens == second.tokens
        assert first.confidences == second.confidences
        assert first.forward_passes == second.forward_passes
        assert all(np.array_equal(a, b) for a, b in zip(first.distributions, second.distributions, strict=True))

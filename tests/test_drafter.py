"""Block-diffusion drafter emulation tests.

The hand oracles all come from the seven-character corpus "abababa" under a
bigram model with no smoothing: every b is followed by a (P(a|b) = 1), an a
continues with b three times out of four (the document ends after the last
a), and the unigram argmax is a with probability 4/8 = 0.5 exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.drafter import (
    Block,
    BlockState,
    CONFIDENCE_AWARE,
    DiffusionDrafter,
    DraftProposal,
    ONE_STEP,
    denoise_step,
    fixed_step_block,
    modal_chain,
    one_step_block,
)
from speclab.errors import ConfigError
from speclab.ngram import argmax_token, train_ngram

import numpy as np


@pytest.fixture(scope="module")
def bigram():
    return train_ngram([list("abababa")], order=2, smoothing=0.0)


def ids(model, text):
    return model.vocabulary.encode(text)


class TestSlotContext:
    def test_gap_truncates_prefix(self, bigram):
        state = BlockState(prefix=ids(bigram, "ab"), block_size=4)
        state.tokens[1] = 0
        # Slot 0's left neighborhood reaches the prefix; slot 2 sits behind a
        # masked slot 0, so only the contiguous run [slot 1] is visible; slot 3
        # is directly behind a mask and sees nothing at all.
        assert state.slot_context(0) == ids(bigram, "ab")
        assert state.slot_context(2) == [0]
        assert state.slot_context(3) == []

    def test_full_run_reaches_prefix(self, bigram):
        state = BlockState(prefix=ids(bigram, "b"), block_size=3)
        state.tokens[0] = 0
        state.tokens[1] = 1
        assert state.slot_context(2) == ids(bigram, "b") + [0, 1]


class TestDenoiseStep:
    def test_first_pass_unmasks_only_the_anchored_slot(self, bigram):
        # After prefix "b": slot 0 predicts a with confidence 1.0; slots 1-3
        # are behind masks, fall back to the unigram, and sit at 0.5 < 0.9.
        state = BlockState(prefix=ids(bigram, "b"), block_size=4)
        unmasked = denoise_step(bigram, state, 0.9)
        assert unmasked == [0]
        assert state.tokens == [bigram.vocabulary.id_of("a"), None, None, None]
        assert state.confidences[0] == 1.0
        assert state.masked_slots() == [1, 2, 3]

    def test_forced_progress_picks_single_best(self, bigram):
        # After prefix "a": slot 0 reads P(b|a) = 0.75, the rest 0.5; nothing
        # clears 0.9, so exactly the best slot is unmasked anyway.
        state = BlockState(prefix=ids(bigram, "a"), block_size=4)
        unmasked = denoise_step(bigram, state, 0.9)
        assert unmasked == [0]
        assert state.tokens[0] == bigram.vocabulary.id_of("b")
        assert state.confidences[0] == 0.75

    def test_forced_progress_tie_goes_leftmost(self, bigram):
        # Empty prefix: every slot sees the unigram, an exact four-way tie.
        state = BlockState(prefix=[], block_size=4)
        unmasked = denoise_step(bigram, state, 0.9)
        assert unmasked == [0]
        assert state.tokens[0] == bigram.vocabulary.id_of("a")
        assert state.confidences[0] == 0.5

    def test_unmasked_slots_never_change(self, bigram):
        state = BlockState(prefix=ids(bigram, "b"), block_size=4)
        denoise_step(bigram, state, 0.9)
        frozen = list(state.tokens)
        denoise_step(bigram, state, 0.9)
        assert state.tokens[:1] == frozen[:1]

    def test_exhausted_block_raises(self, bigram):
        state = BlockState(prefix=ids(bigram, "b"), block_size=2)
        while not state.all_unmasked:
            denoise_step(bigram, state, 0.9)
        with pytest.raises(ConfigError, match="block is already fully unmasked"):
            denoise_step(bigram, state, 0.9)


class TestModalChain:
    def test_argmax_chain_oracle(self, bigram):
        tokens, confs, dists = modal_chain(bigram, ids(bigram, "b"), 4)
        assert tokens == ids(bigram, "abab")
        assert confs == [1.0, 0.75, 1.0, 0.75]
        assert [float(d[t]) for d, t in zip(dists, tokens)] == confs

    def test_zero_length_chain_is_empty(self, bigram):
        assert modal_chain(bigram, ids(bigram, "b"), 0) == ([], [], [])


class TestOneStepBlock:
    def test_modal_chain_tokens_and_confidences(self, bigram):
        block = one_step_block(bigram, ids(bigram, "b"), 4)
        assert isinstance(block, Block)
        assert block.tokens == tuple(ids(bigram, "abab"))
        assert block.confidences == (1.0, 0.75, 1.0, 0.75)
        assert [float(d[t]) for d, t in zip(block.distributions, block.tokens)] == [
            1.0, 0.75, 1.0, 0.75,
        ]
        assert block.runs == (4,)

    def test_block_stream_continues_the_chain(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=15)[0]
        drafted = mixed_lab.drafter.draft_tokens(prompt, 24, ONE_STEP)
        assert drafted.tokens == modal_chain(mixed_lab.drafter.backbone, prompt, 24)[0]
        assert drafted.forward_passes == 3

    def test_single_pass_charged(self, bigram):
        drafter = DiffusionDrafter(bigram, block_size=4)
        proposal = drafter.draft_tokens(ids(bigram, "b"), 4, ONE_STEP)
        assert proposal.forward_passes == 1
        assert proposal.tokens == ids(bigram, "abab")


class TestPassAccounting:
    @pytest.mark.parametrize(
        "n,expected_passes", [(1, 1), (8, 1), (9, 2), (10, 2), (16, 2), (17, 3)]
    )
    def test_one_step_charges_one_pass_per_block(self, mixed_lab, n, expected_passes):
        prompt = mixed_lab.prompts(1, seed=11)[0]
        proposal = mixed_lab.drafter.draft_tokens(prompt, n, ONE_STEP)
        assert proposal.forward_passes == expected_passes
        assert len(proposal.tokens) == n

    def test_confidence_aware_matches_one_step_when_everything_is_confident(self):
        # A single-letter corpus keeps every slot's confidence at >= 0.99 even
        # behind masks, so confidence-aware unmasks whole blocks in one pass.
        model = train_ngram([list("a" * 100)], order=2, smoothing=0.0)
        drafter = DiffusionDrafter(model)
        prefix = [model.vocabulary.id_of("a")]
        for n in (5, 10, 17):
            ca = drafter.draft_tokens(prefix, n, CONFIDENCE_AWARE)
            os_ = drafter.draft_tokens(prefix, n, ONE_STEP)
            assert ca.forward_passes == os_.forward_passes == -(-n // 8)
            assert ca.tokens == os_.tokens

    def test_confidence_aware_pass_bounds_on_real_text(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=12)[0]
        for n in (8, 12, 20):
            proposal = mixed_lab.drafter.draft_tokens(prompt, n, CONFIDENCE_AWARE)
            blocks = -(-n // 8)
            assert blocks <= proposal.forward_passes <= 8 * blocks
            assert len(proposal.tokens) == n

    def test_unknown_mode_rejected(self, mixed_lab):
        with pytest.raises(ConfigError):
            mixed_lab.drafter.draft_tokens([0], 4, "beam")


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"block_size": 2.5},
            {"block_size": "8"},
            {"block_size": True},
            {"unmask_threshold": 0.0},
            {"unmask_threshold": 1.5},
            {"unmask_threshold": "0.9"},
            {"unmask_threshold": None},
            {"unmask_threshold": float("nan")},
            {"unmask_threshold": float("inf")},
            {"unmask_threshold": float("-inf")},
        ],
    )
    def test_invalid_settings_rejected(self, bigram, kwargs):
        with pytest.raises(ConfigError):
            DiffusionDrafter(bigram, **kwargs)


def reference_fixed_step(backbone, prefix, block_size, steps):
    """Fixed-step denoising written against a ``BlockState``, slot by slot:
    each pass unmasks its quota of leftmost slots from the bridged context."""
    state = BlockState(prefix=list(prefix), block_size=block_size)
    bridge = list(prefix) + modal_chain(backbone, prefix, block_size)[0]
    usable = backbone.order - 1
    base, rem = divmod(block_size, steps)
    slot = 0
    for step in range(steps):
        quota = base + (1 if step < rem else 0)
        for r in range(quota):
            keep = max(0, usable - r)
            visible = bridge[: len(prefix) + slot]
            dist = backbone.next_distribution(visible[len(visible) - keep :] if keep else [])
            tok = argmax_token(dist)
            state.tokens[slot] = tok
            state.confidences[slot] = float(dist[tok])
            state.distributions[slot] = dist
            slot += 1
    return state


class TestFixedStepBlock:
    def test_full_step_budget_equals_the_modal_chain(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=13)[0]
        backbone = mixed_lab.drafter.backbone
        sequential = fixed_step_block(backbone, prompt, 8, 8)
        assert sequential.tokens == one_step_block(backbone, prompt, 8).tokens

    def test_every_budget_fills_the_block(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=14)[0]
        backbone = mixed_lab.drafter.backbone
        for steps in range(1, 9):
            block = fixed_step_block(backbone, prompt, 8, steps)
            assert isinstance(block, Block)
            assert len(block.tokens) == 8
            assert len(block.runs) == steps
            assert block.runs[-1] == 8

    def test_runs_are_the_cumulative_quotas(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=14)[0]
        backbone = mixed_lab.drafter.backbone
        assert fixed_step_block(backbone, prompt, 8, 3).runs == (3, 6, 8)
        assert fixed_step_block(backbone, prompt, 8, 1).runs == (8,)
        assert fixed_step_block(backbone, prompt, 8, 8).runs == tuple(range(1, 9))

    def test_equals_the_slot_by_slot_state(self, mixed_lab):
        backbone = mixed_lab.drafter.backbone
        for prompt in mixed_lab.prompts(4, seed=19):
            for steps in range(1, 9):
                block = fixed_step_block(backbone, prompt, 8, steps)
                want = reference_fixed_step(backbone, prompt, 8, steps)
                assert list(block.tokens) == want.tokens
                assert list(block.confidences) == want.confidences
                assert all(
                    np.array_equal(g, w) for g, w in zip(block.distributions, want.distributions)
                )

    def test_step_budget_validated(self, bigram):
        with pytest.raises(ConfigError):
            fixed_step_block(bigram, [0], 8, 0)
        with pytest.raises(ConfigError):
            fixed_step_block(bigram, [0], 8, 9)


class TestDraftProposal:
    def test_field_lengths_validated(self):
        with pytest.raises(ConfigError):
            DraftProposal([1, 2], [0.5], [np.array([1.0])], forward_passes=1)

    def test_head_without_a_cut_is_the_same_object(self):
        proposal = DraftProposal([1, 2], [0.5, 0.25], [np.array([1.0])] * 2, forward_passes=3)
        assert proposal.head(2) is proposal
        assert proposal.head(5) is proposal

    def test_head_keeps_the_fields_aligned_and_every_pass(self):
        dists = [np.array([float(i)]) for i in range(4)]
        proposal = DraftProposal([7, 8, 9, 10], [0.9, 0.8, 0.7, 0.6], dists, forward_passes=5)
        cut = proposal.head(2)
        assert (cut.tokens, cut.confidences, cut.forward_passes) == ([7, 8], [0.9, 0.8], 5)
        assert cut.distributions == dists[:2]
        assert proposal.tokens == [7, 8, 9, 10]  # the original is untouched


class TestContextTruncationProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        mask=st.lists(st.booleans(), min_size=1, max_size=8),
        prefix_len=st.integers(min_value=0, max_value=3),
    )
    def test_slot_context_is_run_plus_optional_prefix(self, bigram, mask, prefix_len):
        """Re-derive slot_context from scratch for arbitrary mask patterns."""
        prefix = ids(bigram, "ab" * 2)[:prefix_len]
        state = BlockState(prefix=prefix, block_size=len(mask))
        for j, unmasked in enumerate(mask):
            if unmasked:
                state.tokens[j] = j % 2
        for slot in range(len(mask)):
            run: list[int] = []
            i = slot - 1
            while i >= 0 and mask[i]:
                run.insert(0, i % 2)
                i -= 1
            expected = (prefix + run) if i < 0 else run
            assert state.slot_context(slot) == expected


def reference_draft(drafter, prefix, n, mode):
    """The draft loop without the block cache, on a cold copy of the backbone:
    each block is decoded only as far as the draft still needs."""
    backbone = drafter.backbone.with_order(drafter.backbone.order, drafter.backbone.smoothing)
    tokens, confidences, distributions, passes = [], [], [], 0
    while len(tokens) < n:
        if mode == ONE_STEP:
            block = one_step_block(backbone, prefix + tokens, drafter.block_size)
            passes += 1
            run = drafter.block_size
        else:
            block = BlockState(prefix + tokens, drafter.block_size)
            while block.leftmost_run() < min(n - len(tokens), drafter.block_size):
                denoise_step(backbone, block, drafter.unmask_threshold)
                passes += 1
            run = block.leftmost_run()
        tokens += block.tokens[:run]
        confidences += block.confidences[:run]
        distributions += block.distributions[:run]
    return DraftProposal(tokens[:n], confidences[:n], distributions[:n], passes)


@pytest.fixture(scope="module")
def warm(mixed_lab):
    """One drafter whose block cache fills up across examples, plus prompts."""
    return DiffusionDrafter(mixed_lab.drafter.backbone), mixed_lab.prompts(40, seed=17)


def assert_same_proposal(got, want):
    assert got.tokens == want.tokens
    assert got.confidences == want.confidences
    assert got.forward_passes == want.forward_passes
    assert all(np.array_equal(g, w) for g, w in zip(got.distributions, want.distributions))


class TestBlockCache:
    def test_runs_record_the_run_after_each_pass(self, bigram):
        # After "b" (threshold 0.9): slot 0 reads a at 1.0, then each pass can
        # unmask only the slot right of the run (the rest sit at the unigram 0.5
        # or P(b|a) = 0.75), so the run grows by one per pass.
        drafter = DiffusionDrafter(bigram, block_size=4)
        block = drafter.block(ids(bigram, "b"), CONFIDENCE_AWARE)
        assert block.tokens == tuple(ids(bigram, "abab"))
        assert block.confidences == (1.0, 0.75, 1.0, 0.75)
        assert block.runs == (1, 2, 3, 4)
        passes = [drafter.draft_tokens(ids(bigram, "b"), n).forward_passes for n in (1, 2, 3, 4)]
        assert passes == [1, 2, 3, 4]
        assert drafter.block(ids(bigram, "b"), ONE_STEP).runs == (4,)

    @settings(max_examples=120, deadline=None)
    @given(
        pick=st.integers(min_value=0, max_value=39),
        donor=st.integers(min_value=0, max_value=39),
        n=st.integers(min_value=1, max_value=24),
        mode=st.sampled_from([ONE_STEP, CONFIDENCE_AWARE]),
    )
    def test_warm_drafts_equal_the_uncached_loop(self, warm, pick, donor, n, mode):
        """A prefix that shares only its backbone window with an earlier one
        is served the earlier one's blocks, and the draft still equals the
        uncached loop in tokens, confidences, distributions and passes."""
        drafter, prompts = warm
        prefix = prompts[pick]
        k = drafter.backbone.order - 1
        drafter.draft_tokens(prompts[donor][:-k] + prefix[-k:], n, mode)
        want = reference_draft(drafter, prefix, n, mode)
        for _ in range(2):
            assert_same_proposal(drafter.draft_tokens(prefix, n, mode), want)

    def test_modes_do_not_share_blocks(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=18)[0]
        for first, second in ((ONE_STEP, CONFIDENCE_AWARE), (CONFIDENCE_AWARE, ONE_STEP)):
            drafter = DiffusionDrafter(mixed_lab.drafter.backbone)
            for mode in (first, second, first):
                assert_same_proposal(
                    drafter.draft_tokens(prompt, 20, mode), reference_draft(drafter, prompt, 20, mode)
                )

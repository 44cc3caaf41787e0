"""Draft-length policies: how many tokens to speculate before each verify.

Two fixed-length baselines (autoregressive drafting and block-diffusion
drafting) plus the adaptive policy this package exists for: keep requesting
chunks of ``step_size`` drafted tokens and stop as soon as any token in the
newest chunk falls below the confidence threshold, the drafter emits
``<eos>``, or the draft reaches ``max_length``. Low confidence is treated as
a leading indicator of rejection, so the policy fails fast on hard content
and speculates deep into easy content.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .drafter import CONFIDENCE_AWARE, DRAFT_MODES, ONE_STEP, DiffusionDrafter, DraftProposal
from .errors import ConfigError, check_number
from .ngram import argmax_token  # noqa: F401  (perfbench/spans.py wraps policies.argmax_token)


@dataclass(frozen=True)
class FixedAR:
    """Always draft ``draft_len`` tokens with the autoregressive drafter."""

    draft_len: int

    def __post_init__(self) -> None:
        check_number(self.draft_len, int, "draft length", at_least=1)

    def propose(self, drafter: DiffusionDrafter, prefix: list[int]) -> DraftProposal:
        """The modal chain, read as one-step blocks put end to end: the same
        tokens a one-step draft gets, billed one backbone pass per token."""
        draft = drafter.draft_tokens(prefix, self.draft_len, ONE_STEP)
        return replace(draft, forward_passes=self.draft_len)

    def worst_round(self, block_size: int) -> tuple[int, int]:
        """The longest draft ``propose`` returns and the most passes it charges."""
        return self.draft_len, self.draft_len

    def label(self) -> str:
        return f"fixed_ar({self.draft_len})"


@dataclass(frozen=True)
class FixedDLLM:
    """Always draft ``draft_len`` tokens with block-diffusion decoding."""

    draft_len: int
    mode: str = CONFIDENCE_AWARE

    def __post_init__(self) -> None:
        check_number(self.draft_len, int, "draft length", at_least=1)
        if self.mode not in DRAFT_MODES:
            raise ConfigError(f"unknown draft mode: {self.mode!r}")

    def propose(self, drafter: DiffusionDrafter, prefix: list[int]) -> DraftProposal:
        return drafter.draft_tokens(prefix, self.draft_len, self.mode)

    def worst_round(self, block_size: int) -> tuple[int, int]:
        """The longest draft ``propose`` returns and the most passes it charges
        with blocks of ``block_size`` slots: one pass a block in one-step mode,
        and at most one a slot otherwise, since each pass unmasks a slot."""
        blocks = -(-self.draft_len // block_size)
        return self.draft_len, blocks if self.mode == ONE_STEP else blocks * block_size

    def label(self) -> str:
        return f"fixed_dllm({self.draft_len},{self.mode})"


@dataclass(frozen=True)
class FailFast:
    """Adaptive confidence-gated draft length.

    Attributes:
        step_size: tokens drafted per expansion chunk (paper-scale default 10).
        confidence_threshold: minimum argmax probability a chunk token needs
            for expansion to continue; in (0, 1).
        max_length: hard cap on the draft submitted per round.
    """

    step_size: int = 10
    confidence_threshold: float = 0.45
    max_length: int = 60

    def __post_init__(self) -> None:
        check_number(self.step_size, int, "step_size")
        check_number(self.confidence_threshold, float, "confidence_threshold")
        check_number(self.max_length, int, "max_length")
        if not 1 <= self.step_size <= self.max_length:
            raise ConfigError(
                f"need 1 <= step_size <= max_length, got {self.step_size} and {self.max_length}"
            )
        if not 0.0 < self.confidence_threshold < 1.0:
            raise ConfigError(
                f"confidence threshold must be in (0, 1), got {self.confidence_threshold}"
            )

    def propose(self, drafter: DiffusionDrafter, prefix: list[int]) -> DraftProposal:
        """Confidence-gated draft expansion (one-step block drafting).

        Chunks of ``step_size`` tokens are drafted until a chunk contains a
        sub-threshold token, the drafter emits ``<eos>``, or the draft reaches
        ``max_length``. The chunk that triggered the stop is still part of the
        proposal; the verifier decides what survives. A proposal that ran past
        ``max_length`` is truncated back to it, and a proposal containing
        ``<eos>`` is cut just after the marker. Every one-step block pulled to
        cover a chunk costs one pass, whether or not its tokens survive the cut.
        Each chunk redrafts the whole proposal through ``draft_tokens``, which
        reads the earlier blocks back from the drafter's block cache.
        """
        eos = drafter.backbone.vocabulary.eos_id
        end = 0
        while True:
            start, end = end, end + self.step_size
            draft = drafter.draft_tokens(prefix, end, ONE_STEP)
            if eos in draft.tokens[start:]:
                end = draft.tokens.index(eos, start) + 1
                break
            if min(draft.confidences[start:]) < self.confidence_threshold:
                break
            if end >= self.max_length:
                break
        return draft.head(min(end, self.max_length))

    def worst_round(self, block_size: int) -> tuple[int, int]:
        """The longest draft ``propose`` returns and the most passes it charges
        with blocks of ``block_size`` slots: the last chunk drafts up to the
        first multiple of ``step_size`` at or past ``max_length``."""
        end = -(-self.max_length // self.step_size) * self.step_size
        return self.max_length, -(-end // block_size)

    def label(self) -> str:
        return (
            f"failfast(step={self.step_size},threshold={self.confidence_threshold},"
            f"cap={self.max_length})"
        )


# A policy is any of these: ``propose(drafter, prefix)`` returns a
# ``DraftProposal`` that is a function of the policy's settings and of the
# drafter's backbone window of ``prefix`` alone, never of what came before it
# or of which blocks the drafter has cached. ``engine.run_episode`` relies on
# it to reuse a greedy round at a window it has already drafted.
# ``worst_round(block_size)`` bounds every proposal's length and passes, which
# ``config.materialize`` reads to refuse overflowing costs before training.
Policy = Union[FixedAR, FixedDLLM, FailFast]

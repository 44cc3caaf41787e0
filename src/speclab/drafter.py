"""Block-wise diffusion drafter emulated on top of an n-gram backbone.

The emulator reproduces the mechanics that matter for speculation economics:
a block of masked slots, per-step confidence-ranked parallel unmasking, a
one-pass "modal chain" generation mode, and honest forward-pass accounting.
Conditional independence between slots unmasked in the same step is modeled
by context truncation: a masked slot only sees the contiguous run of unmasked
slots immediately to its left, so a masked gap forces the backbone into
short-context backoff and the proposal quality drops accordingly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NoMaskedSlots, check_number
from .ngram import _DIST_CACHE_CAP, NGramModel, argmax_token

ONE_STEP = "one_step"
CONFIDENCE_AWARE = "confidence_aware"
DRAFT_MODES = (ONE_STEP, CONFIDENCE_AWARE)


@dataclass
class DraftProposal:
    """A drafted continuation plus everything verification needs.

    ``distributions[i]`` is the drafter's full next-token distribution at
    position ``i`` and ``confidences[i]`` is its maximum entry (the argmax
    probability). ``forward_passes`` counts every drafter pass spent
    producing the proposal, including work on tokens that were later cut.
    """

    tokens: list[int]
    confidences: list[float]
    distributions: list[np.ndarray]
    forward_passes: int

    def __post_init__(self) -> None:
        if not (len(self.tokens) == len(self.confidences) == len(self.distributions)):
            raise ConfigError("proposal fields must have equal length")

    def head(self, n: int) -> DraftProposal:
        """The first ``n`` tokens with every pass still charged: a cut never
        refunds the passes spent on what it cuts. Returns ``self`` when
        nothing is cut."""
        if n >= len(self.tokens):
            return self
        return DraftProposal(
            self.tokens[:n], self.confidences[:n], self.distributions[:n], self.forward_passes
        )


@dataclass
class BlockState:
    """The working state of confidence-aware denoising: one block of
    ``block_size`` slots being denoised against a fixed prefix.

    A slot is either masked (``None`` entries) or unmasked with a committed
    token, its confidence, and the distribution it was drawn from. Unmasked
    slots never change for the rest of the block's life.
    """

    prefix: list[int]
    block_size: int
    tokens: list[int | None] = field(init=False)
    confidences: list[float | None] = field(init=False)
    distributions: list[np.ndarray | None] = field(init=False)

    def __post_init__(self) -> None:
        self.tokens = [None] * self.block_size
        self.confidences = [None] * self.block_size
        self.distributions = [None] * self.block_size

    def masked_slots(self) -> list[int]:
        return [j for j, tok in enumerate(self.tokens) if tok is None]

    @property
    def all_unmasked(self) -> bool:
        return all(tok is not None for tok in self.tokens)

    def leftmost_run(self) -> int:
        """Length of the contiguous unmasked run starting at slot 0."""
        run = 0
        for tok in self.tokens:
            if tok is None:
                break
            run += 1
        return run

    def slot_context(self, slot: int) -> list[int]:
        """Visible context for ``slot``: the unmasked run immediately left of it.

        If that run reaches slot 0 the committed prefix is prepended;
        otherwise the masked gap truncates everything further left.
        """
        run: list[int] = []
        i = slot - 1
        while i >= 0 and self.tokens[i] is not None:
            run.append(self.tokens[i])  # type: ignore[arg-type]
            i -= 1
        run.reverse()
        if i < 0:
            return self.prefix + run
        return run


def denoise_step(backbone: NGramModel, state: BlockState, unmask_threshold: float) -> list[int]:
    """One parallel denoise pass: unmask every slot whose confidence clears
    ``unmask_threshold``, or the single most confident slot if none does
    (leftmost slot on ties), so every pass makes progress. Returns the slots
    unmasked by this pass. Costs one forward pass.

    Every proposal is read from the state as it was at the start of the
    step, so slots unmasked by this pass do not see each other.
    """
    proposals = []
    for j in state.masked_slots():
        context = state.slot_context(j)
        tok, conf = backbone.top(context)
        proposals.append((j, tok, conf, backbone.next_distribution(context)))
    if not proposals:
        raise NoMaskedSlots("block is already fully unmasked")
    chosen = [p for p in proposals if p[2] >= unmask_threshold]
    if not chosen:
        best = proposals[0]
        for p in proposals[1:]:
            if p[2] > best[2]:
                best = p
        chosen = [best]
    for j, tok, conf, dist in chosen:
        state.tokens[j] = tok
        state.confidences[j] = conf
        state.distributions[j] = dist
    return [p[0] for p in chosen]


def modal_chain(
    backbone: NGramModel, prefix: list[int], n: int
) -> tuple[list[int], list[float], list[np.ndarray]]:
    """The backbone's argmax chain: ``n`` tokens after ``prefix``, each
    conditioned on the prefix plus the tokens chosen before it, with their
    confidences and the distributions they were read from."""
    chain = list(prefix)
    confidences: list[float] = []
    distributions: list[np.ndarray] = []
    for _ in range(n):
        tok, conf = backbone.top(chain)
        distributions.append(backbone.next_distribution(chain))
        chain.append(tok)
        confidences.append(conf)
    return chain[len(prefix) :], confidences, distributions


class Block(NamedTuple):
    """A block decoded to the end, as every block decoder returns it, with the
    leftmost unmasked run after each pass: ``runs[i]`` is that run after pass
    ``i + 1``, so the state after any pass is ``tokens[:runs[i]]`` (unmasked
    slots never change). A one-step block has ``runs == (block_size,)``."""

    tokens: tuple[int, ...]
    confidences: tuple[float, ...]
    distributions: tuple[np.ndarray, ...]
    runs: tuple[int, ...]


def one_step_block(backbone: NGramModel, prefix: list[int], block_size: int) -> Block:
    """Generate a whole block in a single forward pass, so ``runs == (block_size,)``.

    Slot ``j`` conditions on the prefix plus the argmax tokens already chosen
    at slots ``0..j-1`` of this same pass (the modal chain), so one cheap pass
    still yields a coherent block; the emulator charges it as one pass.
    """
    return Block(*map(tuple, modal_chain(backbone, prefix, block_size)), (block_size,))


def fixed_step_block(backbone: NGramModel, prefix: list[int], block_size: int, steps: int) -> Block:
    """Denoise a block in exactly ``steps`` passes with per-step unmask quotas.

    The quota schedule splits the block as evenly as possible (a block of 8 in
    3 steps unmasks 3, 3, then 2 slots) and each pass unmasks the leftmost
    masked slots, so ``runs`` are the cumulative quotas: ``(3, 6, 8)``.
    Masked positions left of a slot are bridged with the block's modal chain
    — the model's best coherent guess at the region, the same idealisation
    one-step mode uses — but a slot r positions into its pass distrusts the
    nearest guesses and conditions on only order-1-r bridge tokens, decaying
    to the unigram. One step is maximally parallel (and worst),
    ``block_size`` steps never bridges at all and is fully sequential, and
    the range in between is the compute-quality knob.
    """
    if not 1 <= steps <= block_size:
        raise ConfigError(f"steps must be in 1..{block_size}, got {steps}")
    bridge = list(prefix) + modal_chain(backbone, prefix, block_size)[0]
    usable = backbone.order - 1
    base, rem = divmod(block_size, steps)
    slots: list[tuple[int, float, np.ndarray]] = []
    runs: list[int] = []
    for step in range(steps):
        for r in range(base + (1 if step < rem else 0)):
            keep = max(0, usable - r)
            visible = bridge[: len(prefix) + len(slots)]
            dist = backbone.next_distribution(visible[len(visible) - keep :] if keep else [])
            tok = argmax_token(dist)
            slots.append((tok, float(dist[tok]), dist))
        runs.append(len(slots))
    tokens, confidences, distributions = zip(*slots)
    return Block(tokens, confidences, distributions, tuple(runs))


def check_settings(block_size: int, unmask_threshold: float) -> None:
    """Raise ``ConfigError`` unless a drafter can decode blocks with these
    settings; ``config.materialize`` calls it before training any model."""
    check_number(block_size, int, "block size", at_least=1)
    if not 0.0 < check_number(unmask_threshold, float, "unmask threshold") <= 1.0:
        raise ConfigError(f"unmask threshold must be in (0, 1], got {unmask_threshold}")


@dataclass(frozen=True)
class DiffusionDrafter:
    """The drafting side of the loop: a backbone plus block decoding settings.

    Decoded blocks are cached per (mode, backbone window of the prefix) and
    decoded from that window alone; passes are deterministic, so equal
    windows decode equal blocks.
    """

    backbone: NGramModel
    block_size: int = 8
    unmask_threshold: float = 0.9
    _blocks: dict[tuple[str, tuple[int, ...]], Block] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_settings(self.block_size, self.unmask_threshold)

    def block(self, prefix: list[int], mode: str) -> Block:
        """The block after ``prefix`` in ``mode``, decoded to the end on a
        cache miss: one one-step pass, or denoise passes until unmasked.
        Both are looked up as module globals, so a profiler that replaces
        them here counts every pass decoded."""
        window = self.backbone.window(prefix)
        key = (mode, window)
        cached = self._blocks.get(key)
        if cached is not None:
            return cached
        if mode == ONE_STEP:
            block = one_step_block(self.backbone, list(window), self.block_size)
        elif mode == CONFIDENCE_AWARE:
            state = BlockState(list(window), self.block_size)
            runs = []
            while not state.all_unmasked:
                denoise_step(self.backbone, state, self.unmask_threshold)
                runs.append(state.leftmost_run())
            block = Block(*map(tuple, (state.tokens, state.confidences, state.distributions, runs)))
        else:
            raise ConfigError(f"unknown draft mode: {mode!r}")
        if len(self._blocks) < _DIST_CACHE_CAP:
            self._blocks[key] = block
        return block

    def draft_tokens(self, prefix: list[int], n: int, mode: str = CONFIDENCE_AWARE) -> DraftProposal:
        """Draft ``n`` tokens by decoding consecutive blocks: the package's one
        walk over blocks and its one rule for charging passes.

        Each block is charged the passes its decoding needs until its leftmost
        run covers the draft positions still missing (one in one-step mode).
        Only the last block can stop short of its end, so the walk takes whole
        blocks and keeps the first ``n`` tokens, but every pass spent is
        charged, including passes that unmasked positions beyond ``n`` (in
        confidence-aware mode the unmasking order inside a block is
        confidence-ranked, so trailing blocks routinely cost passes for
        tokens that are thrown away).
        """
        if n < 1:
            raise ConfigError(f"draft length must be >= 1, got {n}")
        context = list(self.backbone.window(prefix))  # all a block reads of the prefix
        tokens: list[int] = []
        confidences: list[float] = []
        distributions: list[np.ndarray] = []
        passes = 0
        while len(tokens) < n:
            block = self.block(context + tokens, mode)
            passes += bisect_left(block.runs, min(n - len(tokens), self.block_size)) + 1
            tokens += block.tokens
            confidences += block.confidences
            distributions += block.distributions
        return DraftProposal(tokens[:n], confidences[:n], distributions[:n], passes)

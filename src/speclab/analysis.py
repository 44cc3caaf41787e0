"""Statistics computed after the fact from episode transcripts.

Everything here is a pure function of saved transcripts (plus, for the
denoising-quality curve, the models themselves), so reports can be rebuilt
from a run directory without re-running any episode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from .drafter import DiffusionDrafter, fixed_step_block
from .engine import Transcript
from .errors import ConfigError
from .ngram import NGramModel
from .verifier import BONUS, vanilla_decode

EASY = "easy"
HARD = "hard"
ABSENT = "absent"


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate behaviour of one policy/dataset cell.

    ``acceptance_rate`` is computed from global totals (all accepted tokens
    over all speculated tokens), not by averaging per-round rates, so short
    rounds are not overweighted. Bonus tokens ride along for free and are
    excluded from both the rate and the accepted lengths.
    """

    acceptance_rate: float
    avg_accepted_len: float
    max_accepted_len: int
    avg_speculated_len: float
    max_speculated_len: int
    rounds: int
    drafter_passes_per_round: float
    speedup: float

    def to_dict(self) -> dict:
        return asdict(self)


def _as_list(transcripts: Transcript | Sequence[Transcript]) -> list[Transcript]:
    if isinstance(transcripts, Transcript):
        return [transcripts]
    return list(transcripts)


def summarize(transcripts: Transcript | Sequence[Transcript]) -> SummaryStats:
    """Pool one or more transcripts into a single row of summary statistics.

    The pooled speedup is total vanilla latency over total measured latency,
    so it is the speedup of the whole workload rather than a mean of ratios.
    """
    items = _as_list(transcripts)
    rounds = [r for t in items for r in t.rounds]
    if not rounds:
        raise ConfigError("no rounds to summarize")
    accepted = sum(r.accepted_len for r in rounds)
    speculated = sum(r.proposed_len for r in rounds)
    passes = sum(r.drafter_passes for r in rounds)
    vanilla = math.fsum(t.vanilla_latency for t in items)
    total = math.fsum(t.total_latency for t in items)
    return SummaryStats(
        acceptance_rate=accepted / speculated if speculated else 0.0,
        avg_accepted_len=accepted / len(rounds),
        max_accepted_len=max(r.accepted_len for r in rounds),
        avg_speculated_len=speculated / len(rounds),
        max_speculated_len=max(r.proposed_len for r in rounds),
        rounds=len(rounds),
        drafter_passes_per_round=passes / len(rounds),
        speedup=vanilla / total if total > 0 else 0.0,
    )


def easy_hard_flags(transcript: Transcript) -> list[str]:
    """Per-output-token difficulty flags, in emission order.

    Accepted draft tokens and bonus tokens are easy (the drafter covered
    them); corrections are hard (the target had to intervene). The stream is
    cut to the committed output, so tokens dropped by the length cap or an
    end-of-text marker carry no flag.
    """
    flags: list[str] = []
    for r in transcript.rounds:
        flags.extend([EASY] * r.accepted_len)
        flags.append(EASY if r.replacement_kind == BONUS else HARD)
    del flags[len(transcript.output) :]
    return flags


@dataclass(frozen=True)
class EasyHardRaster:
    """One row of difficulty flags per episode, padded to a rectangle.

    Padding cells are ``ABSENT`` and are excluded from every ratio; they only
    exist so the rows render as a grid.
    """

    rows: list[list[str]]

    @property
    def width(self) -> int:
        return max((len(row) for row in self.rows), default=0)

    def counts(self) -> tuple[int, int]:
        """(easy, hard) cell totals over the whole raster."""
        easy = sum(row.count(EASY) for row in self.rows)
        hard = sum(row.count(HARD) for row in self.rows)
        return easy, hard


def build_raster(transcripts: Sequence[Transcript]) -> EasyHardRaster:
    """Stack per-episode flag rows into a rectangular raster."""
    rows = [easy_hard_flags(t) for t in transcripts]
    width = max((len(row) for row in rows), default=0)
    return EasyHardRaster([row + [ABSENT] * (width - len(row)) for row in rows])


def consecutive_easy_ratio(raster: EasyHardRaster, thresholds: Sequence[int]) -> list[float]:
    """Fraction of real tokens inside maximal easy runs longer than each threshold.

    A run is a maximal stretch of consecutive easy cells within one row; the
    denominator counts every easy or hard cell in the raster. At threshold 0
    this is simply the easy fraction, and the ratio can only fall as the
    threshold grows.
    """
    run_lengths: list[int] = []
    total = 0
    for row in raster.rows:
        run = 0
        for flag in row:
            if flag == EASY:
                run += 1
                total += 1
                continue
            if run:
                run_lengths.append(run)
                run = 0
            if flag == HARD:
                total += 1
        if run:
            run_lengths.append(run)
    out: list[float] = []
    for x in thresholds:
        covered = sum(length for length in run_lengths if length > x)
        out.append(covered / total if total else 0.0)
    return out


def _empirical_cdf(values: Sequence[int]) -> list[tuple[int, float]]:
    counts = Counter(values)
    points: list[tuple[int, float]] = []
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        points.append((value, seen / len(values)))
    return points


def accepted_length_cdf(
    transcripts: Transcript | Sequence[Transcript],
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Empirical CDFs of per-round accepted and speculated lengths.

    Each CDF is a sorted list of ``(length, cumulative fraction)`` step
    points; the last fraction is exactly 1.
    """
    rounds = [r for t in _as_list(transcripts) for r in t.rounds]
    if not rounds:
        raise ConfigError("no rounds to build a length CDF from")
    return (
        _empirical_cdf([r.accepted_len for r in rounds]),
        _empirical_cdf([r.proposed_len for r in rounds]),
    )


@dataclass(frozen=True)
class LatencyBreakdown:
    """Where the measured time went: drafting versus verification.

    Absolute values are in cost-model units (one verify pass = 1.0); the two
    shares sum to one.
    """

    draft_latency: float
    verify_latency: float
    draft_share: float
    verify_share: float


def latency_breakdown(transcripts: Transcript | Sequence[Transcript]) -> LatencyBreakdown:
    """Split total measured latency into its speculation and verification parts."""
    items = _as_list(transcripts)
    if not any(t.rounds for t in items):
        raise ConfigError("no rounds to break down")
    draft = math.fsum(t.draft_latency for t in items)
    verify = math.fsum(t.verify_latency for t in items)
    total = draft + verify
    return LatencyBreakdown(
        draft_latency=draft,
        verify_latency=verify,
        draft_share=draft / total,
        verify_share=verify / total,
    )


def agreement_by_steps(
    target: NGramModel,
    drafter: DiffusionDrafter,
    prompts: Sequence[Sequence[int]],
    rollout_tokens: int,
    steps: Sequence[int] | None = None,
) -> list[float]:
    """Teacher-forced slot agreement of fixed-step denoising, per step budget.

    The target's greedy rollout is computed once per prompt. Every full block
    of ``drafter.block_size`` rollout positions is then re-denoised from the
    true prefix at each step budget and scored on the fraction of slots that
    match the rollout. More steps mean longer real contexts inside the block,
    so the curve is the compute-quality trade of the drafter in isolation.
    """
    block = drafter.block_size
    step_list = list(steps) if steps is not None else list(range(1, block + 1))
    matches = [0] * len(step_list)
    total = 0
    for prompt in prompts:
        rollout = vanilla_decode(target, prompt, rollout_tokens)
        usable = len(rollout) - len(rollout) % block
        for j in range(0, usable, block):
            prefix = list(prompt) + rollout[:j]
            truth = rollout[j : j + block]
            for i, s in enumerate(step_list):
                state = fixed_step_block(drafter.backbone, prefix, block, s)
                matches[i] += sum(state.tokens[k] == truth[k] for k in range(block))
        total += usable
    if total == 0:
        raise ConfigError("no full blocks to score agreement on")
    return [m / total for m in matches]

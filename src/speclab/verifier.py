"""Target-side verification of drafted tokens, plus the vanilla baseline.

Greedy verification is an exact prefix match against the target's argmax
chain and is what makes speculation lossless at temperature zero. Stochastic
verification implements the accept/residual rule that preserves the target's
sampling distribution when draft tokens are sampled from the drafter: accept
a drafted token x with probability min(1, p(x)/q(x)); on rejection emit a
token from the normalized residual max(0, p - q); if everything is accepted,
emit a bonus token from the target's next distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .drafter import DraftProposal
from .ngram import NGramModel, argmax_token

CORRECTION = "correction"
BONUS = "bonus"


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one proposal in a single target pass.

    ``accepted_len`` of the drafted tokens are kept, then ``replacement`` is
    committed on top: the target's correction at the first rejected position,
    or a bonus continuation when the whole draft was accepted (``accepted_len``
    is the draft's length).
    """

    accepted_len: int
    replacement: int


def verify_greedy(target: NGramModel, prefix: Sequence[int], proposal: DraftProposal) -> VerificationResult:
    """Accept the longest prefix of the draft matching the target argmax chain.

    Position ``i`` is checked against the target's argmax given the prefix
    plus the first ``i`` drafted tokens, so one rejection invalidates
    everything after it. All ``len(proposal) + 1`` positions are scored in
    one verifier pass.
    """
    ctx = list(prefix)
    for accepted, tok in enumerate(proposal.tokens):
        best, _ = target.top(ctx)
        if tok != best:
            return VerificationResult(accepted, best)
        ctx.append(tok)
    bonus, _ = target.top(ctx)
    return VerificationResult(len(proposal.tokens), bonus)


def accept_probability(target_dist: np.ndarray, draft_dist: np.ndarray, token: int) -> float:
    """min(1, p(token)/q(token)); q(token) must be strictly positive."""
    q = float(draft_dist[token])
    if q <= 0.0:
        raise ConfigError(f"draft probability of token {token} is zero")
    return min(1.0, float(target_dist[token]) / q)


def residual_distribution(target_dist: np.ndarray, draft_dist: np.ndarray) -> np.ndarray:
    """Normalized positive part of (p - q), sampled from after a rejection."""
    residual = np.maximum(target_dist - draft_dist, 0.0)
    mass = residual.sum()
    if mass <= 0.0:
        # p == q: a rejection has probability zero, but stay total anyway.
        return np.array(target_dist, dtype=np.float64, copy=True)
    return residual / mass


def _sample(dist: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(dist)
    idx = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
    return min(idx, len(dist) - 1)


def verify_stochastic(
    target: NGramModel,
    prefix: Sequence[int],
    proposal: DraftProposal,
    rng: np.random.Generator,
) -> VerificationResult:
    """Speculative-sampling verification; draws all randomness from ``rng``."""
    ctx = list(prefix)
    for accepted, tok in enumerate(proposal.tokens):
        p = target.next_distribution(ctx)
        q = proposal.distributions[accepted]
        if rng.random() < accept_probability(p, q, tok):
            ctx.append(tok)
            continue
        replacement = _sample(residual_distribution(p, q), rng)
        return VerificationResult(accepted, replacement)
    bonus = _sample(target.next_distribution(ctx), rng)
    return VerificationResult(len(proposal.tokens), bonus)


def vanilla_decode(target: NGramModel, prompt: Sequence[int], max_tokens: int) -> list[int]:
    """Plain greedy decoding, one target pass per token.

    This is the reference output speculation must reproduce bit-for-bit under
    greedy verification. Stops after ``max_tokens`` tokens or just before the
    first ``<eos>`` (the marker itself is not part of the output).
    """
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    eos = target.vocabulary.eos_id
    ctx = list(prompt)
    out: list[int] = []
    while len(out) < max_tokens:
        tok = argmax_token(target.next_distribution(ctx))
        if tok == eos:
            break
        out.append(tok)
        ctx.append(tok)
    return out

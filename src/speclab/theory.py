"""Closed-form speedup model for speculative decoding.

With per-token acceptance probability ``alpha`` (i.i.d.) and speculation
length ``gamma``, a round commits

    E[tokens] = (1 - alpha**(gamma + 1)) / (1 - alpha)

tokens (accepted prefix plus one correction or bonus token). Normalizing the
verify pass to 1 and charging ``cost_ratio`` per drafter pass, a round costs
``gamma * cost_ratio + 1`` with an autoregressive drafter and
``ceil(gamma / block_size) * cost_ratio + 1`` with a block-parallel drafter,
and the speedup over vanilla decoding is E[tokens] / E[cost]. The ceil is
what produces the sawtooth: the block-parallel curve drops exactly where
``gamma`` crosses a multiple of ``block_size``.
"""

from __future__ import annotations

import math

from .errors import ConfigError

DRAFTER_AR = "ar"
DRAFTER_BLOCK = "block_parallel"


def expected_tokens_per_round(alpha: float, gamma: int) -> float:
    """(1 - alpha**(gamma+1)) / (1 - alpha): accepted prefix + 1, in expectation."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"acceptance rate must be in (0, 1), got {alpha}")
    if gamma < 1:
        raise ConfigError(f"speculation length must be >= 1, got {gamma}")
    return (1.0 - alpha ** (gamma + 1)) / (1.0 - alpha)


def drafter_passes(gamma: int, drafter_kind: str, block_size: int = 8) -> int:
    """Drafter passes per round: gamma for AR, ceil(gamma/block) for block-parallel."""
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    if drafter_kind == DRAFTER_AR:
        return gamma
    if drafter_kind == DRAFTER_BLOCK:
        return math.ceil(gamma / block_size)
    raise ConfigError(f"unknown drafter kind: {drafter_kind!r}")


def theoretical_speedup(
    alpha: float,
    gamma: int,
    cost_ratio: float,
    drafter_kind: str = DRAFTER_AR,
    block_size: int = 8,
) -> float:
    """Expected tokens per round divided by expected round cost."""
    tokens = expected_tokens_per_round(alpha, gamma)
    if not 0.0 <= cost_ratio < math.inf:
        raise ConfigError(f"cost ratio must be a finite number >= 0, got {cost_ratio}")
    return tokens / (drafter_passes(gamma, drafter_kind, block_size) * cost_ratio + 1.0)


def speedup_curve(
    alpha: float,
    gammas: range | list[int],
    cost_ratio: float,
    drafter_kind: str = DRAFTER_AR,
    block_size: int = 8,
) -> list[float]:
    return [
        theoretical_speedup(alpha, g, cost_ratio, drafter_kind, block_size) for g in gammas
    ]


def best_gamma(
    alpha: float,
    gammas: range | list[int],
    cost_ratio: float,
    drafter_kind: str = DRAFTER_AR,
    block_size: int = 8,
) -> tuple[int, float]:
    """Maximizer over the grid and its speedup (first hit wins on exact ties)."""
    gammas = list(gammas)
    return curve_peak(gammas, speedup_curve(alpha, gammas, cost_ratio, drafter_kind, block_size))


def curve_peak(gammas: list[int], values: list[float]) -> tuple[int, float]:
    """The grid point of the largest of ``values``, a curve over ``gammas``,
    and that value (first hit wins on exact ties)."""
    if not gammas:
        raise ConfigError("empty speculation-length grid")
    best_idx = max(range(len(values)), key=lambda i: (values[i], -i))
    return gammas[best_idx], values[best_idx]

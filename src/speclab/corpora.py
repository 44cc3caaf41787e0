"""Seeded synthetic corpora with controllable per-position difficulty.

Greedy n-gram rollouts collapse onto majority continuations, so difficulty
has to be engineered into the token stream itself rather than sampled at
decode time. The trick used throughout: make the next token a deterministic
function of a window that is longer than the drafter's context but within
reach of the target's. The target then decodes such regions confidently
while the drafter sees only ambiguous short windows and fails, which is
exactly the easy/hard texture the speculation experiments need.

All generators are pure functions of their seed; corpora are lists of
single-line documents over single-character tokens.
"""

from __future__ import annotations

import zlib

import numpy as np

PERIODIC_SEED = 11
HIGH_ENTROPY_SEED = 13
MIXED_SEED = 29
IID_SEED = 19

_IID_ALPHABET = "abcdefghijklmnop"
_DIGITS = "0123456789"

PERIODIC_PHRASES = (
    "tick tock goes the copper clock. ",
    "round and round the river runs. ",
)

# Chosen so the full cycle contains no repeated 4-gram (a repeat would let a
# greedy order-5 rollout shortcut across phrases and skip the hard segments)
# and no 3-char context with more than two continuations (a 3-way split drops
# the order-4 drafter's confidence below usable thresholds mid-phrase).
MIXED_PHRASES = (
    "sphinx of black quartz judge my vow. ",
    "the five boxing wizards jump quickly. ",
    "stock red crates with dozen gold cans. ",
    "bright vales hum under a calm moon. ",
)


def _stable_hash(tag: str, seed: int, payload: str) -> int:
    """Deterministic across runs and platforms (unlike builtin hash)."""
    return zlib.crc32(f"{tag}|{seed}|{payload}".encode("utf-8"))


def periodic_corpus(seed: int = PERIODIC_SEED, docs: int = 100, reps: int = 7) -> list[str]:
    """Formulaic text: a fixed phrase cycle repeated over and over.

    Every document is a window into the same infinite loop, so even a
    low-order model predicts nearly every position with high confidence.
    """
    cycle = "".join(PERIODIC_PHRASES)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(docs):
        offset = int(rng.integers(0, len(cycle)))
        cut = int(rng.integers(10, len(cycle)))
        # Documents start and end mid-cycle so no single cycle position
        # accumulates enough <eos> counts to derail a greedy rollout.
        out.append(cycle[offset:] + cycle * reps + cycle[:cut])
    return out


def high_entropy_corpus(
    seed: int = HIGH_ENTROPY_SEED, docs: int = 140, doc_len: int = 220
) -> list[str]:
    """Near-incompressible text: i.i.d. uniform characters.

    Long windows are unique, so a high-order target can still replay a seen
    document, but short windows carry almost no signal and the drafter's
    confidence stays near the uniform floor.
    """
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnopqrst"
    out = []
    for _ in range(docs):
        idx = rng.integers(0, len(letters), size=doc_len)
        out.append("".join(letters[i] for i in idx))
    return out


def _hash_chain(start_window: str, first_digit: str, seed: int, cap: int = 60) -> str:
    """Digit run where each next digit is a stable hash of the last 4 chars.

    The chain, and the position where it ends, are functions of content
    alone, so every document (and a greedy rollout) traverses and leaves
    these runs the same way. A model with context >= 4 follows them exactly;
    shorter contexts see heavily shared digit windows and learn almost
    nothing.
    """
    chars = [first_digit]
    window = (start_window + first_digit)[-4:]
    while len(chars) < cap:
        if _stable_hash("exit", seed, window) % 1000 < 70:
            break
        digit = _DIGITS[_stable_hash("chain", seed, window) % 10]
        chars.append(digit)
        window = (window + digit)[-4:]
    return "".join(chars)


def mixed_corpus(seed: int = MIXED_SEED, docs: int = 80, segments: int = 5) -> list[str]:
    """Alternating easy and hard segments.

    Easy segments are a fixed cycle of stock phrases (highly predictable at
    order 3-4); hard segments are hash-chain digit runs (predictable only
    with a 4-character window). Each document starts at a random phase of
    the phrase cycle and contains ``segments`` hard runs.
    """
    cycle = "".join(MIXED_PHRASES)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(docs):
        offset = int(rng.integers(0, len(cycle)))
        parts = [cycle[offset:]]
        for _ in range(segments):
            window = "".join(parts)[-4:]
            first = _DIGITS[int(rng.integers(0, 10))]
            parts.append(_hash_chain(window, first, seed))
            parts.append(cycle)
        # End mid-cycle: ending every document at the same cycle position
        # would give <eos> the majority there and truncate greedy rollouts.
        cut = int(rng.integers(10, len(cycle)))
        parts[-1] = cycle[:cut]
        out.append("".join(parts))
    return out


def _iid_step(window: str, seed: int, surprise_permille: int) -> str:
    """Next character as a pure function of the last 7 characters.

    Usually a stable hash of the final 3 characters; for roughly
    ``surprise_permille``/1000 of 7-windows the full window diverts the
    choice to a different letter that the 3-character view cannot predict.
    """
    m = len(_IID_ALPHABET)
    g = _stable_hash("g", seed, window[-3:]) % m
    if _stable_hash("flip", seed, window) % 1000 < surprise_permille:
        g = (g + 1 + _stable_hash("alt", seed, window) % (m - 1)) % m
    return _IID_ALPHABET[g]


def iid_difficulty_corpus(
    seed: int = IID_SEED,
    surprise_permille: int = 200,
    path_count: int = 4_500,
    path_length: int = 44,
    cycle_loops: int = 4,
) -> list[str]:
    """Corpus whose drafter-difficulty is an i.i.d. coin per position.

    Iterating :func:`_iid_step` from any start falls into a fixed attractor
    cycle. Document 0 is that cycle repeated ``cycle_loops`` times; greedy
    rollouts prompted from it circle the cycle forever, and an order-8 target
    reproduces it exactly (each 7-window determines its successor). The
    remaining documents are short walks from random starts, cut off the
    moment they touch the cycle. They exist to teach a small drafter the
    3-character majority rule without ever letting it memorise the cycle, so
    along a rollout the drafter's guess is wrong exactly where the diverted
    windows sit: an effectively independent coin per position.
    """
    m = len(_IID_ALPHABET)
    rng = np.random.default_rng(seed)

    chars = [_IID_ALPHABET[int(i)] for i in rng.integers(0, m, size=7)]
    seen: dict[str, int] = {}
    window = "".join(chars)
    while window not in seen:
        seen[window] = len(chars)
        chars.append(_iid_step(window, seed, surprise_permille))
        window = "".join(chars[-7:])
    entry = seen[window]
    cycle = "".join(chars[entry : len(chars)])
    anchor = "".join(chars[entry - 7 : entry])

    cycle_windows = set()
    window = anchor
    for ch in cycle * 2:
        cycle_windows.add(window)
        window = (window + ch)[-7:]

    docs = [anchor + cycle * cycle_loops]
    for _ in range(path_count):
        chars = [_IID_ALPHABET[int(i)] for i in rng.integers(0, m, size=7)]
        window = "".join(chars)
        while len(chars) < path_length and window not in cycle_windows:
            chars.append(_iid_step(window, seed, surprise_permille))
            window = "".join(chars[-7:])
        if window in cycle_windows:
            # Back off one character: a document ending on a cycle window
            # would teach the target an end-of-text continuation there and
            # break rollouts that circle the cycle.
            chars.pop()
        docs.append("".join(chars))
    return docs


def sample_prompts(
    docs: list[str] | list[list[str]],
    count: int,
    length: int = 12,
    seed: int = 0,
    max_start: int | None = None,
) -> list:
    """Seeded contiguous windows of ``length`` items drawn from the documents:
    characters of text documents, tokens of token-list documents."""
    rng = np.random.default_rng(seed)
    prompts = []
    for _ in range(count):
        doc = docs[int(rng.integers(0, len(docs)))]
        hi = len(doc) - length if max_start is None else min(max_start, len(doc) - length)
        start = int(rng.integers(0, max(1, hi)))
        prompts.append(doc[start : start + length])
    return prompts

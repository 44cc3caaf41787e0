"""The propose-verify loop, its latency accounting, and transcripts.

Latency is simulated, not measured: drafter passes cost a fraction of a
verify pass, one verification round costs one unit while the scored positions
fit inside the batch cutoff (the memory-bound regime) and picks up a
per-token surcharge beyond it (the compute-bound regime). Vanilla decoding
of the same output is priced at one decode pass per token, which makes the
reported speedup a pure function of the transcript.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NoReturn, Sequence

from .drafter import DiffusionDrafter
from .errors import (
    ConfigError, EmptyWorkload, IoError, SchemaVersionMismatch, VocabularyMismatch, check_number
)
from .ngram import NGramModel
from .policies import Policy
from .verifier import BONUS, CORRECTION, verify_greedy, verify_stochastic

import numpy as np

TRANSCRIPT_SCHEMA_VERSION = 1

VERIFIER_GREEDY = "greedy"
VERIFIER_STOCHASTIC = "stochastic"
VERIFIER_KINDS = (VERIFIER_GREEDY, VERIFIER_STOCHASTIC)


@dataclass(frozen=True)
class CostModel:
    """Latency constants, all in units of one verify pass.

    Attributes:
        draft_pass_cost: cost of one drafter forward pass.
        verify_round_cost: cost of one verification round within the cutoff.
        verify_token_cutoff: scored positions (draft length + 1) a verify
            round absorbs at no extra charge; beyond it the round is
            compute-bound.
        verify_excess_cost: per-position surcharge past the cutoff; defaults
            to verify_round_cost / verify_token_cutoff.
        decode_pass_cost: vanilla decoding cost per output token; defaults to
            verify_round_cost.
    """

    draft_pass_cost: float = 0.05
    verify_round_cost: float = 1.0
    verify_token_cutoff: int = 64
    verify_excess_cost: float | None = None
    decode_pass_cost: float | None = None

    def __post_init__(self) -> None:
        check_number(self.draft_pass_cost, float, "cost draft_pass_cost")
        check_number(self.verify_round_cost, float, "cost verify_round_cost")
        if self.draft_pass_cost < 0 or self.verify_round_cost <= 0:
            raise ConfigError("pass costs must be positive")
        check_number(self.verify_token_cutoff, int, "cost verify_token_cutoff", at_least=1)
        check_number(self.verify_token_cutoff, float, "cost verify_token_cutoff")  # ``excess`` divides by it
        if self.verify_excess_cost is not None:
            check_number(self.verify_excess_cost, float, "cost verify_excess_cost", at_least=0)
        if self.decode_pass_cost is not None:
            if check_number(self.decode_pass_cost, float, "cost decode_pass_cost") <= 0:
                raise ConfigError("decode cost must be positive")

    @property
    def excess(self) -> float:
        if self.verify_excess_cost is not None:
            return self.verify_excess_cost
        return self.verify_round_cost / self.verify_token_cutoff

    @property
    def decode(self) -> float:
        if self.decode_pass_cost is not None:
            return self.decode_pass_cost
        return self.verify_round_cost

    def draft_latency(self, passes: int) -> float:
        return passes * self.draft_pass_cost

    def verify_latency(self, scored_positions: int) -> float:
        """Cost of one verify round scoring ``scored_positions`` = L + 1 slots."""
        extra = max(0, scored_positions - self.verify_token_cutoff)
        return self.verify_round_cost + extra * self.excess


def _number(kind: type, value: object, name: str):
    """A transcript field as ``kind``, checked and not coerced: an int takes a
    JSON integer only, a float any JSON number, and neither a boolean."""
    if type(value) is kind:
        return value
    if kind is float and (type(value) is int or isinstance(value, float)):
        return float(value)
    raise IoError(f"transcript is malformed: {name} must be {kind.__name__}, got {value!r}")


def _list_of(kind: type, values: object, name: str) -> list:
    """A transcript list whose items are all ``kind`` (floats may be integers)."""
    if type(values) is list:
        if set(map(type, values)) <= {kind}:
            return values
        if kind is float:
            return [_number(float, v, name) for v in values]
    raise IoError(f"transcript is malformed: {name} must be a list of {kind.__name__}")


def _column(kind: type, values: list, name: str) -> list:
    """One field of every round, each item checked as ``_number`` checks it."""
    if set(map(type, values)) <= {kind}:
        return values
    return [_number(kind, v, name) for v in values]


def _list_column(kind: type, lists: list, name: str) -> list:
    """One list field of every round, each list checked as ``_list_of`` checks it."""
    if set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {kind}:
        return lists
    return [_list_of(kind, v, name) for v in lists]


# The reader's text -> float memo, shared by every transcript in the process.
# A long draft writes one confidence per token, but a run holds few distinct
# confidences, and most of them recur across transcripts, so a memo per
# transcript would miss about half the time. It stops growing at the cap.
_MEMO_CAP = 1 << 14


class _TextFloat(dict):
    """JSON number text -> float, so equal numbers load as one object."""

    def __missing__(self, text: str) -> float:
        value = float(text)
        if not math.isfinite(value):  # a literal past the float range, such as 1e400
            _non_finite(text)
        if len(self) < _MEMO_CAP:
            self[text] = value
        return value


def _non_finite(text: str) -> NoReturn:
    """Refuse ``NaN``, ``Infinity`` and ``-Infinity``: JSON has no such numbers,
    and a transcript that holds one holds no speedup."""
    raise IoError(f"transcript is malformed: non-finite number {text}")


_DECODER = json.JSONDecoder(parse_float=_TextFloat().__getitem__, parse_constant=_non_finite)


@dataclass(frozen=True)
class RoundRecord:
    """Everything one propose-verify round contributed to the episode.

    Under greedy verification ``run_workload`` hands one record to every
    transcript of the call whose round starts at the same window, lists
    included, so a record is read-only: copy it to change it.
    """

    proposed_len: int
    accepted_len: int
    drafter_passes: int
    replacement_kind: str
    proposed_tokens: list[int]
    replacement_token: int
    confidences: list[float]
    draft_latency: float
    verify_latency: float

    def to_dict(self) -> dict:
        return {
            "proposed_len": self.proposed_len,
            "accepted_len": self.accepted_len,
            "drafter_passes": self.drafter_passes,
            "replacement_kind": self.replacement_kind,
            "proposed_tokens": self.proposed_tokens,
            "replacement_token": self.replacement_token,
            "confidences": self.confidences,
            "draft_latency": self.draft_latency,
            "verify_latency": self.verify_latency,
        }


_ROUND_FIELDS = tuple(f.name for f in fields(RoundRecord))


def _round_columns(rounds: list) -> dict[str, list]:
    """The loaded round objects as one checked column per ``RoundRecord``
    field, in field order: each value has its field's type, each round is
    one that verification could have produced (``bonus`` exactly when the
    whole draft was accepted) and no latency is negative."""
    columns = {name: [r[name] for r in rounds] for name in _ROUND_FIELDS}
    kinds = columns["replacement_kind"]
    if kinds.count(BONUS) + kinds.count(CORRECTION) != len(kinds):
        kind = next(k for k in kinds if k not in (BONUS, CORRECTION))
        raise IoError(f"transcript is malformed: unknown replacement_kind {kind!r}")
    for name in ("proposed_len", "accepted_len", "drafter_passes"):
        columns[name] = _column(int, columns[name], name)
    columns["proposed_tokens"] = _list_column(int, columns["proposed_tokens"], "proposed_tokens")
    columns["replacement_token"] = _column(int, columns["replacement_token"], "replacement_token")
    columns["confidences"] = _list_column(float, columns["confidences"], "confidences")
    for name in ("draft_latency", "verify_latency"):
        columns[name] = _column(float, columns[name], name)
    for accepted, proposed, tokens, confidences, passes, kind in zip(
        columns["accepted_len"], columns["proposed_len"], columns["proposed_tokens"],
        columns["confidences"], columns["drafter_passes"], kinds,
    ):
        if not (0 <= accepted <= proposed == len(tokens) == len(confidences) and passes >= 0):
            raise IoError(
                f"transcript is malformed: a round has accepted_len {accepted}, "
                f"proposed_len {proposed}, {len(tokens)} proposed_tokens, "
                f"{len(confidences)} confidences and drafter_passes {passes}"
            )
        if (kind == BONUS) != (accepted == proposed):
            raise IoError(
                f"transcript is malformed: a round that accepted {accepted} of "
                f"{proposed} tokens ends in a {kind}"
            )
    for name in ("draft_latency", "verify_latency"):
        # min() can pass over a NaN; the totals check sums it and catches it.
        if not min(columns[name], default=0.0) >= 0.0:
            raise IoError(f"transcript is malformed: a round has {name} {min(columns[name])}")
    return columns


def _check_totals(t: "Transcript", columns: dict[str, list]) -> None:
    """The latency totals and the speedup must be what ``run_episode`` derives
    from the rounds, bit for bit, and finite."""
    for name in ("draft_latency", "verify_latency"):
        if getattr(t, name) != math.fsum(columns[name]):
            raise IoError(f"transcript is malformed: {name} {getattr(t, name)} is not the rounds' sum")
    if t.total_latency != t.draft_latency + t.verify_latency or not math.isfinite(t.total_latency):
        raise IoError(
            f"transcript is malformed: total_latency {t.total_latency} is not "
            "draft_latency + verify_latency, or not finite"
        )
    if not (math.isfinite(t.vanilla_latency) and t.vanilla_latency >= 0.0):
        raise IoError(f"transcript is malformed: vanilla_latency {t.vanilla_latency}")
    speedup = t.vanilla_latency / t.total_latency if t.total_latency > 0 else 0.0
    if t.speedup != speedup:
        raise IoError(
            f"transcript is malformed: speedup {t.speedup} is not "
            "vanilla_latency / total_latency"
        )


def _check_output(output: list[int], columns: dict[str, list], eos: int) -> None:
    """``output`` must be what the rounds commit, each ``proposed_tokens[:accepted_len]
    + [replacement_token]``, cut at the first ``<eos>``; or a prefix of that
    which ends inside the last round, where ``max_tokens`` cut it. The round
    that commits ``<eos>`` ends the episode, so it must be the last."""
    commits: list[int] = []
    for tokens, accepted, replacement in zip(
        columns["proposed_tokens"], columns["accepted_len"], columns["replacement_token"]
    ):
        before_last = len(commits)
        commits += tokens[:accepted]
        commits.append(replacement)
    if eos in commits:
        end = commits.index(eos)
        if end < before_last:
            raise IoError("transcript is malformed: a round follows the round that committed <eos>")
        del commits[end:]
    n = len(output)
    if output != commits[:n] or not (n == len(commits) or n > before_last):
        raise IoError("transcript is malformed: output is not what the rounds commit")


@dataclass
class Transcript:
    """A full episode: prompt, per-round records, output, and latency totals.

    The config snapshot, seed, and vocabulary are embedded so that every
    number in the transcript can be recomputed from the file alone.
    """

    config: dict
    seed: list[int]
    prompt: list[int]
    vocab: list[str]
    rounds: list[RoundRecord]
    output: list[int]
    draft_latency: float
    verify_latency: float
    total_latency: float
    vanilla_latency: float
    speedup: float
    schema_version: int = TRANSCRIPT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "seed": self.seed,
            "prompt": self.prompt,
            "vocab": self.vocab,
            "rounds": [r.to_dict() for r in self.rounds],
            "output": self.output,
            "draft_latency": self.draft_latency,
            "verify_latency": self.verify_latency,
            "total_latency": self.total_latency,
            "vanilla_latency": self.vanilla_latency,
            "speedup": self.speedup,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Transcript":
        if not isinstance(obj, dict):
            raise IoError(f"transcript is malformed: expected an object, got {type(obj).__name__}")
        version = obj.get("schema_version")
        if type(version) is not int or version != TRANSCRIPT_SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"transcript schema_version {version!r} unsupported "
                f"(expected {TRANSCRIPT_SCHEMA_VERSION})"
            )
        try:
            if type(obj["config"]) is not dict:
                raise IoError(f"transcript is malformed: config must be an object, got {obj['config']!r}")
            columns = _round_columns(_list_of(dict, obj["rounds"], "rounds"))
            t = cls(
                config=obj["config"],
                seed=_list_of(int, obj["seed"], "seed"),
                prompt=_list_of(int, obj["prompt"], "prompt"),
                vocab=_list_of(str, obj["vocab"], "vocab"),
                rounds=[RoundRecord(*r) for r in zip(*columns.values())],
                output=_list_of(int, obj["output"], "output"),
                draft_latency=_number(float, obj["draft_latency"], "draft_latency"),
                verify_latency=_number(float, obj["verify_latency"], "verify_latency"),
                total_latency=_number(float, obj["total_latency"], "total_latency"),
                vanilla_latency=_number(float, obj["vanilla_latency"], "vanilla_latency"),
                speedup=_number(float, obj["speedup"], "speedup"),
            )
            _check_totals(t, columns)
        except (KeyError, OverflowError) as exc:
            raise IoError(f"transcript is malformed: {exc!r}") from exc
        proposed = list(chain.from_iterable(columns["proposed_tokens"]))
        ids = (t.prompt, t.output, columns["replacement_token"], proposed)
        if not all(0 <= min(x) and max(x) < len(t.vocab) for x in ids if x):
            raise IoError("transcript is malformed: a token id lies outside the vocabulary")
        if t.rounds:
            _check_output(t.output, columns, eos=len(t.vocab) - 1)
        return t

    def to_json(self) -> str:
        """``to_dict`` as compact JSON; ``from_json`` reads any layout. A
        non-finite number raises ``ValueError``: JSON has none."""
        return json.dumps(self.to_dict(), separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        """Parse ``text``; equal float texts share one float object across
        every transcript loaded in the process."""
        return cls.from_dict(_DECODER.decode(text))

    def save(self, path: str | os.PathLike[str]) -> None:
        try:
            text = self.to_json()  # first, so a value JSON rejects leaves no file
        except ValueError as exc:
            raise IoError(f"cannot write transcript {path}: {exc}") from exc
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        except OSError as exc:
            raise IoError(f"cannot write transcript {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Transcript":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise IoError(f"cannot read transcript {path}: {exc}") from exc
        except ValueError as exc:  # also text that is not UTF-8, or an integer past Python's digit limit
            raise IoError(f"transcript {path} is not valid JSON: {exc}") from exc
        except IoError as exc:
            raise IoError(f"{path}: {exc}") from exc


def run_episode(
    target: NGramModel,
    drafter: DiffusionDrafter,
    policy: Policy,
    cost: CostModel,
    prompt: Sequence[int],
    max_tokens: int,
    verifier: str = VERIFIER_GREEDY,
    seed: int | Sequence[int] = 0,
    config_snapshot: dict | None = None,
    memo: dict | None = None,
) -> Transcript:
    """Run one propose-verify episode and return its transcript.

    Decoding stops once ``max_tokens`` output tokens are committed or the
    target emits ``<eos>`` (the marker itself never appears in the output).
    Bonus and correction tokens ride along with the verify round at zero
    extra latency.

    ``memo`` is a dict shared by episodes of one target, drafter, policy and
    cost (``run_workload`` passes one per call). A greedy round reads only
    the window of whichever of ``target`` and the drafter's backbone has
    the higher order, so the memo keeps each round under that window, with
    the tokens it commits and whether ``<eos>`` ended the episode; a later
    round at the same window reuses that ``RoundRecord`` object and neither
    drafts nor verifies. Stochastic rounds draw from the episode's RNG and
    ignore the memo.
    """
    if target.vocabulary.tokens != drafter.backbone.vocabulary.tokens:
        raise VocabularyMismatch("target and drafter must share one vocabulary")
    if verifier not in VERIFIER_KINDS:
        raise ConfigError(f"unknown verifier kind: {verifier!r}")
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    eos = target.vocabulary.eos_id
    seed_list = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    rng = np.random.default_rng(seed_list)

    def play(prefix: list[int]) -> tuple[RoundRecord, list[int], bool]:
        """Draft and verify one round after ``prefix``: its record, the tokens
        it commits (cut before ``<eos>``), and whether ``<eos>`` ended the episode."""
        proposal = policy.propose(drafter, prefix)
        if eos in proposal.tokens:
            proposal = proposal.head(proposal.tokens.index(eos) + 1)
        if verifier == VERIFIER_GREEDY:
            result = verify_greedy(target, prefix, proposal)
        else:
            result = verify_stochastic(target, prefix, proposal, rng)
        record = RoundRecord(  # fields in order; keywords would cost a third more per round
            len(proposal.tokens),
            result.accepted_len,
            proposal.forward_passes,
            result.replacement_kind,
            list(proposal.tokens),
            result.replacement,
            list(proposal.confidences),
            cost.draft_latency(proposal.forward_passes),
            cost.verify_latency(len(proposal.tokens) + 1),
        )
        committed = proposal.tokens[: result.accepted_len] + [result.replacement]
        if eos in committed:
            return record, committed[: committed.index(eos)], True
        return record, committed, False

    if verifier != VERIFIER_GREEDY:
        memo = None
    widest = max(target, drafter.backbone, key=lambda model: model.order)
    prompt = list(prompt)
    output: list[int] = []
    rounds: list[RoundRecord] = []
    done = False
    while not done and len(output) < max_tokens:
        prefix = prompt + output
        if memo is None:
            played = play(prefix)
        else:
            key = widest.window(prefix)
            played = memo.get(key)
            if played is None:
                played = memo[key] = play(prefix)
        record, committed, done = played
        rounds.append(record)
        output.extend(committed)
        if len(output) >= max_tokens:
            del output[max_tokens:]
            done = True
    draft_total = math.fsum(r.draft_latency for r in rounds)
    verify_total = math.fsum(r.verify_latency for r in rounds)
    total = draft_total + verify_total
    vanilla = len(output) * cost.decode
    return Transcript(
        config=dict(config_snapshot or {}),
        seed=seed_list,
        prompt=prompt,
        vocab=list(target.vocabulary.tokens),
        rounds=rounds,
        output=output,
        draft_latency=draft_total,
        verify_latency=verify_total,
        total_latency=total,
        vanilla_latency=vanilla,
        speedup=vanilla / total if total > 0 else 0.0,
    )


@dataclass(frozen=True)
class SweepCase:
    """One grid cell of a sweep: a fully materialized runnable setup."""

    label: str
    target: NGramModel
    drafter: DiffusionDrafter
    policy: Policy
    cost: CostModel = field(default_factory=CostModel)
    verifier: str = VERIFIER_GREEDY
    max_tokens: int = 256
    seed: int = 0
    config_snapshot: dict = field(default_factory=dict)


def run_workload(case: SweepCase, prompts: Sequence[Sequence[int]]) -> list[Transcript]:
    """Run every prompt through one case; prompt ``i`` uses seed (case.seed, i).

    Every episode gets the same fresh ``memo`` dict, so under greedy
    verification a round is drafted and verified once per distinct window
    in the call, and transcripts share its ``RoundRecord``; the transcripts
    equal those of ``run_episode`` called without a memo.

    ``run_episode`` is looked up by its module name on every call and gets
    ``seed``, ``config_snapshot`` and ``memo`` as keywords, so a caller can
    patch ``engine.run_episode`` to time or trace each episode and read the
    first two; a wrapper must pass ``memo`` on unchanged.
    """
    if not prompts:
        raise EmptyWorkload("no prompts to run")
    memo: dict = {}
    return [
        run_episode(
            case.target,
            case.drafter,
            case.policy,
            case.cost,
            prompt,
            case.max_tokens,
            verifier=case.verifier,
            seed=[case.seed, i],
            config_snapshot=case.config_snapshot,
            memo=memo,
        )
        for i, prompt in enumerate(prompts)
    ]


def sweep(
    cases: Sequence[SweepCase],
    prompts: Sequence[Sequence[int]],
    jobs: int = 1,
) -> list[tuple[SweepCase, list[Transcript]]]:
    """Run every case over every prompt, in this process and in case order.

    ``jobs`` is accepted and ignored: sweeps run in one process, so cases
    that share a drafter share its block cache. The parameter stays only
    because the benchmark suite still passes it.
    """
    if not cases:
        raise EmptyWorkload("no sweep cases")
    return [(case, run_workload(case, prompts)) for case in cases]

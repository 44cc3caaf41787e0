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
import numbers
import os
from dataclasses import dataclass, field
from typing import Sequence

from .drafter import DiffusionDrafter, DraftProposal
from .errors import ConfigError, EmptyWorkload, IoError, SchemaVersionMismatch, VocabularyMismatch
from .ngram import NGramModel
from .policies import Policy
from .verifier import verify_greedy, verify_stochastic

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
        for name, value in self.to_dict().items():
            optional = name in ("verify_excess_cost", "decode_pass_cost")
            whole = name == "verify_token_cutoff"
            number = isinstance(value, numbers.Integral if whole else numbers.Real)
            if not (number and not isinstance(value, bool) or (optional and value is None)):
                noun = "an integer" if whole else "a number"
                raise ConfigError(f"cost {name} must be {noun}, got {value!r}")
        if self.draft_pass_cost < 0 or self.verify_round_cost <= 0:
            raise ConfigError("pass costs must be positive")
        if self.verify_token_cutoff < 1:
            raise ConfigError(f"verify cutoff must be >= 1, got {self.verify_token_cutoff}")
        if self.verify_excess_cost is not None and self.verify_excess_cost < 0:
            raise ConfigError("excess cost must be >= 0")
        if self.decode_pass_cost is not None and self.decode_pass_cost <= 0:
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

    def to_dict(self) -> dict:
        return {
            "draft_pass_cost": self.draft_pass_cost,
            "verify_round_cost": self.verify_round_cost,
            "verify_token_cutoff": self.verify_token_cutoff,
            "verify_excess_cost": self.verify_excess_cost,
            "decode_pass_cost": self.decode_pass_cost,
        }


@dataclass(frozen=True)
class RoundRecord:
    """Everything one propose-verify round contributed to the episode."""

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

    @classmethod
    def from_dict(cls, obj: dict) -> "RoundRecord":
        return cls(
            proposed_len=int(obj["proposed_len"]),
            accepted_len=int(obj["accepted_len"]),
            drafter_passes=int(obj["drafter_passes"]),
            replacement_kind=str(obj["replacement_kind"]),
            proposed_tokens=[int(t) for t in obj["proposed_tokens"]],
            replacement_token=int(obj["replacement_token"]),
            confidences=[float(c) for c in obj["confidences"]],
            draft_latency=float(obj["draft_latency"]),
            verify_latency=float(obj["verify_latency"]),
        )


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
        if version != TRANSCRIPT_SCHEMA_VERSION:
            raise SchemaVersionMismatch(
                f"transcript schema_version {version!r} unsupported "
                f"(expected {TRANSCRIPT_SCHEMA_VERSION})"
            )
        try:
            return cls(
                config=dict(obj["config"]),
                seed=[int(s) for s in obj["seed"]],
                prompt=[int(t) for t in obj["prompt"]],
                vocab=[str(t) for t in obj["vocab"]],
                rounds=[RoundRecord.from_dict(r) for r in obj["rounds"]],
                output=[int(t) for t in obj["output"]],
                draft_latency=float(obj["draft_latency"]),
                verify_latency=float(obj["verify_latency"]),
                total_latency=float(obj["total_latency"]),
                vanilla_latency=float(obj["vanilla_latency"]),
                speedup=float(obj["speedup"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IoError(f"transcript is malformed: {exc!r}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | os.PathLike[str]) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
                fh.write("\n")
        except OSError as exc:
            raise IoError(f"cannot write transcript {path}: {exc}") from exc

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Transcript":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read transcript {path}: {exc}") from exc
        try:
            return cls.from_json(text)
        except json.JSONDecodeError as exc:
            raise IoError(f"transcript {path} is not valid JSON: {exc}") from exc
        except IoError as exc:
            raise IoError(f"{path}: {exc}") from exc


def _truncate_at_eos(proposal: DraftProposal, eos: int) -> DraftProposal:
    """Cut a proposal just after its first ``<eos>``; passes stay charged."""
    if eos not in proposal.tokens:
        return proposal
    stop = proposal.tokens.index(eos) + 1
    return DraftProposal(
        proposal.tokens[:stop],
        proposal.confidences[:stop],
        proposal.distributions[:stop],
        proposal.forward_passes,
    )


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
) -> Transcript:
    """Run one propose-verify episode and return its transcript.

    Decoding stops once ``max_tokens`` output tokens are committed or the
    target emits ``<eos>`` (the marker itself never appears in the output).
    Bonus and correction tokens ride along with the verify round at zero
    extra latency.
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
    prompt = list(prompt)
    output: list[int] = []
    rounds: list[RoundRecord] = []
    done = False
    while not done and len(output) < max_tokens:
        prefix = prompt + output
        proposal = _truncate_at_eos(policy.propose(drafter, prefix), eos)
        if verifier == VERIFIER_GREEDY:
            result = verify_greedy(target, prefix, proposal)
        else:
            result = verify_stochastic(target, prefix, proposal, rng)
        committed = proposal.tokens[: result.accepted_len] + [result.replacement]
        rounds.append(
            RoundRecord(
                proposed_len=len(proposal.tokens),
                accepted_len=result.accepted_len,
                drafter_passes=proposal.forward_passes,
                replacement_kind=result.replacement_kind,
                proposed_tokens=list(proposal.tokens),
                replacement_token=result.replacement,
                confidences=list(proposal.confidences),
                draft_latency=cost.draft_latency(proposal.forward_passes),
                verify_latency=cost.verify_latency(len(proposal.tokens) + 1),
            )
        )
        if eos in committed:
            committed = committed[: committed.index(eos)]
            done = True
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

    ``run_episode`` is looked up by its module name on every call and gets
    ``seed`` and ``config_snapshot`` as keywords, so a caller can patch
    ``engine.run_episode`` to time or trace each episode and read both.
    """
    if not prompts:
        raise EmptyWorkload("no prompts to run")
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

"""The propose-verify loop, its latency accounting, and transcripts.

Latency is simulated, not measured, in one unit: one verification round
while the scored positions fit inside the batch cutoff (the memory-bound
regime). A drafter pass costs a fraction of it, and a round past the cutoff
picks up a per-position surcharge (the compute-bound regime). Vanilla
decoding is priced at one unit per output token, which makes the reported
speedup a pure function of the transcript.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NoReturn, Sequence

from .drafter import DiffusionDrafter
from .errors import ConfigError, IoError, check_number
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
    """Latency constants in units of one verification round (one target
    forward pass), which is also the cost of one vanilla decoding step.

    Attributes:
        draft_pass_cost: cost of one drafter forward pass; ``theory``'s
            ``cost_ratio``.
        verify_token_cutoff: scored positions (draft length + 1) a verify
            round absorbs at no extra charge; each position beyond it adds
            ``1 / verify_token_cutoff`` (the round is compute-bound).
    """

    draft_pass_cost: float = 0.05
    verify_token_cutoff: int = 64

    def __post_init__(self) -> None:
        check_number(self.draft_pass_cost, float, "cost draft_pass_cost", at_least=0)
        check_number(self.verify_token_cutoff, int, "cost verify_token_cutoff", at_least=1)
        check_number(self.verify_token_cutoff, float, "cost verify_token_cutoff")  # verify_latency divides by it

    def draft_latency(self, passes: int) -> float:
        return passes * self.draft_pass_cost

    def verify_latency(self, scored_positions: int) -> float:
        """Cost of one verify round scoring ``scored_positions`` = L + 1 slots."""
        extra = max(0, scored_positions - self.verify_token_cutoff)
        return 1.0 + extra * (1.0 / self.verify_token_cutoff)

    def check_episode(self, max_tokens: int, draft_len: int, passes: int) -> None:
        """Raise ``ConfigError`` unless an episode's latencies stay finite when
        each of its rounds drafts ``draft_len`` tokens in ``passes`` passes.
        A round commits at least one token, so an episode has at most
        ``max_tokens`` rounds; a transcript holding ``inf`` cannot be saved,
        so a run with such costs would fail only after playing every episode.
        The speedup is at most the output length, so it is always finite."""
        try:
            latency = max_tokens * (self.draft_latency(passes) + self.verify_latency(draft_len + 1))
            finite = math.isfinite(latency)
        except OverflowError:  # an integer past the float range
            finite = False
        if not finite:
            raise ConfigError(
                f"costs overflow: {max_tokens} rounds of {draft_len} drafted tokens in "
                f"{passes} drafter passes need a latency past the float range"
            )


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
# Compact JSON by the C encoder, built once rather than by every ``json.dumps``
# call; a non-finite number raises ``ValueError``: JSON has none.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


# The instance attribute that holds a shared record's JSON text (None until
# its first encoding). It is no dataclass field, so equality, ``repr`` and
# ``_ROUND_FIELDS`` never see it.
_TEXT = "_json_text"


@dataclass(frozen=True)
class RoundRecord:
    """Everything one propose-verify round contributed to the episode.

    Under greedy verification ``run_workload`` hands one record to every
    transcript of the call whose round starts at the same window, and
    ``report.load_transcripts`` hands one to every transcript whose file
    holds the same round text, lists included; so a record is read-only:
    copy it to change it. Both memos mark each record they share with
    ``share``, and ``Transcript.to_json`` then encodes it once per process
    and keeps the text. Other records keep no text: a stochastic round never
    recurs.
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

    def share(self) -> None:
        """Mark the record as handed to many transcripts, so that its JSON
        text is kept after its first encoding."""
        object.__setattr__(self, _TEXT, None)

    def shared_json(self) -> str:
        """``to_dict`` as compact JSON, encoded on the first call only; for a
        record marked by ``share``. A failed encoding raises and keeps nothing."""
        text = self.__dict__[_TEXT]
        if text is None:
            text = _ENCODER.encode(self.to_dict())
            object.__setattr__(self, _TEXT, text)
        return text


_ROUND_FIELDS = tuple(f.name for f in fields(RoundRecord))


def _round_columns(rounds: list) -> dict[str, list]:
    """The loaded round objects as one checked column per ``RoundRecord``
    field, in field order: each value has its field's type, each round is
    one that verification could have produced (``bonus`` exactly when the
    whole draft was accepted), no token id is negative, a draft of no passes
    costs nothing and every verify round costs at least one unit."""
    try:
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
        if 0 in columns["drafter_passes"]:  # a draft costs passes x draft_pass_cost
            for passes, draft in zip(columns["drafter_passes"], columns["draft_latency"]):
                if passes == 0 and draft != 0.0:
                    raise IoError(
                        f"transcript is malformed: a round has draft_latency {draft} and drafter_passes 0"
                    )
        # min() can pass over a NaN; the totals check sums it and catches it.
        for name, floor in (("draft_latency", 0.0), ("verify_latency", 1.0)):
            if not min(columns[name], default=floor) >= floor:
                raise IoError(f"transcript is malformed: a round has {name} {min(columns[name])}")
        ids = chain(columns["replacement_token"], chain.from_iterable(columns["proposed_tokens"]))
        if not min(ids, default=0) >= 0:
            raise IoError("transcript is malformed: a token id lies outside the vocabulary")
    except (KeyError, OverflowError) as exc:  # a missing field; an integer no float holds
        raise IoError(f"transcript is malformed: {exc!r}") from exc
    return columns


def _records(columns: dict[str, list]) -> list[RoundRecord]:
    """One record per round of ``_round_columns``' columns."""
    return [RoundRecord(*r) for r in zip(*columns.values())]


def _commits(columns: dict[str, list]) -> list[list[int]]:
    """The tokens each round commits: ``proposed_tokens[:accepted_len] + [replacement_token]``."""
    return [
        tokens[:accepted] + [replacement]
        for tokens, accepted, replacement in zip(
            columns["proposed_tokens"], columns["accepted_len"], columns["replacement_token"]
        )
    ]


def _checked_rounds(rounds: list) -> tuple[list[RoundRecord], list[list[int]], list[int]]:
    """Each round object checked alone by ``_round_columns``: its record, the
    tokens it commits and its largest token id."""
    columns = _round_columns(rounds)
    tops = [
        max(tokens + [replacement])
        for tokens, replacement in zip(columns["proposed_tokens"], columns["replacement_token"])
    ]
    return _records(columns), _commits(columns), tops


def _check_output(output: list[int], commits: Sequence[list[int]], eos: int) -> None:
    """``output`` must be what the rounds commit, each ``proposed_tokens[:accepted_len]
    + [replacement_token]`` as listed in ``commits``, cut at the first ``<eos>``;
    or a prefix of that which ends inside the last round, where ``max_tokens``
    cut it. The round that commits ``<eos>`` ends the episode, so it must be
    the last."""
    flat = list(chain.from_iterable(commits))
    before_last = len(flat) - len(commits[-1])
    if eos in flat:
        end = flat.index(eos)
        if end < before_last:
            raise IoError("transcript is malformed: a round follows the round that committed <eos>")
        del flat[end:]
    n = len(output)
    if output != flat[:n] or not (n == len(flat) or n > before_last):
        raise IoError("transcript is malformed: output is not what the rounds commit")


# The five stored totals ``Transcript.of`` derives, each with what it must equal.
_TOTALS = (
    ("draft_latency", "the rounds' sum"),
    ("verify_latency", "the rounds' sum"),
    ("total_latency", "draft_latency + verify_latency, or not finite"),
    ("vanilla_latency", "the output length"),
    ("speedup", "vanilla_latency / total_latency"),
)


def _check_header(obj: object) -> None:
    """Refuse a transcript that is no object, of another schema version, or
    whose config is no object."""
    if not isinstance(obj, dict):
        raise IoError(f"transcript is malformed: expected an object, got {type(obj).__name__}")
    version = obj.get("schema_version")
    if type(version) is not int or version != TRANSCRIPT_SCHEMA_VERSION:
        raise ConfigError(
            f"transcript schema_version {version!r} unsupported "
            f"(expected {TRANSCRIPT_SCHEMA_VERSION})"
        )
    config = obj.get("config", {})  # a missing config fails with the other missing fields
    if type(config) is not dict:
        raise IoError(f"transcript is malformed: config must be an object, got {config!r}")


def _walk(text: str, memo: dict) -> tuple[dict, dict[str, dict]] | None:
    """The top-level object of a compact transcript ``text``, as ``_DECODER``
    decodes it but for ``rounds``, which holds the text of each round object,
    and the map from each such text that ``memo`` lacks to the object it
    decodes to.

    None when the walk cannot follow ``text``: it is not compact, not JSON,
    not an object, repeats a key, holds no ``rounds`` or holds them before
    ``config``, or holds a config or a round that is no object. None also when
    ``text`` holds a number JSON has not, or when its config says its
    verifier is stochastic: stochastic rounds never recur. The caller then
    decodes ``text`` whole, which gives each result and error.
    """
    obj: dict = {}
    fresh = None
    try:
        if text[0] != "{":
            return None
        i, sep = 0, ","
        while sep == ",":
            key, i = _DECODER.scan_once(text, i + 1)
            if type(key) is not str or key in obj or text[i] != ":":
                return None
            if key == "rounds":
                if "config" not in obj:
                    return None
                fresh = {}
                walked = _round_texts(text, i + 1, memo, fresh)
                if walked is None:
                    return None
                obj[key], i = walked
            else:
                value, i = _DECODER.scan_once(text, i + 1)
                if key == "config" and (type(value) is not dict or value.get("verifier") == VERIFIER_STOCHASTIC):
                    return None
                obj[key] = value
            sep = text[i]
    except (StopIteration, IndexError, ValueError, IoError):
        return None
    # After the object, only JSON's whitespace.
    if sep != "}" or text[i + 1:].strip(" \t\n\r") or fresh is None:
        return None
    return obj, fresh


def _round_texts(text: str, i: int, memo: dict, fresh: dict[str, dict]) -> tuple[list[str], int] | None:
    """The text of each round object in the compact array at ``text[i]``,
    and the index past the array. A round object holds no object, so its
    text ends at its first ``}``. Each text that neither ``memo`` nor
    ``fresh`` holds goes into ``fresh`` with the object it decodes to; None
    when one decodes to no object or ends elsewhere."""
    if text[i] != "[":
        return None
    pieces: list[str] = []
    if text[i + 1] == "]":
        return pieces, i + 2
    sep = ","
    while sep == ",":
        start = i + 1
        i = text.index("}", start) + 1
        piece = text[start:i]
        if piece not in memo and piece not in fresh:
            value, end = _DECODER.scan_once(text, start)
            if end != i or type(value) is not dict:
                return None
            fresh[piece] = value
        pieces.append(piece)
        sep = text[i]
    if sep != "]":
        return None
    return pieces, i + 1


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

    @classmethod
    def of(
        cls,
        config: dict,
        seed: list[int],
        prompt: list[int],
        vocab: list[str],
        rounds: list[RoundRecord],
        output: list[int],
    ) -> "Transcript":
        """The transcript of ``rounds`` that commit ``output``, its totals
        derived from them: vanilla decoding costs one unit per output token,
        and the speedup is 0.0 when the rounds cost nothing."""
        draft = math.fsum(r.draft_latency for r in rounds)
        verify = math.fsum(r.verify_latency for r in rounds)
        total = draft + verify
        vanilla = float(len(output))
        return cls(
            config, seed, prompt, vocab, rounds, output,
            draft, verify, total, vanilla, vanilla / total if total > 0 else 0.0,
        )

    def to_dict(self) -> dict:
        return self._as_dict([r.to_dict() for r in self.rounds])

    def _as_dict(self, rounds: list) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "seed": self.seed,
            "prompt": self.prompt,
            "vocab": self.vocab,
            "rounds": rounds,
            "output": self.output,
            "draft_latency": self.draft_latency,
            "verify_latency": self.verify_latency,
            "total_latency": self.total_latency,
            "vanilla_latency": self.vanilla_latency,
            "speedup": self.speedup,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Transcript":
        _check_header(obj)
        try:
            rounds = obj["rounds"]
        except KeyError as exc:
            raise IoError(f"transcript is malformed: {exc!r}") from exc
        return cls._of_checked(obj, *_checked_rounds(_list_of(dict, rounds, "rounds")))

    @classmethod
    def _of_checked(
        cls, obj: dict, records: Sequence[RoundRecord], commits: Sequence[list[int]], tops: Sequence[int]
    ) -> "Transcript":
        """The transcript ``obj`` holds, whose header passed ``_check_header``
        and whose rounds ``_checked_rounds`` checked alone: ``records``, what
        each commits and the largest token id of each. Checks the transcript
        as a whole, over all of its rounds: the token ids against its own
        vocabulary, the output the rounds commit and the five totals."""
        try:
            t = cls.of(
                obj["config"],
                _list_of(int, obj["seed"], "seed"),
                _list_of(int, obj["prompt"], "prompt"),
                _list_of(str, obj["vocab"], "vocab"),
                list(records),
                _list_of(int, obj["output"], "output"),
            )
            for name, relation in _TOTALS:  # bit for bit
                stored = _number(float, obj[name], name)
                if stored != getattr(t, name):
                    raise IoError(f"transcript is malformed: {name} {stored} is not {relation}")
            # The stored total equals this one; a dict, unlike JSON, can hold an infinity.
            if not math.isfinite(t.total_latency):
                raise IoError(
                    f"transcript is malformed: total_latency {t.total_latency} is not "
                    "draft_latency + verify_latency, or not finite"
                )
        except (KeyError, OverflowError) as exc:
            raise IoError(f"transcript is malformed: {exc!r}") from exc
        # _round_columns saw no round token id below 0.
        ids = (t.prompt, t.output)
        if max(tops, default=-1) >= len(t.vocab) or not all(
            0 <= min(x) and max(x) < len(t.vocab) for x in ids if x
        ):
            raise IoError("transcript is malformed: a token id lies outside the vocabulary")
        if t.rounds:
            _check_output(t.output, commits, eos=len(t.vocab) - 1)
        return t

    def to_json(self) -> str:
        """``to_dict`` as compact JSON, written by the C encoder; ``from_json``
        reads any layout. A non-finite number raises ``ValueError``: JSON has
        none.

        The rounds are spliced into the encoding of the other fields. When
        every round is a record the greedy memo shares, they are the records'
        kept texts, so each shared record is encoded once per process;
        otherwise they are one encoding of every round, which is faster than
        a call per round, and no text is kept.
        """
        if all(_TEXT in r.__dict__ for r in self.rounds):
            rounds = f"[{','.join([r.shared_json() for r in self.rounds])}]"
        else:
            rounds = _ENCODER.encode([r.to_dict() for r in self.rounds])
        text = _ENCODER.encode(self._as_dict([]))
        # JSON escapes every quote inside a string, so this text is the key
        # itself; the fields after it hold no object, so the last one is ours.
        cut = text.rindex('"rounds":[]') + len('"rounds":')
        return "".join((text[:cut], rounds, text[cut + len("[]"):]))

    @classmethod
    def from_json(cls, text: str, memo: dict | None = None) -> "Transcript":
        """Parse ``text``; equal float texts share one float object across
        every transcript loaded in the process.

        ``memo`` is a dict shared by the loads of one batch of files
        (``report.load_transcripts`` passes one per call). It maps the text
        of each round object that a compact file holds to its record,
        checked alone, so loads that meet the same text share one read-only
        ``RoundRecord`` and decode and check it once; every transcript is
        still checked as a whole, its shared rounds included. A transcript
        whose config says its verifier is stochastic, or text in another
        layout, loads as without a memo and leaves the memo as it was. The
        result and any error are the same as without a memo. Without one,
        ``text`` is decoded in one call, which is faster than the walk when
        only one file's repeats would be shared.
        """
        walked = None if memo is None else _walk(text, memo)
        if walked is None:
            return cls.from_dict(_DECODER.decode(text))
        obj, fresh = walked
        _check_header(obj)
        checked = _checked_rounds(list(fresh.values()))
        for record in checked[0]:
            record.share()
        memo.update(zip(fresh, zip(*checked)))
        rounds = list(map(memo.__getitem__, obj["rounds"]))
        return cls._of_checked(obj, *(zip(*rounds) if rounds else ((), (), ())))

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
    def load(cls, path: str | os.PathLike[str], memo: dict | None = None) -> "Transcript":
        """``from_json`` of the file at ``path``, with ``memo``; every error
        names the file. The records of loads that share a memo are shared and
        read-only, as ``run_workload``'s are."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read(), memo)
        except OSError as exc:
            raise IoError(f"cannot read transcript {path}: {exc}") from exc
        except ValueError as exc:  # also text that is not UTF-8, or an integer past Python's digit limit
            raise IoError(f"transcript {path} is not valid JSON: {exc}") from exc
        except IoError as exc:
            raise IoError(f"{path}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


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
        raise ConfigError("target and drafter must share one vocabulary")
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
        drafted = len(proposal.tokens)
        record = RoundRecord(  # fields in order; keywords would cost a third more per round
            drafted,
            result.accepted_len,
            proposal.forward_passes,
            BONUS if result.accepted_len == drafted else CORRECTION,
            list(proposal.tokens),
            result.replacement,
            list(proposal.confidences),
            cost.draft_latency(proposal.forward_passes),
            cost.verify_latency(drafted + 1),
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
                played[0].share()
        record, committed, done = played
        rounds.append(record)
        output.extend(committed)
        if len(output) >= max_tokens:
            del output[max_tokens:]
            done = True
    return Transcript.of(
        dict(config_snapshot or {}), seed_list, prompt, list(target.vocabulary.tokens), rounds, output
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
        raise ConfigError("no prompts to run")
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
        raise ConfigError("no sweep cases")
    return [(case, run_workload(case, prompts)) for case in cases]

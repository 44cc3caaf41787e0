"""Propose-verify loop, latency accounting, and transcript persistence.

The two closed-form episodes used here bracket the speedup range:

* worst case — a drafter trained on an unrelated stream proposes a token the
  target never wants, so every round commits exactly one correction and
  speculation costs the full drafting overhead: speedup = 1/1.05;
* best case — drafter and target are the same model, so every proposal is
  fully accepted plus a bonus and n+1 tokens arrive per round.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from speclab.drafter import ONE_STEP, DiffusionDrafter
from speclab.engine import (
    CostModel,
    RoundRecord,
    SweepCase,
    Transcript,
    run_episode,
    run_workload,
    sweep,
)
from speclab.errors import (
    ConfigError,
    EmptyWorkload,
    IoError,
    SchemaVersionMismatch,
    VocabularyMismatch,
)
from speclab.ngram import build_vocab, train_ngram
from speclab.policies import FailFast, FixedAR, FixedDLLM, Policy
from speclab.tokenizers import tokenize
from speclab.verifier import vanilla_decode


@pytest.fixture(scope="module")
def adversarial():
    """Target follows the abc cycle; drafter only ever wants z."""
    abc = list("abc" * 5)
    zs = list("z" * 50)
    vocab = build_vocab([abc, zs])
    target = train_ngram([abc], order=2, smoothing=0.0, vocabulary=vocab)
    drafter = DiffusionDrafter(train_ngram([zs], order=2, smoothing=0.0, vocabulary=vocab))
    return target, drafter


@pytest.fixture(scope="module")
def self_drafting():
    model = train_ngram([list("a" * 100)], order=2, smoothing=0.0)
    return model, DiffusionDrafter(model)


class TestCostModel:
    def test_defaults(self):
        cost = CostModel()
        assert cost.draft_latency(3) == pytest.approx(0.15)
        assert cost.verify_latency(64) == 1.0
        assert cost.verify_latency(65) == 1.0 + 1.0 / 64
        assert cost.excess == 1.0 / 64
        assert cost.decode == 1.0

    def test_explicit_excess_and_decode(self):
        cost = CostModel(verify_excess_cost=0.1, decode_pass_cost=2.0)
        assert cost.verify_latency(66) == pytest.approx(1.2)
        assert cost.decode == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"draft_pass_cost": -0.1},
            {"verify_round_cost": 0.0},
            {"verify_token_cutoff": 0},
            {"verify_excess_cost": -1.0},
            {"decode_pass_cost": 0.0},
            {"draft_pass_cost": "x"},
            {"verify_token_cutoff": None},
            {"draft_pass_cost": True},
            {"verify_token_cutoff": 64.5},
            {"draft_pass_cost": float("nan")},
            {"draft_pass_cost": float("inf")},
            {"draft_pass_cost": float("-inf")},
            {"verify_round_cost": float("nan")},
            {"verify_round_cost": float("inf")},
            {"verify_round_cost": float("-inf")},
            {"verify_excess_cost": float("nan")},
            {"verify_excess_cost": float("inf")},
            {"verify_excess_cost": float("-inf")},
            {"decode_pass_cost": float("nan")},
            {"decode_pass_cost": float("inf")},
            {"decode_pass_cost": float("-inf")},
            {"draft_pass_cost": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            CostModel(**kwargs)


class TestWorstCaseEpisode:
    def test_every_round_is_a_correction(self, adversarial):
        target, drafter = adversarial
        prompt = target.vocabulary.encode("a")
        t = run_episode(target, drafter, FixedAR(1), CostModel(), prompt, 30)
        assert len(t.rounds) == 30
        assert all(r.accepted_len == 0 for r in t.rounds)
        assert all(r.replacement_kind == "correction" for r in t.rounds)
        assert t.output == vanilla_decode(target, prompt, 30)

    def test_speedup_is_exactly_one_over_one_point_oh_five(self, adversarial):
        target, drafter = adversarial
        prompt = target.vocabulary.encode("a")
        t = run_episode(target, drafter, FixedAR(1), CostModel(), prompt, 30)
        assert t.draft_latency == pytest.approx(30 * 0.05, abs=1e-12)
        assert t.verify_latency == pytest.approx(30.0, abs=1e-12)
        assert t.vanilla_latency == pytest.approx(30.0, abs=1e-12)
        assert t.speedup == pytest.approx(1 / 1.05, abs=1e-12)


class TestBestCaseEpisode:
    def test_full_acceptance_with_bonus(self, self_drafting):
        target, drafter = self_drafting
        prompt = [target.vocabulary.id_of("a")]
        t = run_episode(target, drafter, FixedDLLM(7, mode=ONE_STEP), CostModel(), prompt, 30)
        # 8 tokens per round (7 accepted + bonus): rounds at 8, 16, 24, 32 -> 4.
        assert len(t.rounds) == 4
        assert all(r.replacement_kind == "bonus" for r in t.rounds)
        assert all(r.accepted_len == 7 for r in t.rounds)
        assert len(t.output) == 30  # capped, not 32
        assert t.total_latency == pytest.approx(4 * 1.05, abs=1e-12)
        assert t.speedup == pytest.approx(30 / 4.2, abs=1e-12)

    def test_long_draft_pays_the_compute_bound_surcharge(self, self_drafting):
        target, drafter = self_drafting
        prompt = [target.vocabulary.id_of("a")]
        t = run_episode(target, drafter, FixedDLLM(70, mode=ONE_STEP), CostModel(), prompt, 10)
        assert len(t.rounds) == 1
        # 70 drafted + 1 bonus = 71 scored positions, 7 past the cutoff of 64.
        assert t.rounds[0].verify_latency == pytest.approx(1.0 + 7.0 / 64, abs=1e-15)
        assert t.rounds[0].drafter_passes == 9
        assert len(t.output) == 10


class TestEpisodeTermination:
    def test_eos_never_reaches_the_output(self):
        model = train_ngram([list("ab")], order=2, smoothing=0.0)
        drafter = DiffusionDrafter(model)
        prompt = model.vocabulary.encode("a")
        t = run_episode(model, drafter, FixedAR(2), CostModel(), prompt, 50)
        assert t.output == model.vocabulary.encode("b")
        assert model.vocabulary.eos_id not in t.output
        assert t.output == vanilla_decode(model, prompt, 50)

    def test_invalid_arguments(self, self_drafting):
        target, drafter = self_drafting
        with pytest.raises(ConfigError):
            run_episode(target, drafter, FixedAR(1), CostModel(), [0], 0)
        with pytest.raises(ConfigError):
            run_episode(target, drafter, FixedAR(1), CostModel(), [0], 5, verifier="median")

    def test_vocabulary_mismatch(self, self_drafting):
        target, _ = self_drafting
        other = DiffusionDrafter(train_ngram([list("xy")], order=2, smoothing=0.1))
        with pytest.raises(VocabularyMismatch):
            run_episode(target, other, FixedAR(1), CostModel(), [0], 5)


class TestTranscriptPersistence:
    def test_json_round_trip_is_lossless(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=31)[0]
        t = run_episode(
            mixed_lab.target, mixed_lab.drafter, FixedDLLM(8), CostModel(), prompt, 40,
            config_snapshot={"label": "round-trip"},
        )
        back = Transcript.from_json(t.to_json())
        assert back == t
        assert back.to_json() == t.to_json()

    def test_save_and_load(self, mixed_lab, tmp_path):
        prompt = mixed_lab.prompts(1, seed=32)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FixedAR(4), CostModel(), prompt, 24)
        path = tmp_path / "episode.json"
        t.save(path)
        assert Transcript.load(path) == t

    def test_schema_version_is_checked(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=33)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FixedAR(4), CostModel(), prompt, 8)
        stale = t.to_dict()
        # An integer field takes no bool or float, and neither does the version.
        for version in (99, True, 1.0):
            stale["schema_version"] = version
            with pytest.raises(SchemaVersionMismatch):
                Transcript.from_dict(stale)

    def test_compact_json_loads_like_the_indented_file(self, mixed_lab, tmp_path):
        # Transcripts written before the compact layout are indented.
        prompt = mixed_lab.prompts(1, seed=34)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FailFast(), CostModel(), prompt, 40)
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(t.to_dict(), indent=1) + "\n", encoding="utf-8")
        t.save(tmp_path / "compact.json")
        assert Transcript.load(indented) == Transcript.load(tmp_path / "compact.json") == t

    def test_unreadable_and_corrupt_files(self, tmp_path):
        with pytest.raises(IoError):
            Transcript.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(IoError):
            Transcript.load(bad)

    def test_malformed_payloads(self, mixed_lab, tmp_path):
        prompt = mixed_lab.prompts(1, seed=33)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FixedAR(4), CostModel(), prompt, 8)
        no_rounds = t.to_dict()
        del no_rounds["rounds"]
        commits = [x for r in t.rounds for x in r.proposed_tokens[: r.accepted_len] + [r.replacement_token]]

        def with_round(**fields):
            payload = json.loads(t.to_json())
            payload["rounds"][0].update(fields)
            return payload

        def with_top(**fields):
            payload = json.loads(t.to_json())
            payload.update(fields)
            return payload

        payloads = [
            no_rounds,
            with_round(accepted_len="many"),
            # Values a lenient loader would coerce must be rejected instead.
            with_round(proposed_len=3.7),
            with_round(proposed_len=True),
            with_round(accepted_len="2"),
            with_round(replacement_kind=5),
            with_round(replacement_kind="guess"),
            with_round(draft_latency="1e3"),
            with_round(draft_latency=True),
            with_round(confidences=[0.5, "0.5"]),
            with_top(output=[1.5]),
            with_top(seed=[True]),
            with_top(speedup="2"),
            with_top(config=[["a", 1]]),
            with_top(vocab=[1, 2]),
            # Token ids must index the transcript's own vocabulary.
            with_top(prompt=[len(t.vocab)]),
            with_top(output=[-1]),
            with_round(replacement_token=len(t.vocab)),
            with_round(proposed_tokens=[0, -1]),
            # Each round must be one that verification could have produced.
            with_round(accepted_len=40, proposed_len=-3),
            with_round(accepted_len=-1),
            with_round(accepted_len=t.rounds[0].proposed_len + 1),
            with_round(proposed_len=t.rounds[0].proposed_len + 1),
            with_round(proposed_tokens=t.rounds[0].proposed_tokens + [0]),
            with_round(confidences=t.rounds[0].confidences[1:]),
            with_round(drafter_passes=-1),
            # The output must be what the rounds commit.
            with_top(output=[0 if t.output[0] else 1] + t.output[1:]),
            with_top(output=commits + [commits[0]]),
            with_top(rounds={}),
            [t.to_dict()],
            "text",
        ]
        for payload in payloads:
            path = tmp_path / "malformed.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            with pytest.raises(IoError, match="malformed"):
                Transcript.load(path)
        # json.loads refuses integers longer than 4300 digits with a bare ValueError.
        path.write_text('{"schema_version": 1, "seed": [' + "9" * 5000 + "]}", encoding="utf-8")
        with pytest.raises(IoError, match="not valid JSON"):
            Transcript.load(path)


class TestTranscriptJson:
    """``to_json`` is the compact ``json.dumps`` of ``to_dict``."""

    @pytest.mark.parametrize(
        "change",
        [
            {"output": [1, np.int64(2)]},
            {"speedup": np.int64(2)},
            {"config": {"max_tokens": np.int64(8)}},
            {"rounds": [RoundRecord(1, 1, 1, "bonus", [np.int64(3)], 1, [0.5], 0.05, 1.0)]},
            {"rounds": [RoundRecord(np.int64(1), 1, 1, "bonus", [3], 1, [0.5], 0.05, 1.0)]},
        ],
    )
    def test_values_json_rejects_raise_and_write_nothing(self, mixed_lab, tmp_path, change):
        prompt = mixed_lab.prompts(1, seed=38)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FixedAR(2), CostModel(), prompt, 8)
        for name, value in change.items():
            setattr(t, name, value)
        with pytest.raises(TypeError):
            json.dumps(t.to_dict(), indent=1)
        with pytest.raises(TypeError):
            t.to_json()
        path = tmp_path / "rejected.json"
        with pytest.raises(TypeError):
            t.save(path)
        assert not path.exists()

    @pytest.mark.parametrize("verifier", ["greedy", "stochastic"])
    def test_every_transcript_of_a_sweep(self, mixed_lab, verifier):
        prompts = mixed_lab.prompts(4, seed=39)
        policies = [FixedAR(3), FixedDLLM(6), FixedDLLM(13, ONE_STEP), FailFast()]
        cases = [
            SweepCase(
                label=f"c{i}", target=mixed_lab.target, drafter=mixed_lab.drafter,
                policy=policy, verifier=verifier, max_tokens=64,
                config_snapshot={"label": f"c{i}", "policy": policy.label(), "grid": [i, None, 0.5]},
            )
            for i, policy in enumerate(policies)
        ]
        for _, transcripts in sweep(cases, prompts):
            for t in transcripts:
                text = t.to_json()
                assert "\n" not in text
                assert Transcript.from_json(text) == t


class TestWorkloads:
    def test_prompt_index_feeds_the_seed(self, mixed_lab):
        prompts = mixed_lab.prompts(3, seed=34)
        case = SweepCase(
            label="seeds", target=mixed_lab.target, drafter=mixed_lab.drafter,
            policy=FixedAR(4), max_tokens=16, seed=9,
        )
        transcripts = run_workload(case, prompts)
        assert [t.seed for t in transcripts] == [[9, 0], [9, 1], [9, 2]]

    def test_same_seed_means_identical_bytes(self, mixed_lab):
        prompts = mixed_lab.prompts(2, seed=35)
        case = SweepCase(
            label="det", target=mixed_lab.target, drafter=mixed_lab.drafter,
            policy=FixedDLLM(6), verifier="stochastic", max_tokens=24, seed=4,
        )
        first = [t.to_json() for t in run_workload(case, prompts)]
        second = [t.to_json() for t in run_workload(case, prompts)]
        assert first == second

    def test_empty_workloads_are_rejected(self, mixed_lab):
        case = SweepCase(
            label="x", target=mixed_lab.target, drafter=mixed_lab.drafter, policy=FixedAR(1)
        )
        with pytest.raises(EmptyWorkload):
            run_workload(case, [])
        with pytest.raises(EmptyWorkload):
            sweep([], [[0]])
        with pytest.raises(EmptyWorkload):
            sweep([case], [])

    @pytest.mark.parametrize("verifier", ["greedy", "stochastic"])
    def test_a_shared_drafter_drafts_like_fresh_ones(self, mixed_lab, verifier):
        prompts = mixed_lab.prompts(3, seed=36)
        backbone = mixed_lab.drafter.backbone
        policies = [FixedDLLM(4), FixedDLLM(8), FixedDLLM(13, ONE_STEP), FixedAR(5), FailFast()]

        def cases(drafter_for):
            return [
                SweepCase(
                    label=f"c{i}", target=mixed_lab.target, drafter=drafter_for(),
                    policy=policy, verifier=verifier, max_tokens=48,
                )
                for i, policy in enumerate(policies)
            ]

        def cold():  # a drafter over a backbone view whose caches are empty too
            return DiffusionDrafter(backbone.with_order(backbone.order, backbone.smoothing))

        shared = cold()
        swept = sweep(cases(lambda: shared), prompts)
        fresh = cases(cold)
        assert [c.label for c, _ in swept] == [c.label for c in fresh]
        for (_, got), case in zip(swept, fresh):
            assert [t.to_json() for t in got] == [t.to_json() for t in run_workload(case, prompts)]

    def test_config_snapshot_is_embedded_verbatim(self, mixed_lab):
        snapshot = {"label": "embedded", "max_tokens": 16}
        prompts = mixed_lab.prompts(1, seed=37)
        case = SweepCase(
            label="embedded", target=mixed_lab.target, drafter=mixed_lab.drafter,
            policy=FixedAR(2), max_tokens=16, config_snapshot=snapshot,
        )
        (t,) = run_workload(case, prompts)
        assert t.config == snapshot
        assert json.loads(t.to_json())["config"] == snapshot


def memo_free(case, prompts):
    """``run_workload`` without its memo: one plain ``run_episode`` per prompt."""
    return [
        run_episode(
            case.target, case.drafter, case.policy, case.cost, prompt, case.max_tokens,
            verifier=case.verifier, seed=[case.seed, i], config_snapshot=case.config_snapshot,
        )
        for i, prompt in enumerate(prompts)
    ]


def memo_prompts(lab):
    """Sampled prompts, prompts shorter than any window, document tails (on
    the iid corpus the target ends some of them at ``<eos>``), and repeats."""
    prompts = lab.prompts(10, seed=61) + lab.prompts(4, length=2, seed=62)
    prompts += [lab.target.vocabulary.encode(tokenize(doc[-12:], "char")) for doc in lab.docs[:8]]
    return prompts + prompts[:3]


def commits(t):
    """Tokens the rounds of ``t`` commit before any cut."""
    return sum(r.accepted_len + 1 for r in t.rounds)


# (target order, drafter order) as views of each lab's table; None keeps the lab's model.
ORDERS = {
    "trained": (None, None),
    "order-1": (1, 1),
    "order-1-drafter": (None, 1),
    "drafter-above-target": (2, None),
}


def models(lab, orders):
    target_order, drafter_order = ORDERS[orders]
    target = lab.target if target_order is None else lab.target.with_order(target_order, 0.1)
    if drafter_order is None:
        return target, lab.drafter
    return target, DiffusionDrafter(lab.drafter.backbone.with_order(drafter_order, 0.1))


@dataclass(frozen=True)
class CountingPolicy:
    """A policy that records the prefix of every ``propose`` call."""

    inner: Policy
    prefixes: list = field(default_factory=list)

    def propose(self, drafter, prefix):
        self.prefixes.append(list(prefix))
        return self.inner.propose(drafter, prefix)


class TestRoundMemo:
    """``run_workload`` serves repeated greedy rounds from a memo keyed by window."""

    MAX_TOKENS = 37

    @pytest.mark.parametrize("orders", ORDERS)
    @pytest.mark.parametrize("lab_name", ["mixed_lab", "iid_lab"])
    def test_workload_equals_the_memo_free_loop(self, request, lab_name, orders):
        lab = request.getfixturevalue(lab_name)
        target, drafter = models(lab, orders)
        prompts = memo_prompts(lab)
        cut = ended = False
        for policy in (FixedAR(3), FixedDLLM(6), FixedDLLM(13, ONE_STEP), FailFast()):
            case = SweepCase(
                label="memo", target=target, drafter=drafter, policy=policy,
                max_tokens=self.MAX_TOKENS, config_snapshot={"label": "memo"},
            )
            got = run_workload(case, prompts)
            assert [t.to_json() for t in got] == [t.to_json() for t in memo_free(case, prompts)]
            # Repeated prompts replay their rounds, so records are shared.
            assert len({id(r) for t in got for r in t.rounds}) < sum(len(t.rounds) for t in got)
            cut |= any(commits(t) > len(t.output) == self.MAX_TOKENS for t in got)
            ended |= any(len(t.output) < self.MAX_TOKENS for t in got)
        if orders == "trained":
            assert cut  # max_tokens cut a round in the middle
            assert ended == (lab_name == "iid_lab")  # the mixed target never predicts <eos>

    def test_a_stochastic_workload_bypasses_the_memo(self, mixed_lab):
        prompts = memo_prompts(mixed_lab)
        for inner in (FixedDLLM(6), FailFast()):
            policy = CountingPolicy(inner)
            case = SweepCase(
                label="stochastic", target=mixed_lab.target, drafter=mixed_lab.drafter,
                policy=policy, verifier="stochastic", max_tokens=self.MAX_TOKENS, seed=5,
            )
            got = run_workload(case, prompts)
            assert len(policy.prefixes) == sum(len(t.rounds) for t in got)
            assert [t.to_json() for t in got] == [t.to_json() for t in memo_free(case, prompts)]

    @pytest.mark.parametrize("orders", ["trained", "drafter-above-target"])
    @pytest.mark.parametrize("lab_name", ["mixed_lab", "iid_lab"])
    def test_each_distinct_window_is_proposed_once(self, request, lab_name, orders):
        lab = request.getfixturevalue(lab_name)
        target, drafter = models(lab, orders)
        widest = max(target, drafter.backbone, key=lambda model: model.order)
        policy = CountingPolicy(FailFast())
        case = SweepCase(
            label="count", target=target, drafter=drafter, policy=policy, max_tokens=self.MAX_TOKENS
        )
        transcripts = run_workload(case, memo_prompts(lab))
        proposed = [widest.window(prefix) for prefix in policy.prefixes]
        started = set()
        for t in transcripts:
            out = list(t.prompt)
            for r in t.rounds:
                started.add(widest.window(out))
                out += r.proposed_tokens[: r.accepted_len] + [r.replacement_token]
        assert len(proposed) == len(set(proposed))
        assert set(proposed) == started
        assert len(proposed) < sum(len(t.rounds) for t in transcripts)


class TestDerivedFields:
    """The loader recomputes every derived number of a v1 transcript."""

    @pytest.fixture
    def payload(self, mixed_lab):
        prompt = mixed_lab.prompts(1, seed=71)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FailFast(), CostModel(), prompt, 80)
        assert {r.replacement_kind for r in t.rounds} == {"bonus", "correction"}
        return json.loads(t.to_json())

    @staticmethod
    def retotal(payload):
        """Recompute the top-level numbers from the rounds, as ``run_episode`` does."""
        payload["draft_latency"] = math.fsum(r["draft_latency"] for r in payload["rounds"])
        payload["verify_latency"] = math.fsum(r["verify_latency"] for r in payload["rounds"])
        payload["total_latency"] = payload["draft_latency"] + payload["verify_latency"]
        payload["speedup"] = payload["vanilla_latency"] / payload["total_latency"]
        return payload

    def test_the_unchanged_payload_loads(self, payload):
        assert Transcript.from_dict(self.retotal(payload)).to_dict() == payload

    @pytest.mark.parametrize("kind", ["bonus", "correction"])
    def test_the_kind_follows_acceptance(self, payload, kind):
        r = next(r for r in payload["rounds"] if r["replacement_kind"] != kind)
        r["replacement_kind"] = kind
        with pytest.raises(IoError, match=f"ends in a {kind}"):
            Transcript.from_dict(payload)

    @pytest.mark.parametrize("name", ["draft_latency", "verify_latency"])
    def test_a_round_latency_is_not_negative(self, payload, name):
        payload["rounds"][0][name] = -0.05
        with pytest.raises(IoError, match=f"a round has {name} -0.05"):
            Transcript.from_dict(self.retotal(payload))

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("draft_latency", 1e-9, "draft_latency .* is not the rounds' sum"),
            ("verify_latency", 1e-9, "verify_latency .* is not the rounds' sum"),
            ("total_latency", 1e-9, "is not draft_latency \\+ verify_latency"),
            ("speedup", 1e-9, "is not vanilla_latency / total_latency"),
            ("vanilla_latency", -1e3, "vanilla_latency"),
        ],
    )
    def test_a_total_off_by_any_amount_is_rejected(self, payload, name, value, message):
        payload[name] += value
        if name == "vanilla_latency":
            payload = self.retotal(payload)
        with pytest.raises(IoError, match=message):
            Transcript.from_dict(payload)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_totals_are_rejected(self, payload, value):
        for name in ("total_latency", "vanilla_latency"):
            changed = dict(payload, **{name: value})
            with pytest.raises(IoError, match="malformed"):
                Transcript.from_dict(changed)
        payload["rounds"][0]["draft_latency"] = value
        with pytest.raises(IoError, match="malformed"):
            Transcript.from_dict(self.retotal(payload))

    def test_no_round_follows_the_round_that_committed_eos(self, iid_lab):
        episodes = (
            run_episode(iid_lab.target, iid_lab.drafter, FailFast(), CostModel(), prompt, 400)
            for prompt in iid_lab.prompts(20, seed=71)
        )
        t = next(t for t in episodes if len(t.output) < 400)  # ended at <eos>
        payload = json.loads(t.to_json())
        Transcript.from_dict(payload)  # loads as played
        payload["rounds"].append(dict(payload["rounds"][0]))
        with pytest.raises(IoError, match="a round follows the round that committed <eos>"):
            Transcript.from_dict(self.retotal(payload))

    def test_the_contradictory_transcript_of_the_roadmap(self, payload, tmp_path):
        payload.update(speedup=99.0, total_latency=0.001)
        bonus = next(r for r in payload["rounds"] if r["replacement_kind"] == "bonus")
        bonus["replacement_kind"] = "correction"
        payload["rounds"][-1]["draft_latency"] = -5.0
        path = tmp_path / "transcript_0000.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IoError, match="malformed"):
            Transcript.load(path)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_json_numbers_fail_naming_the_file(self, payload, tmp_path, text):
        path = tmp_path / "transcript_0000.json"
        path.write_text(json.dumps(payload).replace('"speedup":', f'"speedup": {text}, "_":'), encoding="utf-8")
        with pytest.raises(IoError, match=f"{path}: transcript is malformed: non-finite number {text}"):
            Transcript.load(path)

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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import engine
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
from speclab.policies import FailFast, FixedAR, FixedDLLM
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
        stale["schema_version"] = 99
        with pytest.raises(SchemaVersionMismatch):
            Transcript.from_dict(stale)

    def test_compact_json_loads_like_the_indented_file(self, mixed_lab, tmp_path):
        prompt = mixed_lab.prompts(1, seed=34)[0]
        t = run_episode(mixed_lab.target, mixed_lab.drafter, FailFast(), CostModel(), prompt, 40)
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(t.to_dict()), encoding="utf-8")
        t.save(tmp_path / "indented.json")
        assert Transcript.load(compact) == Transcript.load(tmp_path / "indented.json") == t

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


# Scalars of every kind json.dumps writes, non-finite and signed-zero floats,
# numpy float subclasses and bools included; strings with quotes,
# backslashes, control characters and non-ASCII.
FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
SCALARS = st.one_of(
    st.integers(), FLOATS, FLOATS.map(np.float64), st.booleans(), st.none(),
    st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u4e2d\U0001f600", ""]),
)
# Homogeneous lists, the common case in real transcripts.
INT_LISTS = st.lists(st.integers(), max_size=6)
UNIT_FLOAT_LISTS = st.lists(st.floats(-1, 1), max_size=6)
CONFIGS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=4,
)
ROUNDS = st.builds(
    RoundRecord,
    proposed_len=SCALARS,
    accepted_len=SCALARS,
    drafter_passes=SCALARS,
    replacement_kind=SCALARS,
    proposed_tokens=st.lists(SCALARS, max_size=6) | INT_LISTS,
    replacement_token=SCALARS,
    confidences=st.lists(SCALARS, max_size=6) | st.lists(FLOATS, max_size=6) | UNIT_FLOAT_LISTS,
    draft_latency=SCALARS,
    verify_latency=SCALARS,
)
TRANSCRIPTS = st.builds(
    Transcript,
    config=CONFIGS,
    seed=st.lists(SCALARS, max_size=6),
    prompt=INT_LISTS,
    vocab=st.lists(st.text(), max_size=6),
    rounds=st.lists(ROUNDS, max_size=3),
    output=st.lists(SCALARS, max_size=6),
    draft_latency=SCALARS,
    verify_latency=SCALARS,
    total_latency=SCALARS,
    vanilla_latency=SCALARS,
    speedup=SCALARS,
    schema_version=SCALARS,
)


class TestTranscriptJson:
    """``to_json`` writes the schema by hand; ``json.dumps`` of ``to_dict`` is its oracle."""

    @settings(max_examples=100, deadline=None)
    @given(TRANSCRIPTS)
    def test_same_bytes_as_json_dumps(self, t):
        assert t.to_json() == json.dumps(t.to_dict(), indent=1)

    def test_empty_lists_and_no_rounds(self):
        empty = RoundRecord(0, 0, 0, "bonus", [], 1, [], 0.0, 1.0)
        for rounds in ([], [empty], [empty, empty]):
            t = Transcript({}, [], [], [], rounds, [], 0.0, 0.0, 0.0, 0.0, 1.0)
            assert t.to_json() == json.dumps(t.to_dict(), indent=1)

    def test_the_float_memo_keeps_equal_values_of_other_texts_apart(self):
        # Each list is written after the one it could be confused with.
        nan, inf = float("nan"), float("inf")
        lists = [
            [0.0], [-0.0], [0.0, -0.0], [1.0], [1], [True], [0.5], [np.float64(0.5)],
            [nan, nan], [inf, -inf], [0.5, 1, True, -0.0, np.float64(0.25), nan],
        ]
        for values in lists:
            record = RoundRecord(1, 1, 1, "bonus", [3], 1, values, values[0], values[-1])
            t = Transcript({}, [], [], [], [record, record], values, values[0], 0.0, 0.0, 0.0, 1.0)
            assert t.to_json() == json.dumps(t.to_dict(), indent=1), values

    def test_the_float_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "_FLOAT_TEXT", engine._FloatText())
        values = [i / 7 for i in range(1, engine._MEMO_CAP + 100)]
        record = RoundRecord(len(values), 0, 1, "correction", [0] * len(values), 1, values, 0.05, 1.0)
        t = Transcript({}, [], [], [], [record], [1], 0.05, 1.0, 1.05, 1.0, 0.95)
        for _ in range(2):
            assert t.to_json() == json.dumps(t.to_dict(), indent=1)
            assert len(engine._FLOAT_TEXT) == engine._MEMO_CAP

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
                assert t.to_json() == json.dumps(t.to_dict(), indent=1)


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

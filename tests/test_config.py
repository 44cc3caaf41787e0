"""Strict config parsing: schema rejection, grid expansion, materialization."""

from __future__ import annotations

import json

import pytest

from speclab import config as config_module
from speclab.cli import main
from speclab.config import (
    expand_grid,
    load_config,
    materialize,
    parse_policy,
    read_corpus,
    validate_schema,
)
from speclab.corpora import sample_prompts
from speclab.drafter import DiffusionDrafter
from speclab.engine import SweepCase, run_workload
from speclab.errors import ConfigError, EmptyCorpus, IoError, UnknownToken
from speclab.policies import FailFast, FixedAR, FixedDLLM


def episodes(run):
    """The transcripts ``run`` gives, without the config snapshot."""
    transcripts = run_workload(run.case, run.prompts)
    return [{k: v for k, v in t.to_dict().items() if k != "config"} for t in transcripts]


def base_config(**overrides):
    cfg = {
        "label": "unit",
        "train_corpus": "corpus.txt",
        "prompt_sample": {"count": 2, "length": 8, "seed": 0},
        "target": {"order": 3, "smoothing": 0.1},
        "drafter": {"order": 2, "smoothing": 0.1},
        "policy": {"kind": "fixed_ar", "draft_len": 4},
        "max_tokens": 24,
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "corpus.txt").write_text(
        "the cat sat on the mat and the cat sat again\n"
        "the dog sat on the log and the dog sat again\n",
        encoding="utf-8",
    )
    return tmp_path


class TestSchemaValidation:
    def test_minimal_config_passes(self):
        validate_schema(base_config())

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key.*temperture"):
            validate_schema(base_config(temperture=0.7))

    @pytest.mark.parametrize("missing", ["train_corpus", "target", "drafter", "policy"])
    def test_missing_required_key(self, missing):
        cfg = base_config()
        del cfg[missing]
        with pytest.raises(ConfigError, match=missing):
            validate_schema(cfg)

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError, match="target"):
            validate_schema(base_config(target={"order": 3, "warmup": 1}))
        with pytest.raises(ConfigError, match="policy"):
            validate_schema(base_config(policy={"kind": "fixed_ar", "depth": 4}))
        cfg = base_config(cost={"draft_pass_cost": 0.05, "gpu": "a100"})
        with pytest.raises(ConfigError, match="cost"):
            validate_schema(cfg)

    def test_policy_keys_follow_the_kind(self):
        # step_size belongs to fail_fast, not fixed_ar.
        with pytest.raises(ConfigError):
            validate_schema(base_config(policy={"kind": "fixed_ar", "step_size": 10}))
        validate_schema(base_config(policy={"kind": "fail_fast", "step_size": 10}))

    def test_unknown_policy_kind(self):
        with pytest.raises(ConfigError, match="policy kind"):
            validate_schema(base_config(policy={"kind": "adaptive_magic"}))
        with pytest.raises(ConfigError, match="policy kind"):
            validate_schema(base_config(policy={"kind": [{}]}))

    def test_exactly_one_prompt_source(self):
        cfg = base_config(prompt_file="p.txt")
        with pytest.raises(ConfigError, match="exactly one"):
            validate_schema(cfg)
        del cfg["prompt_sample"]
        validate_schema(cfg)
        del cfg["prompt_file"]
        with pytest.raises(ConfigError, match="exactly one"):
            validate_schema(cfg)


class TestGridExpansion:
    def test_scalar_config_is_a_single_cell(self):
        cfg = base_config()
        cells = expand_grid(cfg)
        assert len(cells) == 1
        resolved, assignment = cells[0]
        assert resolved == cfg
        assert resolved is not cfg  # deep copy, safe to mutate downstream
        assert assignment == {}

    def test_one_axis(self):
        cfg = base_config(policy={"kind": "fixed_ar", "draft_len": [3, 4, 5]})
        cells = expand_grid(cfg)
        assert [a for _, a in cells] == [
            {"policy.draft_len": 3},
            {"policy.draft_len": 4},
            {"policy.draft_len": 5},
        ]
        assert all(isinstance(r["policy"]["draft_len"], int) for r, _ in cells)

    def test_product_of_two_axes(self):
        cfg = base_config(
            seed=[0, 1], policy={"kind": "fixed_ar", "draft_len": [3, 4]}
        )
        cells = expand_grid(cfg)
        assert len(cells) == 4
        combos = {(a["seed"], a["policy.draft_len"]) for _, a in cells}
        assert combos == {(0, 3), (0, 4), (1, 3), (1, 4)}

    def test_empty_axis_is_an_error(self):
        with pytest.raises(ConfigError, match="empty"):
            expand_grid(base_config(seed=[]))

    def test_non_scalar_axis_values_are_an_error(self):
        with pytest.raises(ConfigError, match="non-scalar"):
            expand_grid(base_config(seed=[0, {"nested": 1}]))


class TestLoadConfig:
    def test_round_trip(self, workdir):
        path = workdir / "cfg.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")
        assert load_config(path) == base_config()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)


class TestReadCorpus:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("abc\n\n\ndef\n", encoding="utf-8")
        assert read_corpus(str(path)) == ["abc", "def"]

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyCorpus):
            read_corpus(str(path))


class TestParsePolicy:
    def test_each_kind(self):
        assert parse_policy({"kind": "fixed_ar", "draft_len": 6}) == FixedAR(6)
        assert parse_policy(
            {"kind": "fixed_dllm", "draft_len": 8, "mode": "one_step"}
        ) == FixedDLLM(8, "one_step")
        ff = parse_policy({"kind": "fail_fast", "confidence_threshold": 0.3})
        assert ff == FailFast(confidence_threshold=0.3)
        assert ff.step_size == 10  # untouched defaults

    def test_missing_draft_len(self):
        with pytest.raises(ConfigError, match="fixed_ar policy needs draft_len"):
            parse_policy({"kind": "fixed_ar"})

    @pytest.mark.parametrize(
        "obj,policy",
        [
            ({"kind": "fixed_ar", "draft_len": 4}, FixedAR(4)),
            ({"kind": "fixed_dllm", "draft_len": 4}, FixedDLLM(4)),
            ({"kind": "fail_fast"}, FailFast()),
        ],
    )
    def test_defaults_are_the_classes(self, obj, policy):
        assert parse_policy(obj) == policy

    def test_keys_of_other_kinds_are_ignored(self):
        # A grid over kind allows every key of every kind in it.
        obj = {"kind": "fixed_ar", "draft_len": 4, "mode": "one_step", "step_size": 5}
        assert parse_policy(obj) == FixedAR(4)


class TestMaterialize:
    def test_single_run(self, workdir):
        runs = materialize(base_config(), str(workdir))
        assert len(runs) == 1
        run = runs[0]
        case, prompts = run  # the (case, prompts) pair engine.run_workload runs
        assert (case, prompts) == (run.case, run.prompts)
        assert run.label == case.label == "unit|fixed_ar(4)"
        assert run.case.max_tokens == 24
        assert len(run.prompts) == 2
        assert all(isinstance(t, int) for t in run.prompts[0])
        snapshot = run.case.config_snapshot
        assert snapshot["dataset"] == "corpus"
        assert snapshot["policy_label"] == "fixed_ar(4)"
        assert snapshot["label"] == run.label

    def test_grid_labels_carry_the_assignment(self, workdir):
        cfg = base_config(policy={"kind": "fixed_dllm", "draft_len": [3, 4]})
        runs = materialize(cfg, str(workdir))
        assert [r.label for r in runs] == [
            "unit|fixed_dllm(3,confidence_aware)|policy.draft_len=3",
            "unit|fixed_dllm(4,confidence_aware)|policy.draft_len=4",
        ]

    def test_models_are_cached_across_grid_cells(self, workdir):
        cfg = base_config(policy={"kind": "fixed_ar", "draft_len": [3, 4, 5]})
        runs = materialize(cfg, str(workdir))
        assert runs[0].case.target is runs[1].case.target is runs[2].case.target
        assert (
            runs[0].case.drafter.backbone
            is runs[1].case.drafter.backbone
            is runs[2].case.drafter.backbone
        )

    def test_cells_with_equal_drafter_settings_share_one_drafter(self, workdir):
        cfg = base_config(policy={"kind": "fixed_dllm", "draft_len": list(range(3, 21))})
        runs = materialize(cfg, str(workdir))
        assert len(runs) == 18
        assert all(r.case.drafter is runs[0].case.drafter for r in runs)
        drafter = {"order": 2, "smoothing": 0.1, "block_size": [4, 8]}
        runs = materialize(base_config(drafter=drafter), str(workdir))
        assert [r.case.drafter.block_size for r in runs] == [4, 8]
        assert runs[0].case.drafter is not runs[1].case.drafter
        assert runs[0].case.drafter.backbone is runs[1].case.drafter.backbone

    def test_prompt_file_source(self, workdir):
        (workdir / "prompts.txt").write_text("the cat\nthe dog\nthe mat\n", encoding="utf-8")
        cfg = base_config()
        del cfg["prompt_sample"]
        cfg["prompt_file"] = "prompts.txt"
        runs = materialize(cfg, str(workdir))
        assert len(runs[0].prompts) == 3
        vocab = runs[0].case.target.vocabulary
        assert runs[0].prompts[0] == vocab.encode("the cat")

    def test_stochastic_needs_a_smoothed_drafter(self, workdir):
        cfg = base_config(
            verifier="stochastic", drafter={"order": 2, "smoothing": 0.0}
        )
        with pytest.raises(ConfigError, match="smoothing"):
            materialize(cfg, str(workdir))

    def test_unknown_verifier_and_tokenizer(self, workdir):
        with pytest.raises(ConfigError, match="verifier"):
            materialize(base_config(verifier="quorum"), str(workdir))
        with pytest.raises(ConfigError, match="tokenizer"):
            materialize(base_config(tokenizer="bpe"), str(workdir))

    def test_unset_settings_take_the_class_defaults(self, workdir):
        cfg = base_config()
        del cfg["max_tokens"]
        (run,) = materialize(cfg, str(workdir))
        case = run.case
        drafter = DiffusionDrafter(case.drafter.backbone)
        assert (case.drafter.block_size, case.drafter.unmask_threshold) == (
            drafter.block_size,
            drafter.unmask_threshold,
        )
        defaults = SweepCase(case.label, case.target, case.drafter, case.policy)
        assert (case.max_tokens, case.seed, case.cost, case.verifier) == (
            defaults.max_tokens,
            defaults.seed,
            defaults.cost,
            defaults.verifier,
        )

    def test_char_prompt_sample_is_a_window_of_characters(self, workdir):
        (run,) = materialize(base_config(), str(workdir))
        docs = read_corpus(str(workdir / "corpus.txt"))
        vocab = run.case.target.vocabulary
        assert run.prompts == [vocab.encode(p) for p in sample_prompts(docs, 2, 8, 0)]

    def test_whitespace_prompt_sample_is_a_window_of_words(self, workdir):
        cfg = base_config(tokenizer="whitespace", prompt_sample={"count": 4, "length": 3, "seed": 0})
        (run,) = materialize(cfg, str(workdir))
        vocab = run.case.target.vocabulary
        docs = [d.split() for d in read_corpus(str(workdir / "corpus.txt"))]
        assert run.prompts == [vocab.encode(w) for w in sample_prompts(docs, 4, 3, 0)]

    def test_shared_vocabulary_between_models(self, workdir):
        runs = materialize(base_config(), str(workdir))
        case = runs[0].case
        assert case.target.vocabulary.tokens == case.drafter.backbone.vocabulary.tokens


class TestOneTablePerCorpus:
    @pytest.fixture
    def train_calls(self, monkeypatch):
        orders: list[int] = []
        train = config_module.train_ngram

        def counted(docs, order, *args, **kwargs):
            orders.append(order)
            return train(docs, order, *args, **kwargs)

        monkeypatch.setattr(config_module, "train_ngram", counted)
        return orders

    def test_target_and_drafter_share_one_training(self, workdir, train_calls):
        runs = materialize(base_config(), str(workdir))
        assert train_calls == [3]
        assert (runs[0].case.target.order, runs[0].case.drafter.backbone.order) == (3, 2)

    def test_a_grid_of_orders_trains_once_at_the_highest(self, workdir, train_calls):
        materialize(base_config(target={"order": [3, 4, 3], "smoothing": 0.1}), str(workdir))
        assert train_calls == [4]
        materialize(base_config(target={"order": [4, 3], "smoothing": 0.1}), str(workdir))
        assert train_calls == [4, 4]

    def test_each_cell_of_an_order_grid_drafts_as_if_materialized_alone(self, workdir):
        grid = materialize(base_config(target={"order": [3, 4, 3], "smoothing": 0.1}), str(workdir))
        for run, order in zip(grid, [3, 4, 3]):
            cell = base_config(target={"order": order, "smoothing": 0.1})
            (alone,) = materialize(cell, str(workdir))
            assert episodes(run) == episodes(alone)

    def test_a_bad_draft_mode_fails_before_training(self, workdir, train_calls):
        cfg = base_config(policy={"kind": "fixed_dllm", "draft_len": 4, "mode": "bogus"})
        with pytest.raises(ConfigError, match="draft mode"):
            materialize(cfg, str(workdir))
        assert train_calls == []

    def test_a_negative_seed_fails_before_training(self, workdir, train_calls):
        with pytest.raises(ConfigError, match="seed"):
            materialize(base_config(seed=-1), str(workdir))
        assert train_calls == []

    @pytest.mark.parametrize(
        "override,match",
        [
            ({"max_tokens": 0}, "max_tokens"),
            ({"drafter": {"order": 2, "smoothing": 0.1, "block_size": 0}}, "block size"),
            ({"drafter": {"order": 2, "smoothing": 0.1, "unmask_threshold": 0}}, "unmask threshold"),
            ({"cost": {"draft_pass_cost": -1}}, "pass costs"),
            ({"verifier": "quorum"}, "verifier kind"),
            ({"verifier": "stochastic", "drafter": {"order": 2, "smoothing": 0.0}}, "unsmoothed"),
            ({"prompt_sample": {"count": 0}}, "prompt_sample count"),
            ({"prompt_sample": {"length": 4}}, "needs 'count'"),
            # read_corpus's IoError (exit 2), not a ConfigError
            ({"prompt_sample": None, "prompt_file": "absent.txt"}, "cannot read corpus"),
            # a bad value in a later grid cell fails before the first cell trains
            ({"seed": [0, -1]}, "seed"),
            ({"policy": {"kind": "fixed_ar", "draft_len": [3, 0]}}, "draft length"),
            ({"verifier": ["greedy", "quorum"]}, "verifier kind"),
            ({"drafter": {"order": 2, "smoothing": 0.1, "block_size": 2.5}}, "block size"),
            ({"drafter": {"order": 2, "smoothing": 0.1, "unmask_threshold": "high"}}, "unmask threshold"),
            ({"policy": {"kind": "fail_fast", "step_size": 2.5}}, "step_size"),
            ({"target": {"order": 3, "smoothing": float("nan")}}, "smoothing must be finite"),
            ({"drafter": {"order": 2, "smoothing": float("inf")}}, "smoothing must be finite"),
            ({"cost": {"draft_pass_cost": float("nan")}}, "draft_pass_cost must be finite"),
            ({"cost": {"verify_round_cost": 10**400}}, "verify_round_cost must be finite"),
            ({"cost": {"verify_round_cost": float("inf")}}, "verify_round_cost must be finite"),
            ({"cost": {"verify_excess_cost": float("inf")}}, "verify_excess_cost must be finite"),
            ({"cost": {"decode_pass_cost": float("-inf")}}, "decode_pass_cost must be finite"),
            ({"policy": {"kind": "fail_fast", "confidence_threshold": float("nan")}}, "confidence"),
            ({"cost": {"verify_token_cutoff": 10**400}}, "verify_token_cutoff"),
        ],
    )
    def test_a_bad_setting_fails_before_training(self, workdir, train_calls, override, match):
        cfg = {k: v for k, v in base_config(**override).items() if v is not None}
        with pytest.raises((ConfigError, IoError), match=match):
            materialize(cfg, str(workdir))
        assert train_calls == []

    def test_a_prompt_outside_a_model_files_vocabulary_fails_before_training(self, workdir, train_calls):
        corpus = str(workdir / "corpus.txt")
        assert main(["train", corpus, "--order", "3", "--out", str(workdir / "models")]) == 0
        (workdir / "prompts.txt").write_text("the cat\nthe zebra\n", encoding="utf-8")
        cfg = base_config(prompt_file="prompts.txt", target={"model_file": "models/corpus.target.json"})
        del cfg["prompt_sample"]
        with pytest.raises(UnknownToken, match="'z'"):
            materialize(cfg, str(workdir))
        assert train_calls == []

    def test_trained_target_and_its_model_file_give_the_same_transcripts(self, workdir):
        corpus = str(workdir / "corpus.txt")
        models = str(workdir / "models")
        assert main(["train", corpus, "--order", "3", "--drafter-order", "2", "--out", models]) == 0
        trained = base_config(verifier=["greedy", "stochastic"])
        from_file = base_config(
            verifier=["greedy", "stochastic"], target={"model_file": "models/corpus.target.json"}
        )
        assert [episodes(r) for r in materialize(from_file, str(workdir))] == [
            episodes(r) for r in materialize(trained, str(workdir))
        ]

"""End-to-end command-line tests, run in-process through ``main``."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab import theory
from speclab.cli import OUTPUT_DIR_ENV, main
from speclab.config import load_config, materialize
from speclab.engine import Transcript
from speclab.ngram import load_model
from speclab.report import SUMMARY_COLUMNS

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "workloads")

CORPUS = (
    "the cat sat on the mat and then the cat sat on the mat again\n"
    "a dog sat on a log and then a dog sat on a log again\n"
    "the cat and the dog sat together on the mat by the log\n"
)


def write_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def write_config(tmp_path, **overrides):
    cfg = {
        "label": "cli",
        "train_corpus": "corpus.txt",
        "prompt_sample": {"count": 2, "length": 8, "seed": 0},
        "target": {"order": 4, "smoothing": 0.1},
        "drafter": {"order": 3, "smoothing": 0.1},
        "policy": {"kind": "fixed_dllm", "draft_len": 6},
        "max_tokens": 24,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}, indent=1), encoding="utf-8")
    return path


# JSON integer literals, written as text: Python refuses str() of an int
# past 4,300 digits, and json.loads refuses to read one.
INTEGERS = st.integers(-3, 40).map(str)
HUGE_INTEGER = "9" * 5000


def with_integer(obj, path, literal):
    """``obj`` as JSON text with the field at ``path`` set to the integer ``literal``."""
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@integer@"
    return json.dumps(obj).replace('"@integer@"', literal)


def exits_cleanly(argv):
    """Run the CLI: exit code 0, 1 or 2, and one ``error:`` line when not 0."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error: ") for line in lines) <= 1
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """``speclab train`` output for the test corpus."""
    tmp_path = tmp_path_factory.mktemp("trained")
    corpus = write_corpus(tmp_path)
    assert main(["train", str(corpus), "--out", str(tmp_path / "models")]) == 0
    return tmp_path / "models"


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    """``speclab run`` output for the test config: transcripts and a bundle."""
    tmp_path = tmp_path_factory.mktemp("run")
    write_corpus(tmp_path)
    assert main(["run", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def read_rows(path):
    """Parse a schema-stamped CSV into dict rows."""
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("# schema_version=")
    return list(csv.DictReader(lines[1:]))


class TestTrain:
    def test_models_are_written_and_loadable(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "models"
        assert main(["train", str(corpus), "--out", str(out)]) == 0
        target = load_model(out / "corpus.target.json")
        drafter = load_model(out / "corpus.drafter.json")
        assert target.order == 5 and drafter.order == 4
        assert target.vocabulary.tokens == drafter.vocabulary.tokens
        assert "vocabulary:" in capsys.readouterr().out

    def test_bad_order_is_a_validation_error(self, tmp_path):
        corpus = write_corpus(tmp_path)
        assert main(["train", str(corpus), "--order", "0"]) == 1

    def test_missing_corpus_is_a_runtime_error(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("flags", [["--smoothing", "nan"], ["--drafter-smoothing", "inf"]])
    def test_non_finite_smoothing_writes_no_model(self, tmp_path, capsys, flags):
        corpus = write_corpus(tmp_path)
        out = tmp_path / "models"
        assert main(["train", str(corpus), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "smoothing" in err[0]
        assert not list(out.glob("*.json"))


class TestRun:
    def test_produces_transcripts_and_report(self, tmp_path, capsys):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "transcript_0000.json").exists()
        assert (out / "transcript_0001.json").exists()
        for name in ("summary.csv", "metrics.json", "raster.svg", "cdf.svg",
                     "breakdown.svg", "trajectory.txt"):
            assert (out / name).exists()
        assert "2 transcripts" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b)]) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_a_rerun_with_fewer_prompts_removes_the_stale_transcripts(self, tmp_path):
        write_corpus(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        big = write_config(tmp_path, prompt_sample={"count": 5, "length": 8, "seed": 0})
        assert main(["run", str(big), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        small = write_config(tmp_path, prompt_sample={"count": 2, "length": 8, "seed": 0})
        assert main(["run", str(small), "--out", str(out)]) == 0
        assert main(["run", str(small), "--out", str(fresh)]) == 0
        assert sorted(p.name for p in out.glob("transcript_*.json")) == [
            "transcript_0000.json",
            "transcript_0001.json",
        ]
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert (out / "summary.csv").read_bytes() == (fresh / "summary.csv").read_bytes()

    def test_flag_overrides_reach_the_episode(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--max-tokens", "9", "--seed", "5"]) == 0
        t = json.loads((out / "transcript_0000.json").read_text(encoding="utf-8"))
        assert len(t["output"]) <= 9
        assert t["seed"] == [5, 0]
        assert t["config"]["max_tokens"] == 9

    def test_grid_config_is_rejected(self, tmp_path, capsys):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path, policy={"kind": "fixed_dllm", "draft_len": [4, 6]})
        assert main(["run", str(cfg)]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_unknown_config_key_fails_upfront(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path, temperture=0.7)
        assert main(["run", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_stochastic_with_unsmoothed_drafter_fails_upfront(self, tmp_path, capsys):
        write_corpus(tmp_path)
        cfg = write_config(
            tmp_path, verifier="stochastic", drafter={"order": 3, "smoothing": 0.0}
        )
        assert main(["run", str(cfg)]) == 1
        assert "smoothing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cost": {"draft_pass_cost": "x"}},
            {"policy": {"kind": "fixed_dllm", "draft_len": "abc"}},
            {"drafter": {"order": 3, "block_size": "wide"}},
            {"prompt_sample": {"count": None}},
            {"policy": {"kind": "fixed_dllm", "draft_len": 3.7}},
            {"policy": {"kind": "fixed_dllm", "draft_len": True}},
            {"target": {"order": "5"}},
            {"cost": {"draft_pass_cost": True}},
            {"output_dir": 5},
            {"seed": -1},
            {"prompt_sample": {"count": 2, "seed": -3}},
            {"prompt_sample": {"count": 0}},
            {"prompt_sample": {"count": 2, "length": -4}},
            {"prompt_sample": {"count": 2, "length": 0}},
            # json reads NaN, Infinity, -Infinity and integers past the float range
            {"target": {"order": 4, "smoothing": float("nan")}},
            {"cost": {"draft_pass_cost": float("nan")}},
            {"drafter": {"order": 3, "smoothing": float("inf")}},
            {"cost": {"decode_pass_cost": float("-inf")}},
            {"target": {"order": 4, "smoothing": 10**400}},
            # cost keys that are no CostModel field
            {"cost": {"decode_pass_cost": 2.0}},
            {"cost": {"verify_round_cost": 1.0}},
        ],
    )
    def test_badly_typed_values_fail_with_one_error_line(self, tmp_path, capsys, overrides):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # The line names the bad key: the last one written in the override.
        key, value = next(reversed(overrides.items()))
        while isinstance(value, dict):
            key, value = next(reversed(value.items()))
        assert key in err[0] or key.replace("_", " ") in err[0]

    def test_a_non_finite_latency_fails_with_one_error_line_and_no_bad_transcript(self, tmp_path, capsys):
        # Two drafter passes at 1e308 each add up to a latency of inf, so the
        # costs are refused before training; at 1e300 every latency is finite.
        cfg = load_config(os.path.join(WORKLOADS, "mixed_failfast.json"))
        for key in ("train_corpus", "prompt_file"):
            cfg[key] = os.path.join(WORKLOADS, cfg[key])
        cfg.update(cost={"draft_pass_cost": 1e308}, max_tokens=16)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: costs overflow")
        assert not out.exists()
        cfg.update(cost={"draft_pass_cost": 1e300})
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", str(path), "--out", str(out)]) == 0
        for saved in out.glob("transcript_*.json"):
            assert math.isfinite(Transcript.load(saved).total_latency)

    def test_negative_seed_flag_fails_with_one_error_line(self, tmp_path, capsys):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]

    @settings(max_examples=40, deadline=None)
    @example(path=("seed",), value="-1")
    @example(path=("prompt_sample", "seed"), value="-3")
    @example(path=("prompt_sample", "length"), value="0")
    @example(path=("max_tokens",), value=HUGE_INTEGER)
    @given(
        path=st.sampled_from(
            [
                ("seed",),
                ("max_tokens",),
                ("prompt_sample", "count"),
                ("prompt_sample", "length"),
                ("prompt_sample", "seed"),
                ("policy", "draft_len"),
                ("drafter", "block_size"),
                ("target", "order"),
            ]
        ),
        value=INTEGERS,
    )
    def test_any_config_integer_exits_cleanly(self, tmp_path_factory, path, value):
        tmp_path = tmp_path_factory.mktemp("int")
        write_corpus(tmp_path)
        cfg_path = write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg_path.write_text(with_integer(cfg, path, value), encoding="utf-8")
        exits_cleanly(["run", str(cfg_path), "--out", str(tmp_path / "out")])

    @settings(max_examples=25, deadline=None)
    @example(path=("order",), value=HUGE_INTEGER)
    @given(
        path=st.sampled_from([("schema_version",), ("order",), ("counts", "", "t")]),
        value=INTEGERS,
    )
    def test_any_model_file_integer_exits_cleanly(self, trained, tmp_path_factory, path, value):
        tmp_path = tmp_path_factory.mktemp("model")
        write_corpus(tmp_path)
        model = json.loads((trained / "corpus.target.json").read_text(encoding="utf-8"))
        (tmp_path / "target.json").write_text(with_integer(model, path, value), encoding="utf-8")
        cfg = write_config(tmp_path, target={"model_file": "target.json"})
        exits_cleanly(["run", str(cfg), "--out", str(tmp_path / "out")])

    def test_malformed_model_file_fails_with_one_error_line(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path)
        assert main(["train", str(corpus), "--out", str(tmp_path / "models")]) == 0
        model_path = tmp_path / "models" / "corpus.target.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["counts"][""] = [["t", 3]]
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        cfg = write_config(tmp_path, target={"model_file": "models/corpus.target.json"})
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "malformed" in err[0]

    @pytest.mark.parametrize("path", [("smoothing",), ("counts", "", "t")])
    def test_a_401_digit_model_number_fails_with_one_error_line(self, trained, tmp_path, capsys, path):
        write_corpus(tmp_path)
        model = json.loads((trained / "corpus.target.json").read_text(encoding="utf-8"))
        (tmp_path / "target.json").write_text(with_integer(model, path, "9" * 401), encoding="utf-8")
        cfg = write_config(tmp_path, target={"model_file": "target.json"})
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "malformed" in err[0]

    def test_eos_in_a_corpus_trained_against_a_model_vocabulary_fails(self, tmp_path, capsys):
        # The target's model file fixes the vocabulary, which always holds
        # <eos>; the whitespace tokenizer can read it from the corpus.
        clean = tmp_path / "clean.txt"
        clean.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(clean), "--tokenizer", "whitespace", "--out", str(tmp_path)]) == 0
        (tmp_path / "corpus.txt").write_text(CORPUS + "the cat <eos> sat on the mat\n", encoding="utf-8")
        # Prompts sampled from this corpus would hold fragments such as "<eo",
        # which fail as unknown tokens before training; these prompts are clean.
        cfg = write_config(
            tmp_path, tokenizer="whitespace", target={"model_file": "clean.target.json"},
            prompt_sample=None, prompt_file="clean.txt",
        )
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: corpus contains the reserved <eos> token"]

    def test_output_dir_env_var_sets_the_default(self, tmp_path, monkeypatch):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert main(["run", str(cfg)]) == 0
        (slug_dir,) = (tmp_path / "envout").iterdir()
        assert (slug_dir / "summary.csv").exists()

    def test_output_dir_from_config_is_relative_to_it(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path, output_dir="cfg_out")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "summary.csv").exists()


class TestUnreadableText:
    @pytest.mark.parametrize(
        "command, name, code",
        [
            ("run", "config.json", 1),
            ("run", "corpus.txt", 2),
            ("run", "target.json", 2),
            ("report", "out/transcript_0000.json", 2),
        ],
    )
    def test_a_file_that_is_not_utf8_fails_with_one_error_line(
        self, tmp_path, capsys, command, name, code
    ):
        corpus = write_corpus(tmp_path)
        assert main(["train", str(corpus), "--out", str(tmp_path)]) == 0
        os.replace(tmp_path / "corpus.target.json", tmp_path / "target.json")
        cfg = write_config(tmp_path, target={"model_file": "target.json"})
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:8] + b"\xff" + path.read_bytes()[8:])
        capsys.readouterr()
        if command == "run":
            argv = ["run", str(cfg), "--out", str(tmp_path / "again")]
        else:
            argv = ["report", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestSweep:
    def test_grid_produces_rows_and_one_star_per_kind(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(tmp_path, policy={"kind": "fixed_dllm", "draft_len": [3, 5, 7]})
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["# schema_version=1", ",".join(SUMMARY_COLUMNS + ("best",))]
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 3
        assert [r["policy"] for r in rows] == [
            "fixed_dllm(3,confidence_aware)",
            "fixed_dllm(5,confidence_aware)",
            "fixed_dllm(7,confidence_aware)",
        ]
        starred = [r for r in rows if r["best"] == "*"]
        assert len(starred) >= 1
        best = max(float(r["speedup"]) for r in rows)
        assert all(float(r["speedup"]) == best for r in starred)
        case_dirs = [d for d in os.listdir(out) if (out / d).is_dir()]
        assert len(case_dirs) == 3
        assert all((out / d / "transcript_0000.json").exists() for d in case_dirs)

    def test_each_case_runs_its_own_prompts(self, tmp_path):
        write_corpus(tmp_path)
        cfg = write_config(
            tmp_path,
            prompt_sample={"count": 2, "length": 8, "seed": [0, 1]},
            policy={"kind": "fixed_dllm", "draft_len": [3, 5]},
        )
        runs = materialize(load_config(cfg), str(tmp_path))
        assert runs[0].prompts != runs[-1].prompts
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        case_dirs = sorted(d for d in os.listdir(out) if (out / d).is_dir())
        assert len(case_dirs) == len(runs) == 4
        for run, case_dir in zip(runs, case_dirs):
            prompts = [
                json.loads((out / case_dir / name).read_text(encoding="utf-8"))["prompt"]
                for name in sorted(os.listdir(out / case_dir))
                if name.startswith("transcript_")
            ]
            assert prompts == run.prompts


class TestTheory:
    def test_curves_and_maximizers(self, tmp_path, capsys):
        out = tmp_path / "theory"
        assert main([
            "theory", "--alpha", "0.6", "0.8", "--gamma-max", "12", "--out", str(out),
        ]) == 0
        rows = read_rows(out / "theory.csv")
        assert len(rows) == 2 * 2 * 12  # alphas x drafter kinds x gammas
        assert {r["drafter"] for r in rows} == {"ar", "block_parallel"}
        stars = [r for r in rows if r["best"] == "*"]
        assert len(stars) == 4  # one maximizer per (alpha, kind)
        assert (out / "theory.svg").exists()
        assert capsys.readouterr().out.count("best gamma=") == 4

    def test_each_curve_point_is_computed_once(self, tmp_path, monkeypatch):
        calls = []
        speedup = theory.theoretical_speedup

        def counted(*args):
            calls.append(args)
            return speedup(*args)

        monkeypatch.setattr(theory, "theoretical_speedup", counted)
        assert main(["theory", "--gamma-max", "40", "--out", str(tmp_path / "theory")]) == 0
        assert len(calls) == 2 * 40  # drafter kinds x gammas

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "0.8", "1.0"],
            ["--gamma-max", "0"],
            ["--cost-ratio", "nan"],
            ["--cost-ratio", "inf"],
        ],
    )
    def test_invalid_input_writes_no_csv(self, tmp_path, flags):
        out = tmp_path / "theory"
        assert main(["theory", *flags, "--out", str(out)]) == 1
        assert not (out / "theory.csv").exists()


class TestReport:
    def test_rebuild_from_transcripts(self, tmp_path):
        # ``run`` renders the transcripts it holds, ``report`` the saved files.
        write_corpus(tmp_path)
        for verifier in ("greedy", "stochastic"):
            cfg = write_config(tmp_path, verifier=verifier)
            out, rebuilt = tmp_path / verifier, tmp_path / f"{verifier}-rebuilt"
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            assert main(["report", str(out), "--out", str(rebuilt)]) == 0
            names = sorted(os.listdir(rebuilt))
            assert len(names) == 6
            for name in names:
                assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), (verifier, name)

    def test_directory_without_transcripts(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1

    @settings(max_examples=40, deadline=None)
    @example(path=("seed", 0), value=HUGE_INTEGER)
    @given(
        path=st.sampled_from(
            [
                ("schema_version",),
                ("seed", 0),
                ("prompt", 0),
                ("output", 0),
                ("rounds", 0, "proposed_len"),
                ("rounds", 0, "accepted_len"),
                ("rounds", 0, "drafter_passes"),
                ("rounds", 0, "replacement_token"),
                ("rounds", 0, "proposed_tokens", 0),
                ("config", "max_tokens"),
            ]
        ),
        value=INTEGERS,
    )
    def test_any_transcript_integer_exits_cleanly(self, run_out, tmp_path_factory, path, value):
        tmp_path = tmp_path_factory.mktemp("transcript")
        t = json.loads((run_out / "transcript_0000.json").read_text(encoding="utf-8"))
        (tmp_path / "transcript_0000.json").write_text(with_integer(t, path, value), encoding="utf-8")
        exits_cleanly(["report", str(tmp_path)])

    @pytest.mark.parametrize("payload", [{"schema_version": 1}, [1, 2]])
    def test_malformed_transcript_fails_with_one_error_line(self, tmp_path, capsys, payload):
        (tmp_path / "transcript_0000.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "malformed" in err[0]

    def test_impossible_round_fails_with_one_error_line(self, run_out, tmp_path, capsys):
        t = json.loads((run_out / "transcript_0000.json").read_text(encoding="utf-8"))
        t["rounds"][0].update(accepted_len=40, proposed_len=-3)
        (tmp_path / "transcript_0000.json").write_text(json.dumps(t), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "malformed" in err[0]
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("field", ["draft_latency", "verify_latency", "confidences"])
    def test_a_401_digit_round_number_fails_with_one_error_line(self, run_out, tmp_path, capsys, field):
        """The bad round is the second file's, so it is a miss after a warm memo."""
        text = (run_out / "transcript_0000.json").read_text(encoding="utf-8")
        t = json.loads(text)
        t["rounds"][0][field] = [10**400] if field == "confidences" else 10**400
        (tmp_path / "transcript_0000.json").write_text(text, encoding="utf-8")
        path = tmp_path / "transcript_0001.json"
        path.write_text(json.dumps(t, separators=(",", ":")), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
        assert "malformed" in err[0]
        assert not (tmp_path / "summary.csv").exists()

    def test_a_non_finite_number_fails_with_one_error_line(self, run_out, tmp_path, capsys):
        text = (run_out / "transcript_0000.json").read_text(encoding="utf-8")
        t = json.loads(text)
        text = text.replace(f'"speedup":{json.dumps(t["speedup"])}', '"speedup":NaN')
        text = text.replace(f'"total_latency":{json.dumps(t["total_latency"])}', '"total_latency":Infinity')
        assert "NaN" in text and "Infinity" in text
        path = tmp_path / "transcript_0000.json"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
        assert "non-finite number" in err[0]
        assert not (tmp_path / "summary.csv").exists()


def report_on(run_out, tmp_path, **changes):
    """``speclab report`` argv for a copy of the first ``run_out`` transcript with ``changes``."""
    t = json.loads((run_out / "transcript_0000.json").read_text(encoding="utf-8"))
    t.update(changes)
    (tmp_path / "transcript_0000.json").write_text(json.dumps(t), encoding="utf-8")
    return ["report", str(tmp_path)]


def train_on_blank_lines(tmp_path):
    corpus = tmp_path / "blank.txt"
    corpus.write_text("\n\n\n", encoding="utf-8")
    return ["train", str(corpus), "--out", str(tmp_path / "models")]


def run_unknown_prompt(tmp_path, trained):
    write_corpus(tmp_path)
    (tmp_path / "prompts.txt").write_text("the zebra\n", encoding="utf-8")
    cfg = write_config(
        tmp_path, prompt_sample=None, prompt_file="prompts.txt",
        target={"model_file": str(trained / "corpus.target.json")},
    )
    return ["run", str(cfg), "--out", str(tmp_path / "out")]


def run_mismatched_models(tmp_path, trained):
    write_corpus(tmp_path)
    other = tmp_path / "other.txt"
    other.write_text("the cat sat on the mat by the zoo\n", encoding="utf-8")
    assert main(["train", str(other), "--out", str(tmp_path)]) == 0
    cfg = write_config(
        tmp_path,
        target={"model_file": str(trained / "corpus.target.json")},
        drafter={"model_file": "other.drafter.json"},
    )
    return ["run", str(cfg), "--out", str(tmp_path / "out")]


class TestValidationFailures:
    """Every family of validation failure the CLI reaches exits 1 with one
    ``error:`` line that says which it is."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            pytest.param(
                lambda tmp, run_out, trained: report_on(run_out, tmp, schema_version=2),
                "transcript schema_version 2 unsupported", id="report-schema-version-2",
            ),
            pytest.param(
                lambda tmp, run_out, trained: report_on(
                    run_out, tmp, rounds=[], output=[], draft_latency=0.0, verify_latency=0.0,
                    total_latency=0.0, vanilla_latency=0.0, speedup=0.0,
                ),
                "transcript_0000.json has no rounds", id="report-zero-rounds",
            ),
            pytest.param(
                lambda tmp, run_out, trained: train_on_blank_lines(tmp),
                "has no documents", id="train-blank-corpus",
            ),
            pytest.param(
                lambda tmp, run_out, trained: ["theory", "--block-size", "0", "--out", str(tmp / "theory")],
                "block size must be >= 1, got 0", id="theory-block-size-0",
            ),
            pytest.param(
                lambda tmp, run_out, trained: run_unknown_prompt(tmp, trained),
                "token not in vocabulary: 'z'", id="run-prompt-outside-vocabulary",
            ),
            pytest.param(
                lambda tmp, run_out, trained: run_mismatched_models(tmp, trained),
                "target and drafter must share one vocabulary", id="run-vocabulary-mismatch",
            ),
        ],
    )
    def test_exits_1_with_one_error_line(self, tmp_path, run_out, trained, capsys, argv, fragment):
        argv = argv(tmp_path, run_out, trained)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err

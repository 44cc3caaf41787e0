"""Report bundle rendering: byte determinism, pinned CSV schema, trajectories."""

from __future__ import annotations

import csv
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab import engine, svg
from speclab.analysis import build_raster, summarize
from speclab.engine import CostModel, RoundRecord, SweepCase, Transcript, run_episode, run_workload
from speclab.errors import ConfigError, IoError
from speclab.policies import FailFast, FixedAR, FixedDLLM
from speclab.report import (
    EASY_RUN_THRESHOLDS,
    SUMMARY_COLUMNS,
    load_transcripts,
    render_bundle,
    render_report,
    summary_row,
)
from speclab.svg import render_breakdown, render_curves, render_raster, render_step_cdfs

ARTIFACTS = ("summary.csv", "metrics.json", "raster.svg", "cdf.svg", "breakdown.svg", "trajectory.txt")


def tiny_transcript():
    """One hand-built round: draft "hi", keep "h", reject "i", correct to "!"."""
    r = RoundRecord(
        proposed_len=2,
        accepted_len=1,
        drafter_passes=1,
        replacement_kind="correction",
        proposed_tokens=[0, 1],
        replacement_token=2,
        confidences=[0.9, 0.2],
        draft_latency=0.05,
        verify_latency=1.0,
    )
    return Transcript(
        config={"label": "tiny", "policy_label": "fixed_ar(2)", "dataset": "demo", "tokenizer": "char"},
        seed=[0, 0],
        prompt=[0],
        vocab=["h", "i", "!", "<eos>"],
        rounds=[r],
        output=[0, 2],
        draft_latency=0.05,
        verify_latency=1.0,
        total_latency=1.05,
        vanilla_latency=2.0,
        speedup=2.0 / 1.05,
    )


@pytest.fixture
def run_dir(tmp_path, mixed_lab):
    """A real two-group run directory: block drafting and AR drafting."""
    prompts = mixed_lab.prompts(3, seed=51)
    idx = 0
    for label, policy in (("block8", FixedDLLM(8)), ("ar4", FixedAR(4))):
        snapshot = {
            "label": label,
            "policy_label": policy.label(),
            "dataset": "mixed",
            "tokenizer": "char",
        }
        for p in prompts:
            t = run_episode(
                mixed_lab.target, mixed_lab.drafter, policy, CostModel(), p, 40,
                config_snapshot=snapshot,
            )
            t.save(tmp_path / f"transcript_{idx:04d}.json")
            idx += 1
    return tmp_path


class TestLoadTranscripts:
    def test_sorted_load(self, run_dir):
        transcripts = load_transcripts(run_dir)
        assert len(transcripts) == 6
        labels = [t.config["label"] for t in transcripts]
        assert labels == ["block8"] * 3 + ["ar4"] * 3

    def test_files_load_in_run_order_past_four_digits(self, tmp_path):
        # By name, transcript_10000.json sorts before transcript_1001.json.
        first, second, other = tiny_transcript(), tiny_transcript(), tiny_transcript()
        second.config = dict(second.config, label="second")
        other.config = dict(other.config, label="other")
        first.save(tmp_path / "transcript_1001.json")
        second.save(tmp_path / "transcript_10000.json")
        other.save(tmp_path / "transcript_extra.json")
        loaded = load_transcripts(tmp_path)
        assert [t.config["label"] for t in loaded] == ["tiny", "second", "other"]
        report = render_report(tmp_path, tmp_path / "report")
        bundle = render_bundle([first, second, other], tmp_path / "bundle")
        for name in ARTIFACTS:
            with open(report[name], "rb") as a, open(bundle[name], "rb") as b:
                assert a.read() == b.read(), f"{name} differs from the run-order bundle"

    def test_equal_confidences_load_as_one_object(self, run_dir):
        confidences = [c for t in load_transcripts(run_dir) for r in t.rounds for c in r.confidences]
        first: dict[float, float] = {}
        assert all(first.setdefault(c, c) is c for c in confidences)
        assert len(first) < len(confidences)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ConfigError, match=r"no transcript_\*\.json files in"):
            load_transcripts(tmp_path)

    def test_roundless_transcript_is_rejected(self, tmp_path):
        t = tiny_transcript()
        t.rounds = []
        t.draft_latency = t.verify_latency = t.total_latency = t.speedup = 0.0  # what no rounds add up to
        t.save(tmp_path / "transcript_0000.json")
        with pytest.raises(ConfigError, match="transcript_0000.json has no rounds"):
            load_transcripts(tmp_path)

    def test_corrupt_file(self, tmp_path):
        (tmp_path / "transcript_0000.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(IoError):
            load_transcripts(tmp_path)


def compact(payload) -> str:
    """JSON in the layout ``Transcript.save`` writes."""
    return json.dumps(payload, separators=(",", ":"))


def round_texts(path) -> list[str]:
    """The text of each round object in a saved transcript."""
    return [compact(r) for r in json.loads(path.read_text(encoding="utf-8"))["rounds"]]


def saved_run(directory, mixed_lab, verifier="greedy"):
    """``run_workload`` on prompts that recur, each transcript saved; returns the transcripts."""
    prompts = mixed_lab.prompts(6, seed=81)
    case = SweepCase(
        label="shared", target=mixed_lab.target, drafter=mixed_lab.drafter, policy=FailFast(),
        verifier=verifier, max_tokens=40, config_snapshot={"label": "shared", "verifier": verifier},
    )
    transcripts = run_workload(case, prompts + prompts[:3])
    for i, t in enumerate(transcripts):
        t.save(directory / f"transcript_{i:04d}.json")
    return transcripts


def committed(r: RoundRecord) -> list[int]:
    return r.proposed_tokens[: r.accepted_len] + [r.replacement_token]


@pytest.fixture
def checked_rows(monkeypatch):
    """The number of round objects ``_round_columns`` checks, in a list that grows per call."""
    rows: list[int] = []
    check = engine._round_columns

    def counted(rounds):
        rows.append(len(rounds))
        return check(rounds)

    monkeypatch.setattr(engine, "_round_columns", counted)
    return rows


class TestSharedRoundLoading:
    """``load_transcripts`` decodes and checks each distinct round text once."""

    def test_a_greedy_run_loads_one_record_per_distinct_round_text(self, tmp_path, mixed_lab):
        transcripts = saved_run(tmp_path, mixed_lab)
        loaded = load_transcripts(tmp_path)
        assert loaded == transcripts
        paths = sorted(tmp_path.glob("transcript_*.json"))
        for t, path in zip(loaded, paths):
            assert t.to_json() + "\n" == path.read_text(encoding="utf-8")
        texts = [text for path in paths for text in round_texts(path)]
        records = [r for t in loaded for r in t.rounds]
        assert len({id(r) for r in records}) == len(set(texts)) < len(texts)

    def test_each_distinct_round_text_is_checked_once(self, tmp_path, mixed_lab, checked_rows):
        """Fails if the loader stops sharing checked rounds, without timing anything."""
        saved_run(tmp_path, mixed_lab)
        texts = [text for path in tmp_path.glob("transcript_*.json") for text in round_texts(path)]
        load_transcripts(tmp_path)
        assert sum(checked_rows) == len(set(texts)) < len(texts)

    def test_a_shared_round_is_checked_against_each_vocabulary(self, tmp_path, mixed_lab):
        transcripts = saved_run(tmp_path, mixed_lab)
        # A round that rejects a token above every token it commits, alone in
        # a transcript whose vocabulary ends below that token.
        r = next(
            r for t in transcripts for r in t.rounds
            if max(r.proposed_tokens, default=-1) > max(committed(r))
        )
        output = committed(r)
        t = transcripts[0]
        narrow = Transcript.of(t.config, t.seed, [], t.vocab[: max(output) + 1], [r], output)
        later = tmp_path / "transcript_9999.json"
        later.write_text(narrow.to_json() + "\n", encoding="utf-8")
        shared = {text for path in tmp_path.glob("transcript_0*.json") for text in round_texts(path)}
        assert set(round_texts(later)) <= shared
        message = f"{later}: transcript is malformed: a token id lies outside the vocabulary"
        with pytest.raises(IoError, match=message):
            load_transcripts(tmp_path)
        for path in tmp_path.glob("transcript_0*.json"):
            path.unlink()
        with pytest.raises(IoError, match=message):  # the same file, its round not shared
            load_transcripts(tmp_path)

    @pytest.mark.parametrize(
        "old, new",
        [("},{", "}x,{"), ('}],"output"', '}x,"output"'), ('}],"output"', '}]x,"output"'), ("}\n", "}x\n")],
        ids=["after-a-round", "in-place-of-the-bracket", "after-the-rounds", "after-the-object"],
    )
    def test_stray_characters_after_a_shared_round_are_not_json(self, tmp_path, mixed_lab, old, new):
        saved_run(tmp_path, mixed_lab)
        text = (tmp_path / "transcript_0000.json").read_text(encoding="utf-8")
        assert text.count(old) >= 1
        later = tmp_path / "transcript_9999.json"
        later.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(IoError, match=f"transcript {later} is not valid JSON"):
            load_transcripts(tmp_path)

    def test_an_indented_file_among_compact_ones_loads_equal(self, tmp_path, mixed_lab):
        transcripts = saved_run(tmp_path, mixed_lab)
        indented = tmp_path / "transcript_0001.json"
        indented.write_text(json.dumps(transcripts[1].to_dict(), indent=1) + "\n", encoding="utf-8")
        assert load_transcripts(tmp_path) == transcripts

    def test_stochastic_transcripts_leave_the_memo_untouched(
        self, tmp_path, mixed_lab, monkeypatch, checked_rows
    ):
        transcripts = saved_run(tmp_path, mixed_lab, verifier="stochastic")
        memos = []
        load = Transcript.load.__func__

        def recorded(cls, path, memo=None):
            memos.append(memo)
            return load(cls, path, memo)

        monkeypatch.setattr(Transcript, "load", classmethod(recorded))
        loaded = load_transcripts(tmp_path)
        assert loaded == transcripts
        assert len(memos) == len(transcripts) and all(memo == {} and memo is memos[0] for memo in memos)
        rounds = sum(len(t.rounds) for t in transcripts)
        assert sum(checked_rows) == rounds == len({id(r) for t in loaded for r in t.rounds})

    def test_a_file_of_another_schema_version_is_named(self, tmp_path, mixed_lab):
        saved_run(tmp_path, mixed_lab)
        later = tmp_path / "transcript_9999.json"
        payload = json.loads((tmp_path / "transcript_0000.json").read_text(encoding="utf-8"))
        later.write_text(compact(dict(payload, schema_version=2)) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{later}: transcript schema_version 2 unsupported"):
            load_transcripts(tmp_path)


class TestRenderReport:
    def test_all_six_artifacts_exist(self, run_dir):
        paths = render_report(run_dir)
        assert set(paths) == set(ARTIFACTS)
        for path in paths.values():
            assert len(open(path, encoding="utf-8").read()) > 0

    def test_rendering_twice_is_byte_identical(self, run_dir, tmp_path):
        first = render_report(run_dir, tmp_path / "a")
        second = render_report(run_dir, tmp_path / "b")
        for name in ARTIFACTS:
            a = open(first[name], "rb").read()
            b = open(second[name], "rb").read()
            assert a == b, f"{name} differs between renders"

    def test_summary_csv_schema(self, run_dir):
        paths = render_report(run_dir)
        lines = open(paths["summary.csv"], encoding="utf-8").read().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 2 + 2  # one data row per group
        # The policy label contains a comma, so parse with the csv module.
        first = dict(zip(SUMMARY_COLUMNS, next(csv.reader([lines[2]]))))
        assert first["policy"] == "fixed_dllm(8,confidence_aware)"
        assert first["dataset"] == "mixed"
        float(first["speedup"])  # numeric, six-decimal formatted
        assert len(first["speedup"].split(".")[1]) == 6

    def test_metrics_json_matches_in_memory_summary(self, run_dir):
        paths = render_report(run_dir)
        metrics = json.loads(open(paths["metrics.json"], encoding="utf-8").read())
        assert metrics["schema_version"] == 1
        transcripts = load_transcripts(run_dir)
        block_group = [t for t in transcripts if t.config["label"] == "block8"]
        stats = summarize(block_group)
        got = metrics["groups"][0]
        assert got["label"] == "block8"
        assert got["summary"]["acceptance_rate"] == pytest.approx(stats.acceptance_rate, abs=1e-12)
        assert got["summary"]["rounds"] == stats.rounds
        assert got["easy_run_thresholds"] == list(EASY_RUN_THRESHOLDS)
        assert got["accepted_len_cdf"][-1][1] == pytest.approx(1.0, abs=1e-12)
        ratios = got["easy_run_ratio"]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_report_into_separate_directory(self, run_dir, tmp_path):
        out = tmp_path / "bundle"
        paths = render_report(run_dir, out)
        for path in paths.values():
            assert str(out) in path


class TestTrajectoryText:
    def test_hand_built_walkthrough(self, tmp_path):
        tiny_transcript().save(tmp_path / "transcript_0000.json")
        paths = render_report(tmp_path)
        text = open(paths["trajectory.txt"], encoding="utf-8").read()
        assert "== tiny | seed=[0, 0] | 1 rounds ==" in text
        assert "prompt: h" in text
        assert "h~~i~~[!]" in text  # kept draft, struck rejection, bracketed fix
        assert "output: h!" in text

    def test_real_run_contains_markers(self, run_dir):
        paths = render_report(run_dir)
        text = open(paths["trajectory.txt"], encoding="utf-8").read()
        assert "== block8" in text
        assert "== ar4" in text
        assert "[" in text and "]" in text


class TestSummaryRow:
    def test_formats_and_fallbacks(self):
        t = tiny_transcript()
        row = summary_row("tiny", [t])
        assert row["policy"] == "fixed_ar(2)"
        assert row["dataset"] == "demo"
        assert row["acceptance_rate"] == "0.500000"
        assert row["rounds"] == "1"
        t.config = {}
        row = summary_row("fallback", [t])
        assert row["policy"] == "fallback"
        assert row["dataset"] == "unknown"


class TestSvgRendering:
    def test_every_renderer_emits_versioned_xml(self):
        outputs = [
            render_raster([["easy", "hard", "absent"]]),
            render_step_cdfs([("demo", [(1, 0.5), (3, 1.0)])]),
            render_breakdown([("demo", 0.4, 1.0)]),
            render_curves([("demo", [(1, 1.0), (2, 1.4)])], "x", "y", "title"),
        ]
        for svg in outputs:
            assert svg.startswith("<svg xmlns=")
            assert "<!-- schema_version=1 -->" in svg
            assert svg.rstrip().endswith("</svg>")

    def test_rendering_is_deterministic(self):
        series = [("s", [(1, 0.25), (2, 1.0)])]
        assert render_step_cdfs(series) == render_step_cdfs(series)

    def test_label_text_is_escaped(self):
        svg = render_curves([("a<b&c", [(1, 1.0), (2, 2.0)])], "x", "y", "t")
        assert "a<b&c" not in svg
        assert "a&lt;b&amp;c" in svg


def per_cell_raster(rows, title="easy/hard raster"):
    """The reference ``render_raster``: one ``_Canvas.rect`` per cell."""
    width = max((len(r) for r in rows), default=0)
    cell = max(1.0, min(8.0, 880.0 / max(1, width)))
    row_h = max(2.0, min(8.0, 400.0 / max(1, len(rows))))
    ox, oy = 10.0, 30.0
    canvas = svg._Canvas(ox * 2 + cell * width, oy + row_h * len(rows) + 10.0)
    canvas.text(ox, 14, title)
    canvas.text(ox, 24, "green=easy red=hard grey=absent", size=8)
    colors = {"easy": svg.EASY_COLOR, "hard": svg.HARD_COLOR}
    for i, row in enumerate(rows):
        for j, flag in enumerate(row):
            canvas.rect(ox + j * cell, oy + i * row_h, cell, row_h, colors.get(flag, svg.ABSENT_COLOR))
    return canvas.render()


def assert_same_svg(got, want):
    # Lines first: pytest's diff of two long unequal strings can take minutes.
    assert got.splitlines() == want.splitlines()
    assert got == want


# One letter per cell: easy, hard, absent, and flags the renderer does not know.
FLAGS = {"e": "easy", "h": "hard", "a": "absent", "x": "EASY", "z": ""}


class TestRasterMatchesPerCellForm:
    @settings(max_examples=60, deadline=None)
    @example(cells=[])
    @example(cells=[""])
    @example(cells=["", "eh", ""])
    @example(cells=["e" * 111, "h"])  # wider than 110: fractional cell width
    @example(cells=["ehaxz" * 25] * 57)  # taller than 50 rows: fractional row height
    @given(cells=st.lists(st.text(alphabet="ehaxz", max_size=140), max_size=70))
    def test_byte_identical(self, cells):
        rows = [[FLAGS[c] for c in row] for row in cells]
        assert_same_svg(render_raster(rows), per_cell_raster(rows))
        assert_same_svg(render_raster(rows, "t<i>tle"), per_cell_raster(rows, "t<i>tle"))

    def test_a_real_bundle_raster(self, run_dir):
        raster = build_raster(load_transcripts(run_dir))
        assert_same_svg(render_raster(raster.rows), per_cell_raster(raster.rows))

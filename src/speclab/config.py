"""Declarative run configuration: strict JSON in, runnable sweep cases out.

The format is deliberately rigid — unknown keys are rejected at every level
so a typo cannot silently fall back to a default. Any scalar field may
instead hold an array of values; the config then expands into the cartesian
product of all such axes, which is how sweeps are declared.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
from typing import NamedTuple

from .corpora import sample_prompts
from .drafter import DiffusionDrafter
from .engine import CostModel, SweepCase, VERIFIER_KINDS, VERIFIER_STOCHASTIC
from .errors import ConfigError, EmptyCorpus, IoError
from .ngram import NGramModel, load_model, train_ngram
from .policies import FailFast, FailFastConfig, FixedAR, FixedDLLM, Policy
from .tokenizers import TOKENIZER_KINDS, tokenize

_Scalar = (str, int, float, bool, type(None))

_TOP_KEYS = {
    "label",
    "train_corpus",
    "prompt_file",
    "prompt_sample",
    "tokenizer",
    "target",
    "drafter",
    "policy",
    "cost",
    "verifier",
    "max_tokens",
    "seed",
    "output_dir",
}
_MODEL_KEYS = {"order", "smoothing", "model_file"}
_DRAFTER_KEYS = _MODEL_KEYS | {"block_size", "unmask_threshold"}
_SAMPLE_KEYS = {"count", "length", "seed"}
_POLICY_KEYS = {
    "fixed_ar": {"kind", "draft_len"},
    "fixed_dllm": {"kind", "draft_len", "mode"},
    "fail_fast": {"kind", "step_size", "confidence_threshold", "max_length"},
}
_COST_KEYS = {
    "draft_pass_cost",
    "verify_round_cost",
    "verify_token_cutoff",
    "verify_excess_cost",
    "decode_pass_cost",
}


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def validate_schema(obj: dict) -> None:
    """Reject unknown keys and structurally impossible values.

    Grid arrays are still present at this point; per-value validation happens
    after expansion when the scalars are materialized.
    """
    _require_keys(obj, _TOP_KEYS, "config")
    for key in ("train_corpus", "target", "drafter", "policy"):
        if key not in obj:
            raise ConfigError(f"config is missing required key '{key}'")
    _require_keys(obj["target"], _MODEL_KEYS, "target")
    _require_keys(obj["drafter"], _DRAFTER_KEYS, "drafter")
    for spec in (obj["target"], obj["drafter"]):
        if "model_file" in spec and ("order" in spec or "smoothing" in spec):
            raise ConfigError("model spec: give model_file or order/smoothing, not both")
        if "model_file" not in spec and "order" not in spec:
            raise ConfigError("model spec needs 'order' (or 'model_file')")
    policy = obj["policy"]
    if not isinstance(policy, dict) or "kind" not in policy:
        raise ConfigError("policy must be an object with a 'kind' key")
    kinds = policy["kind"] if isinstance(policy["kind"], list) else [policy["kind"]]
    allowed: set[str] = {"kind"}
    for kind in kinds:
        if kind not in _POLICY_KEYS:
            raise ConfigError(f"unknown policy kind: {kind!r}")
        allowed |= _POLICY_KEYS[kind]
    _require_keys(policy, allowed, "policy")
    if "cost" in obj:
        _require_keys(obj["cost"], _COST_KEYS, "cost")
    if "prompt_sample" in obj:
        _require_keys(obj["prompt_sample"], _SAMPLE_KEYS, "prompt_sample")
    if ("prompt_file" in obj) == ("prompt_sample" in obj):
        raise ConfigError("exactly one of prompt_file / prompt_sample is required")


def _grid_axes(obj: dict, path: tuple[str, ...] = ()) -> list[tuple[tuple[str, ...], list]]:
    axes: list[tuple[tuple[str, ...], list]] = []
    for key, value in obj.items():
        if isinstance(value, dict):
            axes.extend(_grid_axes(value, path + (key,)))
        elif isinstance(value, list):
            axes.append((path + (key,), value))
    return axes


def expand_grid(obj: dict) -> list[tuple[dict, dict[str, object]]]:
    """Expand array-valued scalar fields into the cartesian product.

    Returns ``(resolved config, axis assignments)`` pairs; the assignments map
    dotted field paths to the value chosen for that combination, in document
    order, and are empty when the config had no arrays.
    """
    axes = _grid_axes(obj)
    for path, values in axes:
        dotted = ".".join(path)
        if not values:
            raise ConfigError(f"grid axis {dotted} is empty")
        for v in values:
            if not isinstance(v, _Scalar):
                raise ConfigError(f"grid axis {dotted} holds a non-scalar value")
    if not axes:
        return [(copy.deepcopy(obj), {})]
    out: list[tuple[dict, dict[str, object]]] = []
    for combo in itertools.product(*(values for _, values in axes)):
        resolved = copy.deepcopy(obj)
        assignment: dict[str, object] = {}
        for (path, _), value in zip(axes, combo):
            node = resolved
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            assignment[".".join(path)] = value
        out.append((resolved, assignment))
    return out


def load_config(path: str | os.PathLike[str]) -> dict:
    """Read and schema-check a config file (grids still unexpanded)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    validate_schema(obj)
    return obj


def read_corpus(path: str) -> list[str]:
    """One document per non-empty line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            docs = [line.rstrip("\n") for line in fh]
    except OSError as exc:
        raise IoError(f"cannot read corpus {path}: {exc}") from exc
    docs = [d for d in docs if d]
    if not docs:
        raise EmptyCorpus(f"corpus {path} has no documents")
    return docs


def _as(kind: type, value: object, where: str, at_least: int | None = None):
    """``value`` as ``kind``, no less than ``at_least`` when given; an int takes
    a JSON integer only, a float any JSON number."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{where} must be >= {at_least}, got {value!r}")
    return kind(value)


def parse_policy(obj: dict) -> Policy:
    kind = obj["kind"]
    if kind == "fixed_ar":
        if "draft_len" not in obj:
            raise ConfigError("fixed_ar policy needs draft_len")
        return FixedAR(_as(int, obj["draft_len"], "policy draft_len"))
    if kind == "fixed_dllm":
        if "draft_len" not in obj:
            raise ConfigError("fixed_dllm policy needs draft_len")
        return FixedDLLM(
            _as(int, obj["draft_len"], "policy draft_len"),
            obj.get("mode", "confidence_aware"),
        )
    if kind == "fail_fast":
        return FailFast(
            FailFastConfig(
                step_size=_as(int, obj.get("step_size", 10), "policy step_size"),
                confidence_threshold=_as(
                    float, obj.get("confidence_threshold", 0.45), "policy confidence_threshold"
                ),
                max_length=_as(int, obj.get("max_length", 60), "policy max_length"),
            )
        )
    raise ConfigError(f"unknown policy kind: {kind!r}")


class ResolvedRun(NamedTuple):
    """One grid cell: the ``(case, prompts)`` pair ``engine.run_workload`` runs."""

    case: SweepCase
    prompts: list[list[int]]

    @property
    def label(self) -> str:
        return self.case.label


def materialize(config: dict, base_dir: str = ".") -> list[ResolvedRun]:
    """Expand grids into the ``(case, prompts)`` pairs ``engine.run_workload`` runs.

    Relative paths are resolved against ``base_dir`` (the config file's own
    directory, for the CLI). Each corpus is read and tokenized once, and
    trained models are order-limited views of one count table, so an
    18-point draft-length sweep trains once; cells share equal models.
    Cells with equal drafter settings also share one ``DiffusionDrafter``
    and with it its block cache: a block depends only on the mode and the
    backbone window of its prefix, and passes are deterministic, so a warm
    drafter drafts exactly as a fresh one would.
    """
    validate_schema(config)
    runs: list[ResolvedRun] = []
    corpus_cache: dict[str, list[str]] = {}
    tokens_cache: dict[tuple[str, str], list[list[str]]] = {}
    tables: dict[tuple[str, str, str | None], NGramModel] = {}
    models: dict[object, NGramModel] = {}  # files by path, views by (table key, order, smoothing)
    drafters: dict[tuple[NGramModel, int, float], DiffusionDrafter] = {}
    prompt_cache: dict[tuple, list[list[int]]] = {}

    def model(spec: dict, table_key: tuple) -> NGramModel:
        """The model file ``spec`` names, or its view of the table at ``table_key``."""
        if "model_file" in spec:
            key = os.path.join(base_dir, str(spec["model_file"]))
            if key not in models:
                models[key] = load_model(key)
        else:
            order = _as(int, spec["order"], "order")
            smoothing = _as(float, spec.get("smoothing", 0.1), "smoothing")
            key = (table_key, order, smoothing)
            if key not in models:
                models[key] = tables[table_key].with_order(order, smoothing)
        return models[key]

    for resolved, assignment in expand_grid(config):
        corpus_path = os.path.join(base_dir, str(resolved["train_corpus"]))
        if corpus_path not in corpus_cache:
            corpus_cache[corpus_path] = read_corpus(corpus_path)
        docs = corpus_cache[corpus_path]
        tok_kind = str(resolved.get("tokenizer", "char"))
        if tok_kind not in TOKENIZER_KINDS:
            raise ConfigError(f"unknown tokenizer kind: {tok_kind!r}")
        if not isinstance(resolved.get("output_dir", ""), str):
            raise ConfigError(f"output_dir must be a string, got {resolved['output_dir']!r}")
        policy = parse_policy(resolved["policy"])
        seed = _as(int, resolved.get("seed", 0), "seed", at_least=0)

        target_spec = resolved["target"]
        drafter_spec = dict(resolved["drafter"])
        block_size = _as(int, drafter_spec.pop("block_size", 8), "drafter block_size")
        unmask_threshold = _as(
            float, drafter_spec.pop("unmask_threshold", 0.9), "drafter unmask_threshold"
        )
        # One table per corpus, tokenizer and vocabulary source (the target's
        # model file, else the corpus), trained at the highest order yet asked.
        vocab_source = str(target_spec["model_file"]) if "model_file" in target_spec else None
        table_key = (corpus_path, tok_kind, vocab_source)
        orders = [_as(int, s["order"], "order") for s in (target_spec, drafter_spec) if "order" in s]
        if orders and (table_key not in tables or tables[table_key].order < max(orders)):
            if (corpus_path, tok_kind) not in tokens_cache:
                tokens_cache[corpus_path, tok_kind] = [tokenize(d, tok_kind) for d in docs]
            vocabulary = None if vocab_source is None else model(target_spec, table_key).vocabulary
            tables[table_key] = train_ngram(
                tokens_cache[corpus_path, tok_kind], order=max(orders), vocabulary=vocabulary
            )
        target = model(target_spec, table_key)
        backbone = model(drafter_spec, table_key)
        drafter_key = (backbone, block_size, unmask_threshold)
        if drafter_key not in drafters:
            drafters[drafter_key] = DiffusionDrafter(*drafter_key)
        drafter = drafters[drafter_key]

        verifier = str(resolved.get("verifier", "greedy"))
        if verifier not in VERIFIER_KINDS:
            raise ConfigError(f"unknown verifier kind: {verifier!r}")
        if verifier == VERIFIER_STOCHASTIC and backbone.smoothing == 0:
            raise ConfigError(
                "stochastic verification with an unsmoothed drafter risks "
                "zero draft probabilities; set drafter smoothing > 0"
            )

        if "prompt_file" in resolved:
            prompt_path = os.path.join(base_dir, str(resolved["prompt_file"]))
            cache_key = (prompt_path, tok_kind, target.vocabulary)
            if cache_key not in prompt_cache:
                prompt_cache[cache_key] = [
                    target.vocabulary.encode(tokenize(line, tok_kind))
                    for line in read_corpus(prompt_path)
                ]
            prompts = prompt_cache[cache_key]
        else:
            spec = resolved["prompt_sample"]
            _require_keys(spec, _SAMPLE_KEYS, "prompt_sample")
            if "count" not in spec:
                raise ConfigError("prompt_sample needs 'count'")
            texts = sample_prompts(
                docs,
                _as(int, spec["count"], "prompt_sample count", at_least=1),
                length=_as(int, spec.get("length", 12), "prompt_sample length", at_least=1),
                seed=_as(int, spec.get("seed", 0), "prompt_sample seed", at_least=0),
            )
            prompts = [target.vocabulary.encode(tokenize(t, tok_kind)) for t in texts]

        cost = CostModel(**resolved.get("cost", {}))
        dataset = os.path.splitext(os.path.basename(corpus_path))[0]
        base_label = str(resolved.get("label", dataset))
        suffix = ",".join(f"{k}={v}" for k, v in assignment.items())
        label = f"{base_label}|{policy.label()}" + (f"|{suffix}" if suffix else "")

        snapshot = copy.deepcopy(resolved)
        snapshot["label"] = label
        snapshot["dataset"] = dataset
        snapshot["policy_label"] = policy.label()
        snapshot["tokenizer"] = tok_kind

        runs.append(
            ResolvedRun(
                SweepCase(
                    label=label,
                    target=target,
                    drafter=drafter,
                    policy=policy,
                    cost=cost,
                    verifier=verifier,
                    max_tokens=_as(int, resolved.get("max_tokens", 256), "max_tokens"),
                    seed=seed,
                    config_snapshot=snapshot,
                ),
                prompts,
            )
        )
    return runs

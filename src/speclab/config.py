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
from dataclasses import MISSING, fields
from typing import NamedTuple

from .corpora import sample_prompts
from .drafter import DiffusionDrafter, check_settings
from .engine import CostModel, SweepCase, VERIFIER_KINDS, VERIFIER_STOCHASTIC
from .errors import ConfigError, EmptyCorpus, IoError, check_number
from .ngram import NGramModel, Vocabulary, load_model, train_ngram
from .policies import FailFast, FixedAR, FixedDLLM, Policy
from .tokenizers import TOKENIZER_KINDS, detokenize, tokenize

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
# Each policy kind's settings are the fields of its class, which defaults and checks them.
_POLICY_CLASSES = {"fixed_ar": FixedAR, "fixed_dllm": FixedDLLM, "fail_fast": FailFast}
_POLICY_KEYS = {kind: {f.name for f in fields(cls)} for kind, cls in _POLICY_CLASSES.items()}
_POLICY_REQUIRED = {
    kind: [f.name for f in fields(cls) if f.default is MISSING] for kind, cls in _POLICY_CLASSES.items()
}
_COST_KEYS = {f.name for f in fields(CostModel)}


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
        if not isinstance(kind, str) or kind not in _POLICY_KEYS:
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
            obj = json.loads(fh.read())
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # also text that is not UTF-8, or an integer past Python's digit limit
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
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read corpus {path}: {exc}") from exc
    docs = [d for d in docs if d]
    if not docs:
        raise EmptyCorpus(f"corpus {path} has no documents")
    return docs


def parse_policy(obj: dict) -> Policy:
    """The policy ``obj`` describes. Only the keys that are its kind's settings
    are read, since a grid over ``kind`` allows the keys of every kind in it."""
    kind = obj["kind"]
    if kind not in _POLICY_CLASSES:
        raise ConfigError(f"unknown policy kind: {kind!r}")
    for name in _POLICY_REQUIRED[kind]:
        if name not in obj:
            raise ConfigError(f"{kind} policy needs {name}")
    return _POLICY_CLASSES[kind](**{k: v for k, v in obj.items() if k in _POLICY_KEYS[kind]})


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
    directory, for the CLI). Every cell's settings are checked, and every file
    it names read, before any training; so are the prompts of a cell whose
    target is a ``model_file``, encoded with that file's vocabulary. What
    needs a trained vocabulary (a corpus holding ``<eos>``, a prompt token
    outside a trained target's vocabulary) fails later. Each count table
    (one per corpus, tokenizer and vocabulary source) is trained once, at the
    highest order any cell asks of it; trained models are order-limited
    views of it, and cells share equal models. Cells with
    equal drafter settings share one ``DiffusionDrafter`` and its block cache:
    a block depends only on the mode and the backbone window of its prefix,
    and passes are deterministic.
    """
    validate_schema(config)
    texts: dict[object, list[str]] = {}  # corpus and prompt files by path, samples by spec
    documents: dict[tuple[str, str], list[list[str]]] = {}  # tokenized corpora by (path, tokenizer)
    files: dict[str, NGramModel] = {}  # model files by path
    orders: dict[tuple[str, str, str | None], int] = {}  # highest order asked of each table
    prompts: dict[tuple, list[list[int]]] = {}  # by (source, tokenizer, vocabulary)
    cells = []

    def encoded(source: object, tok_kind: str, vocabulary: Vocabulary) -> list[list[int]]:
        key = (source, tok_kind, vocabulary)
        if key not in prompts:
            prompts[key] = [vocabulary.encode(tokenize(t, tok_kind)) for t in texts[source]]
        return prompts[key]

    def tokenized(corpus_path: str, tok_kind: str) -> list[list[str]]:
        key = (corpus_path, tok_kind)
        if key not in documents:
            documents[key] = [tokenize(d, tok_kind) for d in texts[corpus_path]]
        return documents[key]

    def model_key(spec: dict, table_key: tuple) -> tuple[object, float]:
        """``spec``'s model key (its file's path, or its view of ``table_key``) and smoothing."""
        if "model_file" in spec:
            path = os.path.join(base_dir, str(spec["model_file"]))
            if path not in files:
                files[path] = load_model(path)
            return path, files[path].smoothing
        order = check_number(spec["order"], int, "order", at_least=1)
        smoothing = check_number(spec.get("smoothing", 0.1), float, "smoothing", at_least=0)
        orders[table_key] = max(order, orders.get(table_key, 0))
        return (table_key, order, smoothing), smoothing

    for resolved, assignment in expand_grid(config):
        corpus_path = os.path.join(base_dir, str(resolved["train_corpus"]))
        if corpus_path not in texts:
            texts[corpus_path] = read_corpus(corpus_path)
        tok_kind = str(resolved.get("tokenizer", "char"))
        if tok_kind not in TOKENIZER_KINDS:
            raise ConfigError(f"unknown tokenizer kind: {tok_kind!r}")
        if not isinstance(resolved.get("output_dir", ""), str):
            raise ConfigError(f"output_dir must be a string, got {resolved['output_dir']!r}")
        verifier = str(resolved.get("verifier", SweepCase.verifier))
        if verifier not in VERIFIER_KINDS:
            raise ConfigError(f"unknown verifier kind: {verifier!r}")
        policy = parse_policy(resolved["policy"])
        case_args = dict(
            policy=policy,
            seed=check_number(resolved.get("seed", SweepCase.seed), int, "seed", at_least=0),
            max_tokens=check_number(
                resolved.get("max_tokens", SweepCase.max_tokens), int, "max_tokens", at_least=1
            ),
            cost=CostModel(**resolved.get("cost", {})),
            verifier=verifier,
        )

        target_spec = resolved["target"]
        drafter_spec = dict(resolved["drafter"])
        block_size = drafter_spec.pop("block_size", DiffusionDrafter.block_size)
        unmask_threshold = drafter_spec.pop("unmask_threshold", DiffusionDrafter.unmask_threshold)
        check_settings(block_size, unmask_threshold)
        vocab_file = target_spec.get("model_file")  # the target's file, else the corpus
        vocab_source = None if vocab_file is None else os.path.join(base_dir, str(vocab_file))
        table_key = (corpus_path, tok_kind, vocab_source)
        target_key, _ = model_key(target_spec, table_key)
        backbone_key, drafter_smoothing = model_key(drafter_spec, table_key)
        if verifier == VERIFIER_STOCHASTIC and drafter_smoothing == 0:
            raise ConfigError(
                "stochastic verification with an unsmoothed drafter risks "
                "zero draft probabilities; set drafter smoothing > 0"
            )

        if "prompt_file" in resolved:
            source: object = os.path.join(base_dir, str(resolved["prompt_file"]))
            if source not in texts:
                texts[source] = read_corpus(source)
        else:
            spec = resolved["prompt_sample"]
            if "count" not in spec:
                raise ConfigError("prompt_sample needs 'count'")
            source = (
                corpus_path,
                tok_kind,
                check_number(spec["count"], int, "prompt_sample count", at_least=1),
                check_number(spec.get("length", 12), int, "prompt_sample length", at_least=1),
                check_number(spec.get("seed", 0), int, "prompt_sample seed", at_least=0),
            )
            if source not in texts:
                windows = sample_prompts(tokenized(corpus_path, tok_kind), *source[2:])
                texts[source] = [detokenize(w, tok_kind) for w in windows]
        if vocab_source is not None:
            encoded(source, tok_kind, files[vocab_source].vocabulary)

        dataset = os.path.splitext(os.path.basename(corpus_path))[0]
        suffix = ",".join(f"{k}={v}" for k, v in assignment.items())
        label = f"{resolved.get('label', dataset)}|{policy.label()}" + (f"|{suffix}" if suffix else "")
        # expand_grid gave this cell its own copy, so it becomes the snapshot.
        resolved.update(label=label, dataset=dataset, policy_label=policy.label(), tokenizer=tok_kind)
        case_args.update(label=label, config_snapshot=resolved)
        cells.append((case_args, target_key, (backbone_key, block_size, unmask_threshold), source, tok_kind))

    tables = {}
    for key, order in orders.items():
        corpus_path, tok_kind, vocab_source = key
        vocabulary = None if vocab_source is None else files[vocab_source].vocabulary
        tables[key] = train_ngram(tokenized(corpus_path, tok_kind), order, vocabulary=vocabulary)
    models: dict[object, NGramModel] = dict(files)  # and views by (table key, order, smoothing)
    drafters: dict[tuple[NGramModel, int, float], DiffusionDrafter] = {}
    runs: list[ResolvedRun] = []
    for case_args, target_key, (backbone_key, *settings), source, tok_kind in cells:
        for key in (target_key, backbone_key):
            if key not in models:
                table_key, order, smoothing = key
                models[key] = tables[table_key].with_order(order, smoothing)
        target = models[target_key]
        drafter_key = (models[backbone_key], *settings)
        if drafter_key not in drafters:
            drafters[drafter_key] = DiffusionDrafter(*drafter_key)
        case = SweepCase(target=target, drafter=drafters[drafter_key], **case_args)
        runs.append(ResolvedRun(case, encoded(source, tok_kind, target.vocabulary)))
    return runs

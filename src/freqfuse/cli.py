"""Command-line entry point.

Subcommands: synth | train | eval | retrieve | gradcheck | spectrum | ablate.
Common flags: --config, --seed, --out-dir, --workers. A config file is plain
key=value text (hash comments allowed); CLI flags override file values, which
override defaults. Unknown keys and unknown flags are usage errors.

Exit codes: 0 ok, 1 usage/config error, 2 data or contract error, 3 numeric
failure.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    NumericError,
    RetrievalError,
)
from .gradcheck import run_all
from .kernel import dft_magnitude_raw
from .model import TrainConfig, read_checkpoint, save_checkpoint
from .retrieval import (
    SIMILARITIES,
    SOFTMAX_TAU,
    TOP_K,
    KnowledgeBase,
    _check_options,
    _unit_queries,
    top_k,
)
from .training import (
    FoldResult,
    _run_fold_jobs,
    evaluate_arrays,
    make_folds,
    run_ablation_suite,
    summarize,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_PATH_KEYS = ("dataset", "kb", "out_dir", "workers")
_QUERY_TILE = 32  # query lines `retrieve` scores together
_CONFIG_KEYS = {f.name: f.type for f in fields(TrainConfig)}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2, with one stderr line;
    # --help still prints the usage. A flag is never read as an abbreviation,
    # so another subcommand's flag (retrieve's --k to eval) is unknown here,
    # not taken as --kb.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected on/off, got {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        for lineno, raw in data_mod.text_lines(path, "config"):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS and key not in _PATH_KEYS:
                raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
            out[key] = value
    except DataError as exc:  # unreadable or not UTF-8
        raise ConfigError(str(exc)) from exc
    return out


def _coerce(key: str, kind: type, value: str):
    """Parse a config or flag string as `kind`; a malformed value is a config error."""
    if kind is bool:
        return _parse_bool(value, key)
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="processes that train folds (default: one per usable core)")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """One --<field> flag per TrainConfig field but the common --seed; values
    are parsed and checked as config-file values are."""
    for key, kind in _CONFIG_KEYS.items():
        if key != "seed":
            choices = ["on", "off"] if kind is bool else None
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key, choices=choices)
    parser.add_argument("--fold", action="append", type=int, default=None,
                        help="train only these folds (repeatable); default all")


def build_parser() -> _Parser:
    parser = _Parser(prog="freqfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset and knowledge base")
    _add_common(p_synth)
    p_synth.add_argument("--classes", type=int, default=4)
    p_synth.add_argument("--per-class", dest="per_class", type=int, default=100)
    p_synth.add_argument("--d-model", dest="d_model", type=int, default=64)
    p_synth.add_argument("--sigma", type=float, default=0.3)
    p_synth.add_argument("--amplitude", type=float, default=data_mod.SYNTH_AMPLITUDE)
    p_synth.add_argument("--samples-per-image", dest="samples_per_image", type=int, default=1)

    p_train = sub.add_parser("train", help="cross-validated training")
    _add_common(p_train)
    p_train.add_argument("--dataset", default=None)
    p_train.add_argument("--kb", default=None)
    _add_train_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p_eval)
    p_eval.add_argument("--dataset", default=None)
    p_eval.add_argument("--kb", default=None)
    p_eval.add_argument("--checkpoint", required=True)

    p_ret = sub.add_parser("retrieve", help="probe the knowledge base with query vectors")
    _add_common(p_ret)
    p_ret.add_argument("--kb", default=None)
    p_ret.add_argument("--queries", required=True,
                       help="JSONL file, one vector per line: a number list or base64 float64 text")
    p_ret.add_argument("--k", type=int, default=TOP_K)
    p_ret.add_argument("--tau", type=float, default=SOFTMAX_TAU)
    p_ret.add_argument("--similarity", choices=SIMILARITIES, default="fidelity")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every op")
    _add_common(p_grad)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)

    p_spec = sub.add_parser("spectrum", help="dump input-feature magnitude spectra as CSV")
    _add_common(p_spec)
    p_spec.add_argument("--dataset", default=None)
    p_spec.add_argument("--limit", type=int, default=0, help="0 means all samples")

    p_abl = sub.add_parser("ablate", help="run the component ablation suite")
    _add_common(p_abl)
    p_abl.add_argument("--dataset", default=None)
    p_abl.add_argument("--kb", default=None)
    _add_train_flags(p_abl)

    return parser


def _resolve(args, file_values: dict[str, str], key: str, default=None, kind: type = str):
    """The flag's value, else the config file's, else the default; strings
    (file and train-flag values) are parsed as `kind`."""
    value = getattr(args, key, None)
    if value is None:
        value = file_values.get(key, default)
    return _coerce(key, kind, value) if isinstance(value, str) else value


def _train_config_from(args, file_values: dict[str, str]) -> TrainConfig:
    kwargs = {}
    for key, kind in _CONFIG_KEYS.items():
        value = _resolve(args, file_values, key, kind=kind)
        if value is not None:
            kwargs[key] = value
    return TrainConfig(**kwargs)


def _selected_folds(args, config: TrainConfig) -> list[int]:
    folds = args.fold if args.fold else list(range(config.folds))
    for fold in folds:
        if not 0 <= fold < config.folds:
            raise ConfigError(f"fold {fold} outside [0, {config.folds})")
    return folds


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"missing required {flag}")
    return value


def _out_dir(args, file_values, required: bool = True) -> str | None:
    """The resolved --out-dir, made now if missing, so that a path that is not
    a directory and cannot be made fails before any work starts."""
    out_dir = _resolve(args, file_values, "out_dir")
    if out_dir is None:
        return _require(out_dir, "--out-dir") if required else None
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"--out-dir {out_dir} is not a directory and cannot be made: {exc.strerror}"
        ) from exc
    return out_dir


def _load_kb(path: str | None, d_model: int | None = None) -> KnowledgeBase | None:
    """The KB at `path`, if any; with `d_model`, a line of another width is
    a data error that names it."""
    if path is None:
        return None
    return KnowledgeBase(data_mod.load_knowledge_base(path, d_model=d_model))


def _fold_payload(result: FoldResult) -> dict:
    return {
        "fold": result.fold,
        "best_epoch": result.best_epoch,
        "metrics": asdict(result.metrics),
        "history": [asdict(h) for h in result.history],
    }


def cmd_synth(args, file_values) -> int:
    out_dir = _out_dir(args, file_values)
    seed = _resolve(args, file_values, "seed", 0, int)
    manifest, samples, kb = data_mod.generate_synthetic(
        n_classes=args.classes,
        n_per_class=args.per_class,
        d_model=args.d_model,
        sigma=args.sigma,
        seed=seed,
        samples_per_image=args.samples_per_image,
        amplitude=args.amplitude,
    )
    dataset_path = os.path.join(out_dir, "dataset.jsonl")
    kb_path = os.path.join(out_dir, "kb.jsonl")
    data_mod.save_dataset(dataset_path, manifest, samples)
    data_mod.save_knowledge_base(kb_path, kb)
    print(dataset_path)
    print(kb_path)
    return EXIT_OK


def _load_train_inputs(dataset_path: str, kb_path: str | None):
    """Parse the dataset and KB once, before any job or worker starts."""
    manifest, samples = data_mod.load_dataset(dataset_path)
    return manifest, samples, _load_kb(kb_path, manifest.d_model)


def cmd_train(args, file_values) -> int:
    dataset_path = _require(_resolve(args, file_values, "dataset"), "--dataset")
    kb_path = _resolve(args, file_values, "kb")
    workers = _resolve(args, file_values, "workers", kind=int)
    config = _train_config_from(args, file_values)
    folds = _selected_folds(args, config)
    out_dir = _out_dir(args, file_values)
    manifest, samples, kb = _load_train_inputs(dataset_path, kb_path)
    fold_ids = make_folds(samples, k=config.folds, seed=config.seed)
    jobs = [(config, fold) for fold in folds]
    results = dict(zip(folds, _run_fold_jobs((manifest, samples, kb, fold_ids), jobs, workers)))

    rows = [("train", fold, results[fold].metrics) for fold in folds]
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), rows)
    summary = {
        "config": asdict(config),
        "folds": [_fold_payload(results[fold]) for fold in folds],
        "summary": summarize([results[fold].metrics for fold in folds]),
    }
    data_mod.atomic_write_text(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, indent=2, allow_nan=False) + "\n",
    )
    for fold in folds:
        save_checkpoint(
            os.path.join(out_dir, f"fold{fold}.ckpt.json"),
            results[fold].params,
            extra_meta={"train_config": asdict(config), "fold": fold},
        )
    print(os.path.join(out_dir, "metrics.csv"))
    return EXIT_OK


def cmd_eval(args, file_values) -> int:
    dataset_path = _require(_resolve(args, file_values, "dataset"), "--dataset")
    kb_path = _resolve(args, file_values, "kb")
    out_dir = _out_dir(args, file_values, required=False)
    manifest, samples = data_mod.load_dataset(dataset_path)
    if not samples:
        raise DataError(f"{dataset_path}: dataset has no samples to evaluate")
    params, meta = read_checkpoint(args.checkpoint)
    beyond = next((s for s in samples if s.answer_class >= params.n_classes), None)
    if beyond is not None:
        raise DataError(
            f"{dataset_path}: sample {beyond.sample_id!r} has answer_class "
            f"{beyond.answer_class}, but checkpoint {args.checkpoint} predicts "
            f"{params.n_classes} classes"
        )
    stored = meta.get("train_config", {})
    if not isinstance(stored, dict):
        raise DataError(f"checkpoint {args.checkpoint}: meta.train_config is not an object")
    if stored.get("retrieval_tau", SOFTMAX_TAU) != SOFTMAX_TAU:  # kept by older checkpoints
        raise DataError(f"checkpoint {args.checkpoint}: train_config retrieval_tau="
                        f"{stored['retrieval_tau']!r} is not the fixed {SOFTMAX_TAU}")
    kwargs = {k: v for k, v in stored.items() if k in _CONFIG_KEYS}
    for key, value in kwargs.items():
        kind = _CONFIG_KEYS[key]
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise DataError(
                f"checkpoint {args.checkpoint}: train_config {key}={value!r} is not {kind.__name__}"
            )
    try:
        config = TrainConfig(**kwargs)
    except ConfigError as exc:
        raise DataError(f"checkpoint {args.checkpoint}: train_config {exc}") from exc
    kb = _load_kb(kb_path, params.d_model)
    k = config.retrieval_k
    if params.fusion_mode == "freq_plus_knowledge" and kb is not None and k > len(kb):
        raise DataError(
            f"checkpoint {args.checkpoint}: train_config retrieval_k={k} "
            f"exceeds the {len(kb)} entries of knowledge base {kb_path}"
        )
    report = evaluate_arrays(
        params,
        data_mod.question_matrix(samples),
        data_mod.image_matrix(samples),
        data_mod.labels_array(samples),
        kb,
        config,
    )
    payload = json.dumps({"metrics": asdict(report)}, indent=2, allow_nan=False) + "\n"
    if out_dir:
        data_mod.atomic_write_text(os.path.join(out_dir, "metrics.json"), payload)
        print(os.path.join(out_dir, "metrics.json"))
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_retrieve(args, file_values) -> int:
    kb_path = _require(_resolve(args, file_values, "kb"), "--kb")
    out_dir = _out_dir(args, file_values, required=False)
    kb = _load_kb(kb_path)
    _check_options(kb, args.k, args.tau, args.similarity)
    vectors = []
    for lineno, line in data_mod.text_lines(args.queries, "queries"):
        if not line.strip():
            continue
        where = f"{args.queries} line {lineno}"
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: not a JSON number array or base64 text") from exc
        if isinstance(value, list) and len(value) != kb.d_model:
            raise DataError(
                f"{where}: query width {len(value)} does not match knowledge base width "
                f"{kb.d_model}"
            )
        vec = data_mod._float_list(value, kb.d_model, where)
        try:
            _unit_queries(vec[None, :], kb.d_model)
        except ContractError as exc:  # width, NaN and Inf were rejected above
            raise DataError(f"{where}: query norm overflows float64") from exc
        except DegenerateInputError as exc:  # its norm is zero
            raise DataError(f"{where}: {exc}") from exc
        vectors.append(vec)
    lines = []  # one JSON Lines record per query; none for no queries
    for start in range(0, len(vectors), _QUERY_TILE):
        hits = top_k(np.stack(vectors[start : start + _QUERY_TILE]), kb, args.k, args.tau,
                     args.similarity)
        lines.extend(
            json.dumps({"ids": [kb.columns.ids[i] for i in order],
                        "similarities": top.tolist(), "weights": weights.tolist()}) + "\n"
            for order, top, weights in zip(*hits)
        )
    text = "".join(lines)
    if out_dir:
        data_mod.atomic_write_text(os.path.join(out_dir, "retrieval.jsonl"), text)
        print(os.path.join(out_dir, "retrieval.jsonl"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gradcheck(args, file_values) -> int:
    seed = _resolve(args, file_values, "seed", 0, int)
    if not 0 < args.tolerance < np.inf:
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance}")
    results = run_all(seed=seed, tolerance=args.tolerance)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:18s} {status}  rel_err={r.error:.3e}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_NUMERIC


def cmd_spectrum(args, file_values) -> int:
    dataset_path = _require(_resolve(args, file_values, "dataset"), "--dataset")
    if args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    out_dir = _out_dir(args, file_values)
    manifest, samples = data_mod.load_dataset(dataset_path)
    if args.limit > 0:
        samples = samples[: args.limit]
    lines = ["id,modality,bin,magnitude"]
    for sample in samples:
        question = (
            sample.question_features
            if sample.question_features is not None
            else data_mod.embed_text_stub(sample.question_tokens)
        )
        for modality, vec in (("text", question), ("image", sample.image_features)):
            mags, _ = dft_magnitude_raw(vec)
            for b, m in enumerate(mags):
                lines.append(f"{sample.sample_id},{modality},{b},{float(m)!r}")
    path = os.path.join(out_dir, "spectra.csv")
    data_mod.atomic_write_text(path, "\n".join(lines) + "\n")
    print(path)
    return EXIT_OK


def cmd_ablate(args, file_values) -> int:
    dataset_path = _require(_resolve(args, file_values, "dataset"), "--dataset")
    kb_path = _resolve(args, file_values, "kb")
    workers = _resolve(args, file_values, "workers", kind=int)
    config = _train_config_from(args, file_values)
    folds = _selected_folds(args, config)
    out_dir = _out_dir(args, file_values)
    results = run_ablation_suite(*_load_train_inputs(dataset_path, kb_path), config, folds, workers)

    rows = []
    summary = {}
    for variant, per_fold in results.items():
        rows.extend((variant, fold, r.metrics) for fold, r in zip(folds, per_fold))
        summary[variant] = summarize([r.metrics for r in per_fold])
    write_metrics_csv(os.path.join(out_dir, "ablation.csv"), rows)
    data_mod.atomic_write_text(
        os.path.join(out_dir, "ablation_summary.json"),
        json.dumps({"config": asdict(config), "summary": summary}, indent=2, allow_nan=False)
        + "\n",
    )
    print(os.path.join(out_dir, "ablation.csv"))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "retrieve": cmd_retrieve,
    "gradcheck": cmd_gradcheck,
    "spectrum": cmd_spectrum,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        file_values = read_config_file(args.config) if args.config is not None else {}
        # non-finite values are reported once, by the program's own checks,
        # not also as numpy warnings (fold workers inherit this setting)
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args, file_values)
    except ConfigError as exc:
        print(f"freqfuse: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ContractError, RetrievalError, DegenerateInputError) as exc:
        print(f"freqfuse: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"freqfuse: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's names the array's size, shape and dtype
        print(f"freqfuse: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a write that fails after the --out-dir check; names the file
        print(f"freqfuse: I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

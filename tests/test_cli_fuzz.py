"""Seeded mutation test of the whole CLI.

Valid inputs of every kind (dataset, knowledge base, checkpoint, queries,
config file, and the dataset `spectrum` reads) are mutated by byte flips,
cuts and JSON value tokens, then run through `cli.main` in-process with
`--workers 1`. Whatever the input, a run ends with a documented exit code
(0 to 3) and at most one stderr line, and no exception escapes `main`.
Semantic cases (edited headers and checkpoint meta, an out-dir that is a
file, bad flag and config values, vectors whose base64 text is wrong) must
exit with their documented code. Seeded argv mutations of every subcommand
(a flag dropped or repeated, a value replaced, another subcommand's flag)
must too. No run starts a process: the trainer runs its fold jobs in-process.
"""

import base64
import json
import multiprocessing.process
import re
import zlib

import numpy as np
import pytest

from freqfuse import gradcheck
from freqfuse.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from test_training import _use_in_process_pool

SEED = 20261019
TOKENS = (b"true", b"1e999", b"NaN", b"[]", b"\xff")
# a JSON (or key=value) value: a number, a literal or a short string
_VALUE = re.compile(rb'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null|"[^"\n]{0,40}"')
# half of the mutations land in the first bytes, where headers and meta are
_HEAD = 1024
SMALL = ["--folds", "2", "--fold", "0", "--max-epochs", "1", "--hidden1", "8", "--hidden2", "4",
         "--batch-size", "8"]
# a config run's size comes from flags (they beat file values), so that a cut
# that drops a line never falls back to the full-size defaults
CONFIG = (
    "# knowledge-fusion run\n"
    "folds = 2\nbatch_size = 8\nlr = 0.001\nclip_norm = 5.0\ndropout = 0.1\n"
    "retrieval_k = 2\nfusion_mode = freq_plus_knowledge\n"
    "similarity = fidelity\nseed = 5\n"
)


def _refuse_to_start(process):
    raise AssertionError(f"a CLI run started process {process.name}")


@pytest.fixture(autouse=True)
def no_processes(monkeypatch):
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", _refuse_to_start)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of each kind: a 2-class, 8-wide synthetic dataset and KB,
    a knowledge-fusion checkpoint trained on them, the KB's embeddings as
    queries, and a config file."""
    base = tmp_path_factory.mktemp("fuzz-inputs")
    assert main(["synth", "--out-dir", str(base), "--classes", "2", "--per-class", "4",
                 "--d-model", "8", "--sigma", "0.2", "--seed", "5", "--workers", "1"]) == EXIT_OK
    assert main(["train", "--dataset", str(base / "dataset.jsonl"), "--kb", str(base / "kb.jsonl"),
                 "--out-dir", str(base / "run"), "--fusion-mode", "freq_plus_knowledge",
                 "--seed", "5", "--workers", "1", *SMALL]) == EXIT_OK
    queries = base / "queries.jsonl"
    queries.write_text("".join(
        json.dumps(json.loads(line)["embedding"]) + "\n"
        for line in (base / "kb.jsonl").read_text().splitlines()
    ))
    config = base / "run.cfg"
    config.write_text(CONFIG)
    return {
        "dataset": base / "dataset.jsonl",
        "kb": base / "kb.jsonl",
        "checkpoint": base / "run" / "fold0.ckpt.json",
        "queries": queries,
        "config": config,
    }


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One bit flipped, a cut (at a line start half of the time), or one
    value replaced by a JSON token. A flipped bit often leaves a digit a
    digit, and a cut at a line start leaves whole lines, so valid inputs of
    other values and sizes are drawn as well as broken ones."""
    span = len(data) if rng.random() < 0.5 else min(len(data), _HEAD)
    kind = int(rng.integers(3))
    if kind == 0:
        pos = int(rng.integers(span))
        return data[:pos] + bytes([data[pos] ^ 1 << int(rng.integers(8))]) + data[pos + 1 :]
    if kind == 1:
        cut = int(rng.integers(span))
        return data[: data.rfind(b"\n", 0, cut) + 1 if rng.random() < 0.5 else cut]
    values = list(_VALUE.finditer(data[:span]))
    match = values[int(rng.integers(len(values)))]
    return data[: match.start()] + TOKENS[int(rng.integers(len(TOKENS)))] + data[match.end() :]


def _outcome(argv, capsys):
    """(exit code, stderr lines) of one in-process run; the code is the
    exception's description when one escapes main."""
    capsys.readouterr()
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
        code = f"{type(exc).__name__} escaped main: {exc}"
    return code, capsys.readouterr().err.strip().splitlines()


def _run(argv, capsys):
    return _outcome([*argv, "--workers", "1"], capsys)


def _problem(code, err, expected=None) -> str | None:
    if expected is not None and code != expected:
        return f"exit {code} (expected {expected}); stderr {err}"
    if code not in (0, 1, 2, 3):
        return f"exit {code}; stderr {err}"
    if len(err) > 1:
        return f"{len(err)} stderr lines: {err[:3]}"
    return None


def _source(kind):
    return "dataset" if kind == "spectrum" else kind


def _command(kind, inputs, out, path=None):
    """argv that feeds the input file `path` of `kind` (default: the valid
    one) to the command reading it."""
    path = str(path or inputs[_source(kind)])
    dataset, kb, ckpt = str(inputs["dataset"]), str(inputs["kb"]), str(inputs["checkpoint"])
    argv = {
        "dataset": ["train", "--dataset", path, "--kb", kb, "--fusion-mode",
                    "freq_plus_knowledge", *SMALL],
        "kb": ["eval", "--dataset", dataset, "--kb", path, "--checkpoint", ckpt],
        "checkpoint": ["eval", "--dataset", dataset, "--kb", kb, "--checkpoint", path],
        "queries": ["retrieve", "--kb", kb, "--queries", path, "--k", "2"],
        "config": ["train", "--config", path, "--dataset", dataset, "--kb", kb, "--fold", "0",
                   "--max-epochs", "1", "--hidden1", "8", "--hidden2", "4"],
        "spectrum": ["spectrum", "--dataset", path, "--limit", "2"],
    }[kind]
    return argv + ["--out-dir", str(out)]


RUNS = {"dataset": 55, "kb": 60, "checkpoint": 70, "queries": 70, "config": 55, "spectrum": 55}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_unmutated_input_exits_0_without_stderr(kind, inputs, tmp_path, capsys):
    """Each kind's valid input runs cleanly, so that its mutations start
    from a working input: an invalid base would fail every mutation for
    the same reason and hide the rest."""
    assert _run(_command(kind, inputs, tmp_path / "out"), capsys) == (EXIT_OK, [])


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_mutated_input_ends_with_a_documented_exit(kind, inputs, tmp_path, capsys):
    rng = np.random.default_rng([SEED, zlib.crc32(kind.encode())])
    valid = inputs[_source(kind)].read_bytes()
    failures = []
    for i in range(RUNS[kind]):
        path = tmp_path / f"input{i}"
        path.write_bytes(_mutate(valid, rng))
        problem = _problem(*_run(_command(kind, inputs, tmp_path / f"out{i}", path), capsys))
        if problem:
            failures.append(f"mutation {i}: {problem}")
    assert not failures, "\n".join(failures)


def _edited(kind, edit, lineno=1):
    """The input of `kind` with the JSON object on line `lineno` changed in
    place by edit(obj), fed to the command that reads it."""

    def build(inputs, tmp_path):
        lines = inputs[kind].read_text().split("\n")
        obj = json.loads(lines[lineno - 1])
        edit(obj)
        lines[lineno - 1] = json.dumps(obj)
        path = tmp_path / f"edited-{kind}"
        path.write_text("\n".join(lines))
        return _command(kind, inputs, tmp_path / "out", path)

    return build


def _header(**values):
    return _edited("dataset", lambda obj: obj["meta"].update(values))


def _meta(**values):
    return _edited("checkpoint", lambda obj: obj["meta"].update(values))


def _train_config(**values):
    return _edited("checkpoint", lambda obj: obj["meta"]["train_config"].update(values))


def _label_beyond_checkpoint(inputs, tmp_path):
    # a 3-class header and a label 2, against a checkpoint that predicts 2 classes
    objs = [json.loads(line) for line in inputs["dataset"].read_text().splitlines()]
    objs[0]["meta"]["C"] = 3
    objs[1]["answer_class"] = 2
    path = tmp_path / "three-classes.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return ["eval", "--dataset", str(path), "--kb", str(inputs["kb"]),
            "--checkpoint", str(inputs["checkpoint"])]


def _tied_checkpoint(obj):
    # a checkpoint saved with one filter bank for both modalities
    obj["meta"]["tie_filters"] = True
    del obj["params"]["fusion.w_filter_image"], obj["params"]["fusion.b_filter_image"]


def _checkpoint_before_switch_removal(obj):
    obj["meta"]["tie_filters"] = False
    obj["meta"]["train_config"].update(
        retrieval=True, contrastive_space="spatial", tie_filters=False
    )


def _bad_base64(kind, key, case):
    """Line 2 of the dataset or KB with the vector `key` as wrong base64 text:
    a character outside the alphabet, padding in the middle, one value short,
    or the bit pattern of NaN, +Inf or -Inf in its first value."""

    def edit(obj):
        text = obj[key]
        values = np.frombuffer(base64.b64decode(text), "<f8").copy()
        if case in ("nan", "inf", "minus-inf"):
            values[0] = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf}[case]
        obj[key] = {
            "alphabet": text[:10] + "*" + text[11:],
            "padding": text[:4] + "==" + text[6:],
            "byte-count": base64.b64encode(values[1:].tobytes()).decode(),
        }.get(case, base64.b64encode(values.tobytes()).decode())

    return _edited(kind, edit, lineno=2)


def _kb_id_repeated(inputs, tmp_path):
    first = json.loads(inputs["kb"].read_text().splitlines()[0])["id"]
    return _edited("kb", lambda obj: obj.update(id=first), lineno=2)(inputs, tmp_path)


def _out_dir_is_a_file(command):
    def build(inputs, tmp_path):
        out = tmp_path / "a-file"
        out.write_text("")
        if command == "synth":
            return ["synth", "--out-dir", str(out)]
        kind = {"eval": "checkpoint", "retrieve": "queries", "spectrum": "spectrum"}
        argv = _command(kind.get(command, "dataset"), inputs, out)
        return [command, *argv[1:]]  # ablate takes train's flags

    return build


def _with_flags(kind, *flags):
    return lambda inputs, tmp_path: _command(kind, inputs, tmp_path / "out") + list(flags)


def _argv(*argv):
    return lambda inputs, tmp_path: [*argv, "--out-dir", str(tmp_path / "out")]


def _config(text):
    def build(inputs, tmp_path):
        path = tmp_path / "edited.cfg"
        path.write_text(CONFIG + text + "\n")
        return _command("config", inputs, tmp_path / "out", path)

    return build


SEMANTIC = {
    "header-C-one": (_header(C=1), EXIT_DATA),
    "header-C-true": (_header(C=True), EXIT_DATA),
    "header-d-model-wider": (_header(d_model=16), EXIT_DATA),
    "header-d-model-string": (_header(d_model="8"), EXIT_DATA),
    "eval-label-beyond-checkpoint-classes": (_label_beyond_checkpoint, EXIT_DATA),
    "kb-id-repeated": (_kb_id_repeated, EXIT_DATA),
    **{f"{kind}-{key.split('_')[0]}-base64-{case}": (_bad_base64(kind, key, case), EXIT_DATA)
       for kind, key in (("dataset", "image_features"), ("dataset", "question_features"),
                         ("kb", "embedding"))
       for case in ("alphabet", "padding", "byte-count", "nan", "inf", "minus-inf")},
    "ckpt-n-classes": (_meta(n_classes=3), EXIT_DATA),
    "ckpt-d-model": (_meta(d_model=16), EXIT_DATA),
    "ckpt-fusion-mode-freq-only": (_meta(fusion_mode="freq_only"), EXIT_DATA),
    "ckpt-fusion-mode-unknown": (_meta(fusion_mode="spatial"), EXIT_DATA),
    "ckpt-k-filters-negative": (_meta(k_filters=-1), EXIT_DATA),
    "ckpt-hidden1-negative": (_meta(hidden1=-1), EXIT_DATA),
    "ckpt-hidden2-zero": (_meta(hidden2=0), EXIT_DATA),
    "ckpt-dropout-above-one": (_meta(dropout=1.5), EXIT_DATA),
    "ckpt-format-version": (_edited("checkpoint", lambda o: o.update(format_version=3)),
                            EXIT_DATA),
    **{f"ckpt-format-version-{name}": (
        _edited("checkpoint", lambda o, v=value: o.update(format_version=v)), EXIT_DATA)
       for name, value in (("1", 1), ("true", True), ("1.0", 1.0), ("2.0", 2.0))},
    "ckpt-tied-filters": (_edited("checkpoint", _tied_checkpoint), EXIT_DATA),
    "ckpt-before-switch-removal": (_edited("checkpoint", _checkpoint_before_switch_removal),
                                   EXIT_OK),
    "ckpt-retrieval-k-above-kb": (_train_config(retrieval_k=100), EXIT_DATA),
    "ckpt-similarity-dot": (_train_config(similarity="dot"), EXIT_DATA),
    **{f"{command}-out-dir-is-a-file": (_out_dir_is_a_file(command), EXIT_USAGE)
       for command in ("synth", "train", "ablate", "eval", "retrieve", "spectrum")},
    "synth-seed-negative": (_argv("synth", "--seed", "-1"), EXIT_USAGE),
    "train-seed-negative": (_with_flags("dataset", "--seed", "-1"), EXIT_USAGE),
    "gradcheck-seed-negative": (_argv("gradcheck", "--seed", "-1"), EXIT_USAGE),
    "config-seed-negative": (_config("seed = -1"), EXIT_USAGE),
    "synth-classes-one": (_argv("synth", "--classes", "1"), EXIT_USAGE),
    "synth-classes-zero": (_argv("synth", "--classes", "0"), EXIT_USAGE),
    "synth-sigma-nan": (_argv("synth", "--sigma", "nan"), EXIT_USAGE),
    "synth-amplitude-inf": (_argv("synth", "--amplitude", "inf"), EXIT_USAGE),
    "gradcheck-tolerance-nan": (_argv("gradcheck", "--tolerance", "nan"), EXIT_USAGE),
    "gradcheck-tolerance-negative": (_argv("gradcheck", "--tolerance", "-1"), EXIT_USAGE),
    "config-retrieval-removed": (_config("retrieval = on"), EXIT_USAGE),
    "config-contrastive-space-removed": (_config("contrastive_space = enhanced"), EXIT_USAGE),
    "config-tie-filters-removed": (_config("tie_filters = on"), EXIT_USAGE),
    "train-hidden1-beyond-memory": (_with_flags("dataset", "--hidden1", "100000000000"),
                                    EXIT_USAGE),
    "ckpt-hidden1-beyond-memory": (_meta(hidden1=100000000000), EXIT_DATA),
    "train-seed-not-an-int": (_with_flags("dataset", "--seed", "abc"), EXIT_USAGE),
    "train-flag-of-eval": (_with_flags("dataset", "--checkpoint", "x"), EXIT_USAGE),
    "train-flag-without-value": (_with_flags("dataset", "--lr"), EXIT_USAGE),
    "unknown-command": (_argv("frobnicate"), EXIT_USAGE),
    "train-lr-diverges": (_with_flags("dataset", "--lr", "1e300"), EXIT_NUMERIC),
}


@pytest.mark.parametrize("case", list(SEMANTIC))
def test_semantic_case_exits_with_its_code(case, inputs, tmp_path, capsys):
    build, expected = SEMANTIC[case]
    problem = _problem(*_run(build(inputs, tmp_path), capsys), expected=expected)
    assert problem is None, problem


# Argv mutations start from one valid argv per subcommand that passes every
# flag it has, with tiny inputs and `--workers 1`.
TRAIN_FLAGS = ["--fusion-mode", "freq_plus_knowledge", "--folds", "2", "--fold", "0",
               "--max-epochs", "1", "--patience", "1", "--hidden1", "8", "--hidden2", "4",
               "--batch-size", "8", "--lr", "0.001", "--clip-norm", "5", "--dropout", "0.1",
               "--retrieval-k", "2", "--frequency", "on", "--contrastive", "on",
               "--co-selection", "on", "--similarity", "fidelity"]
ARGV_VALUES = ("abc", "-1", "0", "1e999", "nan", "")
# flags naming a file the run reads: a missing one is a data error
_INPUT_FLAGS = {"--dataset", "--kb", "--queries", "--checkpoint"}
# the values of ARGV_VALUES a flag takes; any other is a usage error. An
# --out-dir is made under any name but the empty one.
_TAKES = {"--out-dir": {"abc", "-1", "0", "1e999", "nan"}, "--seed": {"0"}, "--fold": {"0"},
          "--sigma": {"0"}, "--patience": {"0"}, "--clip-norm": {"0"}, "--dropout": {"0"},
          "--limit": {"0"}}
# common flags a subcommand parses but never reads, with the values they take
_UNREAD = {("gradcheck", "--out-dir"): set(ARGV_VALUES),
           **{(command, "--seed"): {"-1", "0"} for command in ("eval", "retrieve", "spectrum")},
           **{(command, "--workers"): {"-1", "0"}
              for command in ("synth", "eval", "retrieve", "gradcheck", "spectrum")}}
# flags whose absence is a usage error; the KB is required where the config
# or checkpoint fuses knowledge
_REQUIRED = {"synth": {"--out-dir"}, "train": {"--dataset", "--kb", "--out-dir"},
             "ablate": {"--dataset", "--kb", "--out-dir"},
             "eval": {"--dataset", "--kb", "--checkpoint"}, "retrieve": {"--kb", "--queries"},
             "gradcheck": set(), "spectrum": {"--dataset", "--out-dir"}}
# argv mutations drawn per subcommand, by kind
ARGV_DRAWS = {"value": 12, "drop": 4, "repeat": 3, "foreign": 3}


def _valid_argvs(inputs):
    dataset, kb = str(inputs["dataset"]), str(inputs["kb"])
    specific = {
        "synth": ["--classes", "2", "--per-class", "2", "--d-model", "8", "--sigma", "0.2",
                  "--amplitude", "0.25", "--samples-per-image", "1"],
        "train": ["--dataset", dataset, "--kb", kb, *TRAIN_FLAGS],
        "ablate": ["--dataset", dataset, "--kb", kb, *TRAIN_FLAGS],
        "eval": ["--dataset", dataset, "--kb", kb, "--checkpoint", str(inputs["checkpoint"])],
        "retrieve": ["--kb", kb, "--queries", str(inputs["queries"]), "--k", "2", "--tau", "0.1",
                     "--similarity", "fidelity"],
        "gradcheck": ["--tolerance", "1e-4"],
        "spectrum": ["--dataset", dataset, "--limit", "2"],
    }
    common = ["--config", str(inputs["config"]), "--seed", "5", "--workers", "1",
              "--out-dir", "out"]
    return {command: [command, *common, *flags] for command, flags in specific.items()}


def _argv_mutations(command, argvs):
    """Every mutation of `command`'s valid argv, by kind, as (row name, argv,
    documented exit code). Every flag in a valid argv takes a value."""
    argv = argvs[command]
    own = argv[1::2]
    flags = [(i, flag) for i, flag in enumerate(argv) if flag.startswith("--")]
    foreign = sorted({f for a in argvs.values() for f in a[1::2]} - set(own))

    def value_exit(flag, value):
        if value in _TAKES.get(flag, set()) | _UNREAD.get((command, flag), set()):
            return EXIT_OK
        return EXIT_DATA if flag in _INPUT_FLAGS else EXIT_USAGE

    return {
        "value": [(f"{command} {flag} {value!r}", argv[: i + 1] + [value] + argv[i + 2 :],
                   value_exit(flag, value)) for i, flag in flags for value in ARGV_VALUES],
        "drop": [(f"{command} without {flag}", argv[:i] + argv[i + 2 :],
                  EXIT_USAGE if flag in _REQUIRED[command] else EXIT_OK) for i, flag in flags],
        "repeat": [(f"{command} {flag} twice", argv + argv[i : i + 2], EXIT_OK)
                   for i, flag in flags],
        "foreign": [(f"{command} {flag} of another subcommand", argv + [flag, "1"], EXIT_USAGE)
                    for flag in foreign],
    }


@pytest.mark.parametrize("command", ["synth", "train", "eval", "retrieve", "gradcheck",
                                     "spectrum", "ablate"])
def test_argv_mutation_exits_with_its_code(command, inputs, tmp_path, capsys, monkeypatch):
    """A seeded draw of each kind of argv mutation ends with its documented
    exit code and one stderr line, or none when it exits 0. Runs in tmp_path,
    where a mutated --out-dir is made. Fold jobs go to an in-process pool, so
    --workers and --folds mutations start no process; gradcheck runs one
    suite."""
    monkeypatch.chdir(tmp_path)
    _use_in_process_pool(monkeypatch, cores=2)
    monkeypatch.setattr(gradcheck, "ALL_SUITES", gradcheck.ALL_SUITES[:1])
    rng = np.random.default_rng([SEED, zlib.crc32(command.encode())])
    failures = []
    for kind, rows in _argv_mutations(command, _valid_argvs(inputs)).items():
        for j in rng.choice(len(rows), size=min(ARGV_DRAWS[kind], len(rows)), replace=False):
            name, argv, expected = rows[j]
            code, err = _outcome(argv, capsys)
            if code != expected or len(err) != (code != EXIT_OK):
                failures.append(f"{name}: exit {code} (expected {expected}); stderr {err}")
    assert not failures, "\n".join(failures)

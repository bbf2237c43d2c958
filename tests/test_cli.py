import base64
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import freqfuse
from freqfuse.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main, read_config_file
from freqfuse.errors import ConfigError


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        [
            "synth",
            "--out-dir",
            str(out),
            "--classes",
            "2",
            "--per-class",
            "6",
            "--d-model",
            "16",
            "--sigma",
            "0.1",
            "--seed",
            "3",
        ]
    )
    assert code == EXIT_OK
    return out


def test_help_lists_subcommands(capsys):
    code = run(["--help"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    for name in ("synth", "train", "eval", "retrieve", "gradcheck", "spectrum", "ablate"):
        assert name in text


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_help_lists_no_removed_switch(command, capsys):
    assert run([command, "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "--fusion-mode" in text
    for flag in ("--retrieval ", "--contrastive-space", "--tie-filters", "--weight-decay",
                 "--lr-decay", "--lr-decay-every", "--k-filters", "--retrieval-tau",
                 "--aug-sigma"):
        assert flag not in text


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--no-such-flag"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_synth_outputs_loadable_and_deterministic(synth_dir, tmp_path):
    from freqfuse.data import load_dataset, load_knowledge_base

    manifest, samples = load_dataset(str(synth_dir / "dataset.jsonl"))
    assert manifest.n_classes == 2
    assert len(samples) == 12
    kb = load_knowledge_base(str(synth_dir / "kb.jsonl"))
    assert len(kb) == 4

    again = tmp_path / "again"
    code = run(
        [
            "synth", "--out-dir", str(again), "--classes", "2", "--per-class", "6",
            "--d-model", "16", "--sigma", "0.1", "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    assert (again / "dataset.jsonl").read_bytes() == (synth_dir / "dataset.jsonl").read_bytes()
    assert (again / "kb.jsonl").read_bytes() == (synth_dir / "kb.jsonl").read_bytes()


def test_synth_rejects_impossible_band_count(tmp_path, capsys):
    code = run(["synth", "--out-dir", str(tmp_path), "--classes", "9", "--d-model", "16"])
    assert code == EXIT_USAGE
    assert "bands" in capsys.readouterr().err


def test_train_eval_round_trip(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = run(
        [
            "train",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--kb", str(synth_dir / "kb.jsonl"),
            "--out-dir", str(out),
            "--seed", "3",
            "--folds", "2",
            "--max-epochs", "2",
            "--patience", "2",
            "--hidden1", "32",
            "--hidden2", "16",
            "--batch-size", "8",
            "--fusion-mode", "freq_plus_knowledge",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    csv_text = (out / "metrics.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "variant,fold,accuracy,f1,precision,recall,auc"
    assert len(lines) == 3  # two folds
    assert lines[1].startswith("train,0,")

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 3
    assert summary["config"]["hidden1"] == 32
    assert len(summary["folds"]) == 2
    assert "accuracy" in summary["summary"]

    ckpt = out / "fold0.ckpt.json"
    assert ckpt.exists()
    eval_out = tmp_path / "eval"
    code = run(
        [
            "eval",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--kb", str(synth_dir / "kb.jsonl"),
            "--checkpoint", str(ckpt),
            "--out-dir", str(eval_out),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    metrics = json.loads((eval_out / "metrics.json").read_text())["metrics"]
    assert set(metrics) == {"accuracy", "f1", "precision", "recall", "auc"}
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_train_single_fold_flag(synth_dir, tmp_path, capsys):
    out = tmp_path / "one-fold"
    code = run(
        [
            "train",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--out-dir", str(out),
            "--seed", "3",
            "--folds", "2",
            "--fold", "1",
            "--max-epochs", "1",
            "--hidden1", "16",
            "--hidden2", "8",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("train,1,")
    assert not (out / "fold0.ckpt.json").exists()


def test_config_file_values_and_flag_precedence(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny run\n"
        "max_epochs = 1\n"
        "hidden1 = 16\n"
        "hidden2 = 8\n"
        "folds = 2\n"
        "lr = 0.1\n"
    )
    out = tmp_path / "cfg-run"
    code = run(
        [
            "train",
            "--config", str(cfg),
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--out-dir", str(out),
            "--seed", "3",
            "--lr", "0.2",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["lr"] == 0.2  # flag beats file
    assert summary["config"]["hidden1"] == 16  # file beats default
    assert summary["config"]["max_epochs"] == 1


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    code = run(["train", "--config", str(cfg), "--dataset", "x", "--out-dir", "y"])
    assert code == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["retrieval = off", "contrastive_space = enhanced", "tie_filters = on",
     "weight_decay = 1e-5", "lr_decay = 0.98", "lr_decay_every = 5", "k_filters = 4",
     "retrieval_tau = 0.1", "aug_sigma = 0.1"],
)
def test_config_file_removed_switch_is_unknown_key(line, synth_dir, tmp_path, capsys):
    """Retrieval follows fusion_mode, the contrastive losses act on the
    projected features, each modality has its own filter bank, and the paper's
    fixed hyperparameters are constants: a config naming a field that once
    chose otherwise is rejected, not ignored, even at the constant's value."""
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code = run(["train", "--config", str(cfg), "--dataset", str(synth_dir / "dataset.jsonl"),
                "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "unknown key" in err


def test_read_config_file_parses_comments_and_spaces(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lr = 0.5  # inline comment\n\n# full line\nbatch_size=4\n")
    values = read_config_file(str(cfg))
    assert values == {"lr": "0.5", "batch_size": "4"}
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        read_config_file(str(cfg))


def test_missing_dataset_is_data_error(tmp_path, capsys):
    code = run(
        ["train", "--dataset", str(tmp_path / "nope.jsonl"), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_retrieve_self_match(synth_dir, tmp_path, capsys):
    from freqfuse.data import load_knowledge_base

    kb = load_knowledge_base(str(synth_dir / "kb.jsonl"))
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps(list(kb[1].embedding)) + "\n")
    code = run(
        [
            "retrieve",
            "--kb", str(synth_dir / "kb.jsonl"),
            "--queries", str(queries),
            "--k", "3",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip()
    result = json.loads(out)
    assert result["ids"][0] == kb[1].entry_id
    assert abs(result["similarities"][0] - 1.0) <= 1e-12
    assert abs(sum(result["weights"]) - 1.0) <= 1e-12


def test_retrieve_rejects_bad_queries(synth_dir, tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text('{"not": "a vector"}\n')
    code = run(
        ["retrieve", "--kb", str(synth_dir / "kb.jsonl"), "--queries", str(queries)]
    )
    assert code == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("to_dir", [False, True], ids=["stdout", "out-dir"])
def test_retrieve_of_no_queries_writes_no_record(to_dir, synth_dir, tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text("\n \n")
    out = tmp_path / "out"
    extra = ["--out-dir", str(out)] if to_dir else []
    capsys.readouterr()
    assert run(_retrieve_args(synth_dir, queries, *extra)) == EXIT_OK
    printed = capsys.readouterr().out
    if to_dir:
        assert printed == f"{out / 'retrieval.jsonl'}\n"
        assert (out / "retrieval.jsonl").read_bytes() == b""
    else:
        assert printed == ""


def _kb_of_width_8(tmp_path):
    from freqfuse.data import KnowledgeEntry, save_knowledge_base

    kb = tmp_path / "narrow-kb.jsonl"
    save_knowledge_base(str(kb), [KnowledgeEntry(f"n{i}", "narrow", np.eye(8)[i]) for i in range(3)])
    return kb


@pytest.mark.parametrize("mode", ["freq_plus_knowledge", "freq_only"])
def test_train_rejects_a_kb_of_another_width_before_any_job(mode, synth_dir, tmp_path,
                                                           monkeypatch, capsys):
    from freqfuse import cli

    def no_jobs(*args):
        raise AssertionError("a fold job was started")

    monkeypatch.setattr(cli, "_run_fold_jobs", no_jobs)
    kb = _kb_of_width_8(tmp_path)
    capsys.readouterr()
    assert run(["train", "--dataset", str(synth_dir / "dataset.jsonl"), "--kb", str(kb),
                "--out-dir", str(tmp_path / "out"), "--fusion-mode", mode, "--folds", "2",
                "--workers", "2"]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"freqfuse: data error: {kb} line 1: embedding: expected 16 numbers, got 8\n")


def test_eval_rejects_a_kb_of_another_width_naming_its_line(synth_dir, knowledge_ckpt,
                                                           tmp_path, capsys):
    kb = _kb_of_width_8(tmp_path)
    capsys.readouterr()
    assert run(_eval_args(synth_dir, knowledge_ckpt, kb)) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"freqfuse: data error: {kb} line 1: embedding: expected 16 numbers, got 8\n")


def test_gradcheck_command_passes(capsys):
    code = run(["gradcheck", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out
    assert "FAIL" not in out


def test_gradcheck_strict_tolerance_fails(capsys):
    # an absurdly tight tolerance flips the exit code to the numeric failure code
    code = run(["gradcheck", "--seed", "5", "--tolerance", "1e-18"])
    assert code == EXIT_NUMERIC
    assert "FAIL" in capsys.readouterr().out


def test_spectrum_dumps_expected_rows(synth_dir, tmp_path, capsys):
    out = tmp_path / "spectra"
    code = run(
        [
            "spectrum",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--out-dir", str(out),
            "--limit", "2",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    lines = (out / "spectra.csv").read_text().splitlines()
    assert lines[0] == "id,modality,bin,magnitude"
    # 2 samples x (300 text bins + 16 image bins)
    assert len(lines) == 1 + 2 * (300 + 16)
    cells = lines[1].split(",")
    assert cells[1] in ("text", "image")
    float(cells[3])  # parses as a number


def test_ablate_writes_all_variant_rows(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert (
        run(
            [
                "synth", "--out-dir", str(data_dir), "--classes", "2", "--per-class", "5",
                "--d-model", "8", "--sigma", "0.1", "--seed", "6",
            ]
        )
        == EXIT_OK
    )
    out = tmp_path / "abl"
    code = run(
        [
            "ablate",
            "--dataset", str(data_dir / "dataset.jsonl"),
            "--kb", str(data_dir / "kb.jsonl"),
            "--out-dir", str(out),
            "--seed", "6",
            "--folds", "2",
            "--fold", "0",
            "--max-epochs", "1",
            "--hidden1", "16",
            "--hidden2", "8",
            "--batch-size", "8",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    lines = (out / "ablation.csv").read_text().splitlines()
    variants = [line.split(",")[0] for line in lines[1:]]
    from freqfuse.training import VARIANT_ORDER

    assert variants == list(VARIANT_ORDER)
    summary = json.loads((out / "ablation_summary.json").read_text())
    assert set(summary["summary"]) == set(VARIANT_ORDER)


@pytest.fixture(scope="module")
def knowledge_ckpt(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("knowledge-run")
    code = run(
        [
            "train",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--kb", str(synth_dir / "kb.jsonl"),
            "--out-dir", str(out),
            "--seed", "3",
            "--folds", "2",
            "--fold", "0",
            "--max-epochs", "1",
            "--hidden1", "16",
            "--hidden2", "8",
            "--fusion-mode", "freq_plus_knowledge",
        ]
    )
    assert code == EXIT_OK
    return out / "fold0.ckpt.json"


def test_checkpoint_with_removed_switches_evaluates_the_same(synth_dir, knowledge_ckpt,
                                                            tmp_path, capsys):
    """A checkpoint written before retrieval, contrastive_space, tie_filters
    and the six fixed hyperparameters left TrainConfig still carries them, the
    latter at their constants' values; eval ignores them."""
    blob = json.loads(knowledge_ckpt.read_text())
    blob["meta"]["tie_filters"] = False
    blob["meta"]["train_config"].update(
        retrieval=True, contrastive_space="spatial", tie_filters=False, weight_decay=1e-5,
        lr_decay=0.98, lr_decay_every=5, k_filters=4, retrieval_tau=0.1, aug_sigma=0.1,
    )
    old = tmp_path / "old.ckpt.json"
    old.write_text(json.dumps(blob))
    outputs = []
    for ckpt in (knowledge_ckpt, old):
        out = tmp_path / ckpt.stem
        assert run(_eval_args(synth_dir, ckpt) + ["--out-dir", str(out)]) == EXIT_OK
        outputs.append((out / "metrics.json").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def _query_of_wrong_width(tmp_path, synth_dir, ckpt):
    queries = tmp_path / "q.jsonl"
    queries.write_text("[1.0, 2.0, 3.0]\n")
    return ["retrieve", "--kb", str(synth_dir / "kb.jsonl"), "--queries", str(queries)]


def _eval_args(synth_dir, ckpt, kb=None):
    kb = kb or synth_dir / "kb.jsonl"
    return ["eval", "--dataset", str(synth_dir / "dataset.jsonl"), "--kb", str(kb),
            "--checkpoint", str(ckpt)]


def _kb_narrower_than_checkpoint(tmp_path, synth_dir, ckpt):
    return _eval_args(synth_dir, ckpt, _kb_of_width_8(tmp_path))


def _ckpt_without_meta_key(tmp_path, synth_dir, ckpt):
    blob = json.loads(ckpt.read_text())
    del blob["meta"]["hidden1"]
    bad = tmp_path / "no-hidden1.ckpt.json"
    bad.write_text(json.dumps(blob))
    return _eval_args(synth_dir, bad)


def _ckpt_edited(*keys, value):
    """eval with a checkpoint whose blob[keys[0]][keys[1]]... is set to `value`."""

    def build(tmp_path, synth_dir, ckpt):
        blob = json.loads(ckpt.read_text())
        *path, last = keys
        node = blob
        for key in path:
            node = node[key]
        node[last] = value
        bad = tmp_path / "edited.ckpt.json"
        bad.write_text(json.dumps(blob))
        return _eval_args(synth_dir, bad)

    return build


def _ckpt_not_an_object(tmp_path, synth_dir, ckpt):
    bad = tmp_path / "list.ckpt.json"
    bad.write_text("[1, 2, 3]")
    return _eval_args(synth_dir, bad)


def _retrieve_args(synth_dir, queries, *extra):
    return ["retrieve", "--kb", str(synth_dir / "kb.jsonl"), "--queries", str(queries), *extra]


def _retrieve_flags(*extra, first=None):
    """retrieve with KB entry 0's embedding as the query, its first element
    replaced by `first` unless that is None."""

    def build(tmp_path, synth_dir, ckpt):
        from freqfuse.data import load_knowledge_base

        queries = tmp_path / "q.jsonl"
        embedding = list(load_knowledge_base(str(synth_dir / "kb.jsonl"))[0].embedding)
        if first is not None:
            embedding[0] = first
        queries.write_text(json.dumps(embedding) + "\n")
        return _retrieve_args(synth_dir, queries, *extra)

    return build


def _dataset_with_more_classes(tmp_path, synth_dir, ckpt):
    # a 4-class dataset against a checkpoint trained on 2 classes
    out = tmp_path / "four-classes"
    assert run(["synth", "--out-dir", str(out), "--classes", "4", "--per-class", "2",
                "--d-model", "16", "--seed", "3"]) == EXIT_OK
    return ["eval", "--dataset", str(out / "dataset.jsonl"), "--kb", str(synth_dir / "kb.jsonl"),
            "--checkpoint", str(ckpt)]


def _kb_id_repeated(tmp_path, synth_dir, ckpt):
    first = json.loads((synth_dir / "kb.jsonl").read_text().splitlines()[0])["id"]

    def edit(obj):
        obj["id"] = first

    return _line2_edited("kb", edit)(tmp_path, synth_dir, ckpt)


def _query_line_with_nan(tmp_path, synth_dir, ckpt):
    queries = tmp_path / "q.jsonl"
    queries.write_text("[" + ", ".join(["1.0"] * 15 + ["NaN"]) + "]\n")
    return _retrieve_args(synth_dir, queries)


def _as_list(obj, key):
    """Rewrite obj[key], a vector written as base64 text, as a list of numbers."""
    obj[key] = np.frombuffer(base64.b64decode(obj[key]), "<f8").tolist()


def _kb_line_with_nan(tmp_path, synth_dir, ckpt):
    lines = (synth_dir / "kb.jsonl").read_text().splitlines()
    obj = json.loads(lines[1])
    _as_list(obj, "embedding")
    obj["embedding"][0] = float("nan")
    lines[1] = json.dumps(obj)
    kb = tmp_path / "nan-kb.jsonl"
    kb.write_text("\n".join(lines) + "\n")
    return _eval_args(synth_dir, ckpt, kb)


def _with_line_edited(source, lineno, edit):
    """A copy of `source` whose line `lineno` (1-based) is edit(line bytes)."""
    lines = source.read_bytes().split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    return b"\n".join(lines)


def _not_utf8(line):
    return line.replace(b'"', b'"\xff', 1)


def _not_utf8_file(kind):
    def build(tmp_path, synth_dir, ckpt):
        bad = tmp_path / f"not-utf8-{kind}"
        if kind == "dataset":
            bad.write_bytes(_with_line_edited(synth_dir / "dataset.jsonl", 3, _not_utf8))
            return ["train", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]
        if kind == "kb":
            bad.write_bytes(_with_line_edited(synth_dir / "kb.jsonl", 2, _not_utf8))
            return _eval_args(synth_dir, ckpt, bad)
        if kind == "queries":
            bad.write_bytes(b"\n[\xff]\n")
            return _retrieve_args(synth_dir, bad)
        if kind == "checkpoint":
            bad.write_bytes(_not_utf8(ckpt.read_bytes()))
            return _eval_args(synth_dir, bad)
        bad.write_bytes(b"max_epochs = 1\nlr = \xff\n")
        return ["train", "--config", str(bad), "--dataset", str(synth_dir / "dataset.jsonl"),
                "--out-dir", str(tmp_path / "out")]

    return build


def _line2_edited(kind, edit):
    """eval on a KB, or train on a dataset, whose line 2 object is changed in
    place by edit(obj)."""

    def edit_line(line):
        obj = json.loads(line)
        edit(obj)
        return json.dumps(obj).encode()

    def build(tmp_path, synth_dir, ckpt):
        bad = tmp_path / "bad.jsonl"
        if kind == "kb":
            bad.write_bytes(_with_line_edited(synth_dir / "kb.jsonl", 2, edit_line))
            return _eval_args(synth_dir, ckpt, bad)
        bad.write_bytes(_with_line_edited(synth_dir / "dataset.jsonl", 2, edit_line))
        return ["train", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]

    return build


def _vector_element(key, value):
    """Line 2 of the KB ("embedding") or the dataset (the feature vectors) with
    the vector rewritten as a list and its first element replaced by `value`."""

    def edit(obj):
        _as_list(obj, key)
        obj[key][0] = value

    return _line2_edited("kb" if key == "embedding" else "dataset", edit)


def _answer_class(value):
    def edit(obj):
        obj["answer_class"] = value

    return _line2_edited("dataset", edit)


def _question_tokens(tokens):
    def edit(obj):
        del obj["question_features"]
        obj["question_tokens"] = tokens

    return _line2_edited("dataset", edit)


def _dataset_cut_mid_line(tmp_path, synth_dir, ckpt):
    text = (synth_dir / "dataset.jsonl").read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    cut = tmp_path / "cut.jsonl"
    cut.write_text(text[: len(text.rstrip("\n")) - len(last) // 2])
    return ["train", "--dataset", str(cut), "--out-dir", str(tmp_path / "out"),
            "--max-epochs", "1"]


def _config_line(line):
    def build(tmp_path, synth_dir, ckpt):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        return ["train", "--config", str(cfg), "--dataset", str(synth_dir / "dataset.jsonl"),
                "--out-dir", str(tmp_path / "out")]

    return build


def _train_flags(*extra):
    def build(tmp_path, synth_dir, ckpt):
        return ["train", "--dataset", str(synth_dir / "dataset.jsonl"),
                "--out-dir", str(tmp_path / "out"), *extra]

    return build


def _argv(command, *extra):
    """`command` with `extra` flags, writing (if it writes) under tmp_path/out."""

    def build(tmp_path, synth_dir, ckpt):
        return [command, "--out-dir", str(tmp_path / "out"), *extra]

    return build


def _out_dir_is_a_file(command):
    """`command` on the synthetic data with an --out-dir that names a file."""

    def build(tmp_path, synth_dir, ckpt):
        out = tmp_path / "a-file"
        out.write_text("")
        dataset = str(synth_dir / "dataset.jsonl")
        inputs = ["--dataset", dataset, "--kb", str(synth_dir / "kb.jsonl")]
        argv = {
            "synth": lambda: ["synth"],
            "train": lambda: ["train", *inputs, "--max-epochs", "1"],
            "ablate": lambda: ["ablate", *inputs, "--fold", "0", "--max-epochs", "1"],
            "eval": lambda: _eval_args(synth_dir, ckpt),
            "retrieve": lambda: _retrieve_flags()(tmp_path, synth_dir, ckpt),
            "spectrum": lambda: ["spectrum", "--dataset", dataset],
        }[command]()
        return argv + ["--out-dir", str(out)]

    return build


@pytest.mark.parametrize(
    "build, expected",
    [
        (_query_of_wrong_width, EXIT_DATA),
        (_kb_narrower_than_checkpoint, EXIT_DATA),
        (_ckpt_without_meta_key, EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "retrieval_k", value="3"), EXIT_DATA),
        (_ckpt_not_an_object, EXIT_DATA),
        (_config_line("max_epochs = ten"), EXIT_USAGE),
        (_config_line("seed = 1.5"), EXIT_USAGE),
        (_config_line("workers = two"), EXIT_USAGE),
        (_config_line("workers = 0"), EXIT_USAGE),
        (_train_flags("--workers", "0"), EXIT_USAGE),
        (_train_flags("--workers", "-1"), EXIT_USAGE),
        (_retrieve_flags("--k", "100"), EXIT_USAGE),
        (_retrieve_flags("--tau", "0"), EXIT_USAGE),
        (_kb_line_with_nan, EXIT_DATA),
        (_dataset_cut_mid_line, EXIT_DATA),
        (_query_line_with_nan, EXIT_DATA),
        (_train_flags("--similarity", "dot"), EXIT_USAGE),
        (_train_flags("--lr", "abc"), EXIT_USAGE),
        (_not_utf8_file("dataset"), EXIT_DATA),
        (_not_utf8_file("kb"), EXIT_DATA),
        (_not_utf8_file("queries"), EXIT_DATA),
        (_not_utf8_file("checkpoint"), EXIT_DATA),
        (_not_utf8_file("config"), EXIT_USAGE),
        (_vector_element("embedding", "x"), EXIT_DATA),
        (_vector_element("embedding", [1.0]), EXIT_DATA),
        (_vector_element("embedding", True), EXIT_DATA),
        (_vector_element("image_features", "x"), EXIT_DATA),
        (_vector_element("image_features", [1.0]), EXIT_DATA),
        (_vector_element("image_features", True), EXIT_DATA),
        (_vector_element("question_features", "x"), EXIT_DATA),
        (_vector_element("question_features", [1.0]), EXIT_DATA),
        (_vector_element("question_features", True), EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "similarity", value="dot"), EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "retrieval_k", value=0), EXIT_DATA),
        (_retrieve_flags(first=True), EXIT_DATA),
        (_retrieve_flags(first="1.5"), EXIT_DATA),
        (_ckpt_edited("params", "cls.b3", "data", value="1.5"), EXIT_DATA),
        (_ckpt_edited("params", "cls.b3", "data", value=True), EXIT_DATA),
        (_answer_class(True), EXIT_DATA),
        (_question_tokens([True, 5]), EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "batch_size", value=True), EXIT_DATA),
        (_ckpt_edited("meta", "dropout", value=False), EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "retrieval_k", value=100), EXIT_DATA),
        (_ckpt_edited("meta", "train_config", "retrieval_tau", value=0.5), EXIT_DATA),
        (_train_flags("--lr", "nan"), EXIT_USAGE),
        (_train_flags("--lr", "inf"), EXIT_USAGE),
        (_train_flags("--clip-norm", "nan"), EXIT_USAGE),
        (_retrieve_flags("--tau", "nan"), EXIT_USAGE),
        (_retrieve_flags("--tau", "inf"), EXIT_USAGE),
        (_ckpt_edited("meta", "train_config", "lr", value=float("nan")), EXIT_DATA),
        (_retrieve_flags(first=1e300), EXIT_DATA),
        (_vector_element("embedding", 1e300), EXIT_DATA),
        (_dataset_with_more_classes, EXIT_DATA),
        (_kb_id_repeated, EXIT_DATA),
        (_argv("synth", "--sigma", "nan"), EXIT_USAGE),
        (_argv("synth", "--amplitude", "inf"), EXIT_USAGE),
        (_argv("gradcheck", "--tolerance", "nan"), EXIT_USAGE),
        (_argv("gradcheck", "--tolerance", "-1"), EXIT_USAGE),
        (_out_dir_is_a_file("synth"), EXIT_USAGE),
        (_out_dir_is_a_file("train"), EXIT_USAGE),
        (_out_dir_is_a_file("ablate"), EXIT_USAGE),
        (_out_dir_is_a_file("eval"), EXIT_USAGE),
        (_out_dir_is_a_file("retrieve"), EXIT_USAGE),
        (_out_dir_is_a_file("spectrum"), EXIT_USAGE),
        (_train_flags("--hidden1", "100000000000"), EXIT_USAGE),
        (_argv("synth", "--seed", "-1"), EXIT_USAGE),
        (_train_flags("--seed", "-1", "--workers", "1"), EXIT_USAGE),
        (_argv("gradcheck", "--seed", "-1"), EXIT_USAGE),
        (_config_line("seed = -1"), EXIT_USAGE),
        (_argv("synth", "--classes", "1"), EXIT_USAGE),
        (_argv("synth", "--classes", "0"), EXIT_USAGE),
    ],
    ids=[
        "retrieve-query-width",
        "eval-kb-width",
        "ckpt-missing-meta-key",
        "ckpt-train-config-type",
        "ckpt-not-object",
        "config-max-epochs",
        "config-seed",
        "config-workers",
        "config-workers-zero",
        "train-workers-zero",
        "train-workers-negative",
        "retrieve-k-above-kb-size",
        "retrieve-tau-zero",
        "kb-nan-embedding",
        "dataset-cut-mid-line",
        "retrieve-query-nan",
        "train-similarity-dot",
        "train-lr-not-a-number",
        "dataset-not-utf8",
        "kb-not-utf8",
        "queries-not-utf8",
        "ckpt-not-utf8",
        "config-not-utf8",
        "kb-embedding-string",
        "kb-embedding-nested-list",
        "kb-embedding-true",
        "dataset-image-string",
        "dataset-image-nested-list",
        "dataset-image-true",
        "dataset-question-string",
        "dataset-question-nested-list",
        "dataset-question-true",
        "ckpt-similarity-dot",
        "ckpt-retrieval-k-zero",
        "queries-element-true",
        "queries-element-string",
        "ckpt-param-string",
        "ckpt-param-true",
        "dataset-answer-class-true",
        "dataset-question-tokens-true",
        "ckpt-batch-size-true",
        "ckpt-meta-dropout-false",
        "eval-retrieval-k-above-kb-size",
        "ckpt-retrieval-tau-not-the-constant",
        "train-lr-nan",
        "train-lr-inf",
        "train-clip-norm-nan",
        "retrieve-tau-nan",
        "retrieve-tau-inf",
        "ckpt-lr-nan",
        "retrieve-query-norm-overflows",
        "kb-embedding-norm-overflows",
        "eval-label-beyond-checkpoint-classes",
        "kb-id-repeated",
        "synth-sigma-nan",
        "synth-amplitude-inf",
        "gradcheck-tolerance-nan",
        "gradcheck-tolerance-negative",
        "synth-out-dir-is-a-file",
        "train-out-dir-is-a-file",
        "ablate-out-dir-is-a-file",
        "eval-out-dir-is-a-file",
        "retrieve-out-dir-is-a-file",
        "spectrum-out-dir-is-a-file",
        "train-hidden1-beyond-memory",
        "synth-seed-negative",
        "train-seed-negative",
        "gradcheck-seed-negative",
        "config-seed-negative",
        "synth-classes-one",
        "synth-classes-zero",
    ],
)
def test_malformed_input_exits_with_one_line(build, expected, synth_dir, knowledge_ckpt,
                                             tmp_path, capsys):
    argv = build(tmp_path, synth_dir, knowledge_ckpt)
    capsys.readouterr()
    assert run(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("freqfuse: ")


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


@pytest.mark.parametrize(
    "data",
    [
        _b64([0.0, 0.0])[:-1] + "*",
        _b64([0.0, 0.0]).rstrip("="),
        _b64([0.0, 0.0, 0.0]),
        _b64([np.nan, 0.0]),
        _b64([0.0, -np.inf]),
        [0.0, 0.0],
        True,
    ],
    ids=["outside-alphabet", "bad-padding", "byte-count", "nan-bits", "inf-bits", "list", "true"],
)
def test_malformed_checkpoint_data_exits_2_naming_the_param(data, synth_dir, knowledge_ckpt,
                                                            tmp_path, capsys):
    """cls.b3 holds the 2 class biases as base64 of 16 float64 bytes; any
    other data ends in one stderr line naming it, never a traceback."""
    argv = _ckpt_edited("params", "cls.b3", "data", value=data)(tmp_path, synth_dir,
                                                               knowledge_ckpt)
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("freqfuse: ") and "param cls.b3: " in err[0], err


# a vector's base64 text made wrong, from its float64 values
BAD_BASE64 = {
    "outside-alphabet": lambda v: _b64(v)[:10] + "*" + _b64(v)[11:],
    "bad-padding": lambda v: _b64(v)[:4] + "==" + _b64(v)[6:],
    "byte-count": lambda v: _b64(v[:-1]),
    "nan-bits": lambda v: _b64([np.nan, *v[1:]]),
    "inf-bits": lambda v: _b64([*v[:-1], np.inf]),
    "minus-inf-bits": lambda v: _b64([-np.inf, *v[1:]]),
}


@pytest.mark.parametrize("case", sorted(BAD_BASE64))
@pytest.mark.parametrize("key", ["image_features", "question_features", "embedding", "query"])
def test_bad_base64_vector_exits_2_naming_its_line(key, case, synth_dir, knowledge_ckpt,
                                                   tmp_path, capsys):
    """A vector on line 2 of the dataset, the KB or a queries file whose base64
    text is not `width` finite float64 values ends in one stderr line naming
    the file and line, never a traceback."""
    source = synth_dir / ("kb.jsonl" if key in ("embedding", "query") else "dataset.jsonl")
    lines = source.read_text().splitlines()
    obj = json.loads(lines[1])
    field = "embedding" if key == "query" else key
    values = np.frombuffer(base64.b64decode(obj[field]), "<f8").tolist()
    bad_text = BAD_BASE64[case](values)
    if key == "query":
        bad = tmp_path / "queries.jsonl"
        bad.write_text(json.dumps(json.loads(lines[0])["embedding"]) + "\n"
                       + json.dumps(bad_text) + "\n")
        argv, where = _retrieve_args(synth_dir, bad), "queries.jsonl line 2: "
    else:
        obj[field] = bad_text
        lines[1] = json.dumps(obj)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        argv = (_eval_args(synth_dir, knowledge_ckpt, bad) if key == "embedding" else
                ["train", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")])
        where = f"bad.jsonl line 2: {key}: "
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("freqfuse: ") and where in err[0], err


@pytest.mark.parametrize("command", ["synth", "train", "ablate", "eval", "retrieve", "spectrum"])
def test_failed_write_exits_with_one_line(command, synth_dir, knowledge_ckpt, tmp_path,
                                          monkeypatch, capsys):
    """A write that fails after the --out-dir check (here a full disk) exits 1
    with one line naming the file, not a traceback."""
    from freqfuse import data as data_mod

    def disk_full(path, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    small = ["--folds", "2", "--fold", "0", "--max-epochs", "1", "--hidden1", "16",
             "--hidden2", "8", "--workers", "1"]
    dataset = str(synth_dir / "dataset.jsonl")
    inputs = ["--dataset", dataset, "--kb", str(synth_dir / "kb.jsonl")]
    argv = {
        "synth": ["synth"],
        "train": ["train", *inputs, *small],
        "ablate": ["ablate", *inputs, *small],
        "eval": _eval_args(synth_dir, knowledge_ckpt),
        "retrieve": _retrieve_flags()(tmp_path, synth_dir, knowledge_ckpt),
        "spectrum": ["spectrum", "--dataset", dataset],
    }[command]
    monkeypatch.setattr(data_mod, "atomic_write_text", disk_full)
    capsys.readouterr()
    assert run(argv + ["--out-dir", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("freqfuse: I/O error: [Errno 28] No space left on device: ")
    assert str(tmp_path / "out") in err


def test_bad_norms_are_named_by_line(synth_dir, tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    for bad, message in ((1e300, "query norm overflows float64"),
                         (0.0, "cannot normalize a (near-)zero query vector")):
        queries.write_text(json.dumps([1.0] * 16) + "\n" + json.dumps([bad] * 16) + "\n")
        assert run(_retrieve_args(synth_dir, queries)) == EXIT_DATA
        assert f"q.jsonl line 2: {message}" in capsys.readouterr().err
    lines = (synth_dir / "kb.jsonl").read_text().splitlines()
    obj = json.loads(lines[2])
    _as_list(obj, "embedding")
    obj["embedding"] = [1e300] * len(obj["embedding"])
    lines[2] = json.dumps(obj)
    kb = tmp_path / "big-kb.jsonl"
    kb.write_text("\n".join(lines) + "\n")
    assert run(_retrieve_args(synth_dir, queries) + ["--kb", str(kb)]) == EXIT_DATA
    assert "big-kb.jsonl line 3: embedding norm overflows float64" in capsys.readouterr().err


def test_eval_names_first_sample_beyond_checkpoint_classes(synth_dir, knowledge_ckpt,
                                                           tmp_path, capsys):
    from freqfuse.data import load_dataset

    argv = _dataset_with_more_classes(tmp_path, synth_dir, knowledge_ckpt)
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    _, samples = load_dataset(argv[2])
    first = next(s for s in samples if s.answer_class >= 2)
    err = capsys.readouterr().err
    assert (f"sample {first.sample_id!r} has answer_class {first.answer_class}, "
            f"but checkpoint {knowledge_ckpt} predicts 2 classes") in err


def _large_kb(synth_dir, tmp_path):
    """The synthetic KB plus seeded distractors and power-of-two copies of its
    entries (exact ties), large enough that `retrieve` screens it."""
    from freqfuse.data import KnowledgeEntry, load_knowledge_base, save_knowledge_base

    entries = list(load_knowledge_base(str(synth_dir / "kb.jsonl")))
    rng = np.random.default_rng(7)
    entries += [KnowledgeEntry(f"x{i}", "distractor", v)
                for i, v in enumerate(rng.standard_normal((400, 16)))]
    entries += [KnowledgeEntry(f"{e.entry_id}-x2", "copy", 2.0 * e.embedding)
                for e in entries[:4]]
    path = tmp_path / "large-kb.jsonl"
    save_knowledge_base(str(path), entries)
    return path, entries


@pytest.mark.parametrize("large", [False, True], ids=["all-pairs", "screened"])
def test_retrieve_tiles_give_per_line_results(large, synth_dir, tmp_path, capsys):
    from freqfuse.data import load_knowledge_base
    from freqfuse.retrieval import KnowledgeBase, retrieve

    if large:
        kb_path, entries = _large_kb(synth_dir, tmp_path)
    else:
        kb_path = synth_dir / "kb.jsonl"
        entries = list(load_knowledge_base(str(kb_path)))
    kb = KnowledgeBase(entries)
    rng = np.random.default_rng(11)
    protos = np.stack([e.embedding for e in entries[:4]])
    queries = np.concatenate([protos, protos + 0.05 * rng.standard_normal(protos.shape),
                              rng.standard_normal((57, 16))])
    lines = [json.dumps([float(v) for v in q]) for q in queries]
    per_line = [
        json.dumps({"ids": [kb.columns.ids[i] for i in r.indices],
                    "similarities": [float(v) for v in r.similarities],
                    "weights": [float(v) for v in r.weights]})
        for r in (retrieve(q, kb, k=3) for q in queries)
    ]
    for count in (1, 31, 65):
        path = tmp_path / f"q{count}.jsonl"
        path.write_text("\n".join(lines[:count]) + "\n")
        capsys.readouterr()
        assert run(["retrieve", "--kb", str(kb_path), "--queries", str(path), "--k", "3"]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(per_line[:count]) + "\n"


def test_ablate_parses_dataset_and_kb_once(synth_dir, tmp_path, monkeypatch, capsys):
    from freqfuse import data as data_mod

    calls = {"dataset": 0, "kb": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(data_mod, "load_dataset", counted("dataset", data_mod.load_dataset))
    monkeypatch.setattr(
        data_mod, "load_knowledge_base", counted("kb", data_mod.load_knowledge_base)
    )
    code = run(
        [
            "ablate",
            "--dataset", str(synth_dir / "dataset.jsonl"),
            "--kb", str(synth_dir / "kb.jsonl"),
            "--out-dir", str(tmp_path / "abl"),
            "--seed", "3",
            "--folds", "2",
            "--fold", "0",
            "--max-epochs", "1",
            "--hidden1", "16",
            "--hidden2", "8",
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    assert calls == {"dataset": 1, "kb": 1}


@pytest.mark.parametrize(
    "command, csv_name, extra",
    [("train", "metrics.csv", []), ("ablate", "ablation.csv", ["--fold", "0"])],
)
def test_workers_match_serial_run(synth_dir, tmp_path, capsys, command, csv_name, extra):
    args = [
        command,
        "--dataset", str(synth_dir / "dataset.jsonl"),
        "--kb", str(synth_dir / "kb.jsonl"),
        "--seed", "3",
        "--folds", "2",
        "--max-epochs", "1",
        "--hidden1", "16",
        "--hidden2", "8",
        "--batch-size", "8",
        "--fusion-mode", "freq_plus_knowledge",
    ] + extra
    outputs = []
    for name, workers in (("serial", ["--workers", "1"]), ("default", []),
                          ("pooled", ["--workers", "2"])):
        assert run(args + ["--out-dir", str(tmp_path / name)] + workers) == EXIT_OK
        outputs.append((tmp_path / name / csv_name).read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records how it was built and the
    BLAS thread setting at each submit, and runs every job in-process."""

    built: list = []
    blas_at_submit: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.built.append((max_workers, mp_context.get_start_method()))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        self.blas_at_submit.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "command, extra, workers, started",
    [
        ("train", [], ["--workers", "5000"], 2),
        ("ablate", ["--fold", "0"], ["--workers", "5000"], 7),
        ("ablate", ["--fold", "0"], [], 7),  # 64 usable cores, 7 jobs
        ("train", [], ["--workers", "1"], None),
    ],
)
def test_workers_capped_at_job_count(synth_dir, tmp_path, monkeypatch, capsys,
                                     command, extra, workers, started):
    from freqfuse import training

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(training, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(training, "_worker_inputs", None)
    monkeypatch.setattr(_RecordingPool, "built", [])
    monkeypatch.setattr(_RecordingPool, "blas_at_submit", [])
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    args = [
        command,
        "--dataset", str(synth_dir / "dataset.jsonl"),
        "--kb", str(synth_dir / "kb.jsonl"),
        "--out-dir", str(tmp_path / "out"),
        "--seed", "3",
        "--folds", "2",
        "--max-epochs", "1",
        "--hidden1", "16",
        "--hidden2", "8",
    ]
    assert run(args + extra + workers) == EXIT_OK
    capsys.readouterr()
    if started is None:
        assert _RecordingPool.built == []
    else:
        assert _RecordingPool.built == [(started, "spawn")]
        assert _RecordingPool.blas_at_submit == ["1"] * started
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_training_does_not_depend_on_blas_thread_count(tmp_path):
    """A threaded BLAS dot product of more than 10,000 elements splits its sum
    by thread count. Clipping on every step, a fold of 13,787 parameters must
    write the same checkpoint under one and two BLAS threads."""
    from freqfuse.model import load_checkpoint
    from freqfuse.training import usable_cores

    if usable_cores() < 2:
        pytest.skip("needs two usable cores to run a threaded BLAS")
    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--classes", "3", "--per-class", "16",
                "--d-model", "16", "--sigma", "0.2", "--seed", "3"]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(os.path.abspath(freqfuse.__file__)))
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "freqfuse.cli", "train",
             "--dataset", str(data / "dataset.jsonl"), "--out-dir", str(out),
             "--seed", "3", "--folds", "2", "--fold", "0", "--max-epochs", "3",
             "--hidden1", "128", "--hidden2", "32", "--batch-size", "8",
             "--clip-norm", "0.001", "--workers", "1"],
            env=env, check=True, capture_output=True, timeout=300,
        )
        checkpoints.append((out / "fold0.ckpt.json").read_bytes())
    params = load_checkpoint(str(tmp_path / "threads1" / "fold0.ckpt.json")).named()
    assert sum(t.data.size for t in params.values()) > 10_000
    assert checkpoints[0] == checkpoints[1]


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "freqfuse.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


@pytest.mark.parametrize("workers", ["1", "2"])
def test_diverging_run_prints_one_line_and_no_numpy_warning(synth_dir, tmp_path, workers):
    """numpy's overflow warnings reach stderr neither from this process nor
    from spawned fold workers: the run ends with its one numeric-error line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(freqfuse.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "freqfuse.cli", "train",
         "--dataset", str(synth_dir / "dataset.jsonl"), "--out-dir", str(tmp_path / "out"),
         "--seed", "3", "--folds", "2", "--max-epochs", "2", "--hidden1", "16",
         "--hidden2", "8", "--batch-size", "8", "--lr", "1e300", "--workers", workers],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr.startswith("freqfuse: numeric error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_validation_failure_names_its_fold_and_epoch(tmp_path, capsys):
    # one batch an epoch: the step is finite, and the validation pass after it
    # overflows
    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--classes", "3", "--per-class", "8",
                "--d-model", "16"]) == EXIT_OK
    capsys.readouterr()
    assert run(["train", "--dataset", str(data / "dataset.jsonl"), "--out-dir",
                str(tmp_path / "out"), "--lr", "1e300", "--batch-size", "64", "--folds", "2",
                "--hidden1", "16", "--hidden2", "8", "--workers", "1"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "freqfuse: numeric error: validation at epoch 0 (fold 0): "
        "non-finite values produced by tensor\n"
    )


def test_usage_error_is_one_line_and_help_keeps_the_usage(capsys):
    assert run(["train", "--seed", "abc"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "freqfuse train: error: argument --seed: invalid int value: 'abc'\n"
    assert run(["train", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: freqfuse train ")

import os
from dataclasses import replace

import numpy as np
import pytest

from freqfuse import retrieval
from freqfuse.cli import EXIT_OK, main
from freqfuse.data import (
    KnowledgeEntry,
    generate_synthetic,
    image_matrix,
    question_matrix,
    save_dataset,
    save_knowledge_base,
)
from freqfuse.errors import ConfigError, NumericError
from freqfuse.kernel import Tensor
from freqfuse.model import init_model_params, load_checkpoint, save_checkpoint
from freqfuse.retrieval import KnowledgeBase
from freqfuse.rng import named_stream
from freqfuse.training import (
    TrainConfig,
    VARIANT_ORDER,
    _binary_auc,
    _clip_gradients,
    _midranks,
    compute_metrics,
    make_folds,
    metrics_csv_text,
    predict_probs,
    run_ablation_suite,
    schedule_lr,
    summarize,
    train_fold,
    variant_configs,
)


def small_config(**overrides):
    base = dict(
        seed=4,
        max_epochs=5,
        patience=5,
        folds=5,
        batch_size=32,
        fusion_mode="freq_plus_knowledge",
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def clean_data():
    manifest, samples, kb = generate_synthetic(3, 40, 16, 0.0, seed=4)
    return manifest, samples, KnowledgeBase(kb)


def test_schedule_lr_exact_step_decay():
    base = 5e-5
    for epoch in range(30):
        assert schedule_lr(base, epoch) == base * 0.98 ** (epoch // 5)
    assert schedule_lr(base, 0) == base
    assert schedule_lr(base, 4) == base
    assert schedule_lr(base, 5) == base * 0.98
    assert schedule_lr(base, 10) == base * 0.98**2


def test_make_folds_five_images_three_questions():
    _, samples, _ = generate_synthetic(5, 1, 16, 0.1, seed=0, samples_per_image=3)
    assert len(samples) == 15
    fold_ids = make_folds(samples, k=5, seed=0)
    # five images dealt round-robin over five folds: one image (3 samples) each
    for fold in range(5):
        members = [s.image_id for s, f in zip(samples, fold_ids) if f == fold]
        assert len(members) == 3
        assert len(set(members)) == 1


def test_make_folds_groups_images_and_balances():
    _, samples, _ = generate_synthetic(4, 10, 16, 0.2, seed=7, samples_per_image=3)
    fold_ids = make_folds(samples, k=5, seed=7)
    by_image = {}
    for sample, fold in zip(samples, fold_ids):
        by_image.setdefault(sample.image_id, set()).add(int(fold))
    assert all(len(folds) == 1 for folds in by_image.values())  # no image crosses folds
    image_folds = [next(iter(f)) for f in by_image.values()]
    counts = np.bincount(image_folds, minlength=5)
    assert counts.max() - counts.min() <= 1  # round-robin balance


def test_make_folds_deterministic_and_guarded():
    _, samples, _ = generate_synthetic(3, 5, 16, 0.1, seed=2)
    a = make_folds(samples, k=5, seed=9)
    b = make_folds(samples, k=5, seed=9)
    assert np.array_equal(a, b)
    _, few, _ = generate_synthetic(2, 2, 16, 0.1, seed=2)
    with pytest.raises(ConfigError):
        make_folds(few, k=5, seed=0)


def test_midranks_and_binary_auc():
    assert np.array_equal(_midranks(np.array([10.0, 30.0, 20.0])), [1.0, 3.0, 2.0])
    assert np.array_equal(_midranks(np.array([1.0, 1.0, 2.0])), [1.5, 1.5, 3.0])
    # ties drawn from a few values: each rank is the mean of the 1-based
    # positions its value takes in sorted order
    x = named_stream(7, "test-midranks").integers(0, 12, 300).astype(float)
    sorted_x = np.sort(x)
    positions = {v: np.flatnonzero(sorted_x == v) + 1 for v in set(x.tolist())}
    assert np.array_equal(_midranks(x), [positions[v].mean() for v in x.tolist()])
    # perfect separation, reversed separation, and all-tied scores
    pos = np.array([False, False, True, True])
    assert _binary_auc(np.array([0.1, 0.2, 0.8, 0.9]), pos) == 1.0
    assert _binary_auc(np.array([0.9, 0.8, 0.2, 0.1]), pos) == 0.0
    assert _binary_auc(np.array([0.5, 0.5, 0.5, 0.5]), pos) == 0.5
    with pytest.raises(ValueError):
        _binary_auc(np.array([0.5, 0.5]), np.array([True, True]))


def test_metrics_perfect_predictions():
    labels = np.array([0, 1, 2, 1])
    probs = np.eye(3)[labels]
    m = compute_metrics(labels, probs)
    assert (m.accuracy, m.f1, m.precision, m.recall, m.auc) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_metrics_constant_predictor_balanced_binary():
    labels = np.array([0, 0, 1, 1])
    probs = np.tile([0.7, 0.3], (4, 1))
    m = compute_metrics(labels, probs)
    assert m.accuracy == 0.5
    assert m.auc == 0.5  # tied scores contribute one half
    # predicted class 1 never fires: its 0/0 precision counts as 0
    assert m.precision == pytest.approx((0.5 + 0.0) / 2)
    assert m.recall == pytest.approx((1.0 + 0.0) / 2)


def test_metrics_hand_confusion_six_samples():
    labels = np.array([0, 0, 1, 1, 2, 2])
    preds = np.array([0, 1, 1, 2, 2, 2])
    probs = np.eye(3)[preds]
    m = compute_metrics(labels, probs)
    f1_0 = 2 * 1.0 * 0.5 / 1.5  # p=1, r=1/2
    f1_1 = 0.5  # p=1/2, r=1/2
    f1_2 = 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)  # p=2/3, r=1
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.f1 == pytest.approx((f1_0 + f1_1 + f1_2) / 3)
    assert m.precision == pytest.approx((1.0 + 0.5 + 2 / 3) / 3)
    assert m.recall == pytest.approx((0.5 + 0.5 + 1.0) / 3)


def test_metrics_absent_class_warns_and_excludes():
    labels = np.array([0, 0, 1])
    probs = np.eye(3)[[0, 0, 1]]
    with pytest.warns(UserWarning, match="absent"):
        m = compute_metrics(labels, probs)
    assert m.f1 == 1.0  # macro over the two present classes only


def test_clip_gradients_global_norm():
    grad = np.array([3.0, 0.0, 4.0])  # a = [3, 0] and b = [4], flat
    clipped = grad.copy()
    _clip_gradients(clipped, 2.5)
    assert abs(np.sqrt(float(np.sum(clipped * clipped))) - 2.5) <= 1e-12
    assert np.allclose(clipped[:2] / clipped[2], grad[:2] / grad[2])
    small = grad.copy()
    _clip_gradients(small, 100.0)
    assert np.array_equal(small, grad)
    disabled = grad.copy()
    _clip_gradients(disabled, 0.0)
    assert np.array_equal(disabled, grad)


def test_noiseless_data_reaches_perfect_accuracy_fast(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config()
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    assert res.metrics.accuracy == 1.0
    assert res.best_epoch <= 4
    assert res.history[0].lr == cfg.lr


def test_patience_zero_stops_at_first_plateau(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=10, patience=0)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    assert len(res.history) < cfg.max_epochs
    accs = [r.val_accuracy for r in res.history]
    # every epoch before the last strictly improved the running best
    best = -1.0
    for acc in accs[:-1]:
        assert acc > best
        best = acc
    assert accs[-1] <= best


def test_patience_counts_consecutive_non_improving(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=12, patience=2)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    accs = [r.val_accuracy for r in res.history]
    if len(accs) < cfg.max_epochs:  # stopped early: exactly patience trailing plateaus
        best = max(accs[: -cfg.patience])
        assert all(a <= best for a in accs[-cfg.patience :])


def test_training_is_deterministic(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=2, hidden1=64, hidden2=32)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    a = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    b = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    for ra, rb in zip(a.history, b.history):
        assert ra.train_loss == rb.train_loss
        assert ra.ce == rb.ce
        assert ra.val_accuracy == rb.val_accuracy
    for name, tensor in a.params.named().items():
        assert np.array_equal(tensor.data, b.params.named()[name].data), name


def test_ablation_suite_on_default_workers_equals_serial(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=2, hidden1=64, hidden2=32)
    serial = run_ablation_suite(manifest, samples, kb, cfg, folds_to_run=[0], workers=1)
    default = run_ablation_suite(manifest, samples, kb, cfg, folds_to_run=[0])
    assert list(default) == list(serial) == list(VARIANT_ORDER)
    for name in VARIANT_ORDER:
        (a,), (b,) = serial[name], default[name]
        assert (a.fold, a.best_epoch, a.metrics, a.history) == (
            b.fold, b.best_epoch, b.metrics, b.history), name
        for key, tensor in a.params.named().items():
            assert tensor.data.tobytes() == b.params.named()[key].data.tobytes(), (name, key)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records `max_workers` and the
    initializer's arguments, runs the initializer, then runs each job
    in-process, so no process is started."""

    built: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.built.append((max_workers, initargs))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args))
        return future


def _use_in_process_pool(monkeypatch, cores):
    from freqfuse import training

    monkeypatch.setattr(training, "usable_cores", lambda: cores)
    monkeypatch.setattr(training, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(training, "_worker_inputs", None)
    monkeypatch.setattr(_InProcessPool, "built", [])


def test_pool_workers_read_inputs_from_a_removed_file(clean_data, monkeypatch):
    """The pool is handed a path, not the inputs: the file holds them while
    the workers start, and is gone once the jobs are done."""
    from freqfuse import training

    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=1, hidden1=16, hidden2=8)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    inputs = (manifest, samples, kb, fold_ids)
    _use_in_process_pool(monkeypatch, cores=2)
    (a, b) = training._run_fold_jobs(inputs, [(cfg, 0), (cfg, 1)], workers=2)
    [(_, (path,))] = _InProcessPool.built
    assert isinstance(path, str) and not os.path.exists(path)
    assert np.array_equal(training._worker_inputs[3], fold_ids)
    assert training._worker_inputs[2].embeddings.tobytes() == kb.embeddings.tobytes()
    assert (a.fold, b.fold) == (0, 1)


def test_workers_capped_at_usable_cores(clean_data, monkeypatch):
    """However many workers are asked for, no more start than there are
    usable cores; the stub pool starts no process."""
    from freqfuse import training

    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=1, hidden1=16, hidden2=8)
    inputs = (manifest, samples, kb, make_folds(samples, k=cfg.folds, seed=cfg.seed))
    _use_in_process_pool(monkeypatch, cores=2)
    results = training._run_fold_jobs(inputs, [(cfg, 0), (cfg, 1), (cfg, 2)], workers=10**6)
    assert [workers for workers, _ in _InProcessPool.built] == [2]
    assert [r.fold for r in results] == [0, 1, 2]
    _use_in_process_pool(monkeypatch, cores=1)
    assert [r.fold for r in training._run_fold_jobs(inputs, [(cfg, 0)] * 2, workers=2)] == [0, 0]
    assert _InProcessPool.built == []  # one usable core: the jobs run serially


def test_without_contrastive_total_equals_ce(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=2, hidden1=64, hidden2=32, contrastive=False)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    for record in res.history:
        assert record.contrastive == 0.0
        assert record.train_loss == record.ce


def test_restored_params_match_best_epoch(clean_data):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=4, hidden1=64, hidden2=32)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    from freqfuse.data import image_matrix, labels_array, question_matrix
    from freqfuse.training import evaluate_arrays

    val = np.flatnonzero(fold_ids == 0)
    questions, images = question_matrix(samples), image_matrix(samples)
    again = evaluate_arrays(
        res.params, questions[val], images[val], labels_array(samples)[val], kb, cfg
    )
    assert again.accuracy == res.metrics.accuracy


def test_fold_returns_standalone_best_epoch_params(clean_data, tmp_path):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=3, hidden1=64, hidden2=32)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    res = train_fold(manifest, samples, kb, cfg, fold_ids, 0)
    assert res.best_epoch < len(res.history) - 1  # the restore is exercised
    # training stopped at the best epoch ends with that epoch's parameters
    at_best = train_fold(
        manifest, samples, kb, replace(cfg, max_epochs=res.best_epoch + 1), fold_ids, 0
    )
    path = tmp_path / "best.json"
    save_checkpoint(str(path), res.params)
    loaded = load_checkpoint(str(path)).named()
    for name, t in res.params.named().items():
        assert t.data.flags.c_contiguous and t.grad is None, name
        assert np.array_equal(t.data, at_best.params.named()[name].data), name
        assert np.array_equal(loaded[name].data, t.data), name


def test_non_finite_loss_aborts_with_location(clean_data, monkeypatch):
    manifest, samples, kb = clean_data
    cfg = small_config(max_epochs=2, hidden1=32, hidden2=16)
    fold_ids = make_folds(samples, k=cfg.folds, seed=cfg.seed)
    import freqfuse.losses as losses_module

    def poisoned(logits, labels, tape=None):
        return Tensor(np.nan, check=False)

    monkeypatch.setattr(losses_module, "cross_entropy", poisoned)
    with pytest.raises(NumericError, match=r"^training step at epoch 0 batch 0 \(fold 0\): "):
        train_fold(manifest, samples, kb, cfg, fold_ids, 0)


def test_variant_configs_toggle_the_right_switches():
    base = TrainConfig()
    variants = variant_configs(base)
    assert set(variants) == set(VARIANT_ORDER)
    full = variants["full"]
    assert full.fusion_mode == "freq_plus_knowledge"
    assert full.frequency and full.contrastive and full.co_selection
    assert not variants["wo_frequency"].frequency
    assert variants["wo_frequency"].fusion_mode == "freq_plus_knowledge"
    assert variants["wo_retrieval"] == replace(full, fusion_mode="freq_only")
    assert not variants["wo_contrastive"].contrastive
    assert not variants["wo_co_selection"].co_selection
    sp = variants["spatial_only"]
    assert not (sp.frequency or sp.contrastive or sp.co_selection)
    assert sp.fusion_mode == "freq_only"
    assert variants["cosine_similarity"].similarity == "cosine"


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(similarity="dot").validate()
    with pytest.raises(ConfigError):
        TrainConfig(patience=-1).validate()
    TrainConfig().validate()


def test_metrics_csv_round_trips_floats():
    from freqfuse.training import MetricsReport

    report = MetricsReport(accuracy=1 / 3, f1=0.1 + 0.2, precision=1e-17, recall=0.5, auc=1.0)
    text = metrics_csv_text([("full", 0, report)])
    lines = text.splitlines()
    assert lines[0] == "variant,fold,accuracy,f1,precision,recall,auc"
    cells = lines[1].split(",")
    assert cells[0] == "full" and cells[1] == "0"
    assert float(cells[2]) == 1 / 3  # repr round-trips exactly
    assert float(cells[3]) == 0.1 + 0.2
    assert float(cells[4]) == 1e-17


def test_summarize_population_std():
    from freqfuse.training import MetricsReport

    a = MetricsReport(1.0, 1.0, 1.0, 1.0, 1.0)
    b = MetricsReport(0.5, 0.5, 0.5, 0.5, 0.5)
    stats = summarize([a, b])
    assert stats["accuracy"]["mean"] == 0.75
    assert stats["accuracy"]["std"] == 0.25  # ddof 0


@pytest.fixture(scope="module")
def scoring():
    """An untrained criterion 6 model (d_model 64, hidden 1024/256, knowledge
    fusion), 400 samples, and a KB of the 4 prototypes plus 200 distractors,
    so that retrieval screens (`_SCREEN_MIN_ENTRIES` entries or more)."""
    manifest, samples, entries = generate_synthetic(4, 100, 64, 0.3, seed=2)
    rng = named_stream(2, "distractors")
    entries += [KnowledgeEntry(f"d{i}", "distractor", v)
                for i, v in enumerate(rng.standard_normal((200, 64)))]
    config = TrainConfig(fusion_mode="freq_plus_knowledge")
    params = init_model_params(manifest, fusion_mode="freq_plus_knowledge", hidden1=config.hidden1,
                               hidden2=config.hidden2, dropout=config.dropout, seed=2)
    return params, question_matrix(samples), image_matrix(samples), KnowledgeBase(entries), config


@pytest.mark.parametrize("n", [1, 31, 32, 33, 400])
def test_predict_probs_is_batch_invariant(scoring, n):
    """A row's probabilities are the same bits whatever else is scored with it:
    in a permuted split, in a subset, or alone."""
    params, questions, images, kb, config = scoring
    q, v = questions[:n], images[:n]
    probs = predict_probs(params, q, v, kb, config)
    assert probs.shape == (n, params.n_classes)
    assert np.allclose(probs.sum(axis=1), 1.0)
    order = named_stream(n, "order").permutation(n)
    assert predict_probs(params, q[order], v[order], kb, config).tobytes() == probs[order].tobytes()
    for part in np.array_split(order, 3):
        assert predict_probs(params, q[part], v[part], kb, config).tobytes() == probs[part].tobytes()
    alone = [predict_probs(params, q[i : i + 1], v[i : i + 1], kb, config) for i in range(n)]
    assert np.concatenate(alone).tobytes() == probs.tobytes()


def _count_top_k_rows(monkeypatch) -> list[int]:
    rows = []
    top_k = retrieval.top_k

    def counted(queries, *args, **kwargs):
        rows.append(len(queries))
        return top_k(queries, *args, **kwargs)

    monkeypatch.setattr(retrieval, "top_k", counted)
    return rows


def test_retrieval_sees_at_most_32_rows_from_predict_probs(scoring, monkeypatch):
    params, questions, images, kb, config = scoring
    rows = _count_top_k_rows(monkeypatch)
    predict_probs(params, questions, images, kb, config)
    assert sum(rows) == 13 * 32 and max(rows) == 32  # 400 rows and 16 of padding


def test_retrieval_sees_at_most_32_rows_from_eval(tmp_path, monkeypatch, capsys):
    manifest, samples, entries = generate_synthetic(4, 25, 16, 0.3, seed=5)
    paths = {name: str(tmp_path / name) for name in ("data.jsonl", "kb.jsonl", "ckpt.json")}
    save_dataset(paths["data.jsonl"], manifest, samples)
    save_knowledge_base(paths["kb.jsonl"], entries)
    params = init_model_params(manifest, fusion_mode="freq_plus_knowledge", hidden1=16,
                               hidden2=8, dropout=0.1, seed=5)
    save_checkpoint(paths["ckpt.json"], params, extra_meta={
        "train_config": {"fusion_mode": "freq_plus_knowledge", "hidden1": 16, "hidden2": 8}})
    rows = _count_top_k_rows(monkeypatch)
    assert main(["eval", "--dataset", paths["data.jsonl"], "--kb", paths["kb.jsonl"],
                 "--checkpoint", paths["ckpt.json"]]) == EXIT_OK
    assert '"accuracy"' in capsys.readouterr().out
    assert len(samples) == 100 and rows == [32] * 4

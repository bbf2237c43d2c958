"""Training and evaluation harness: image-grouped cross-validation, the Adam
loop with step decay and early stopping, metrics, and the ablation suite.

Determinism contract: every random choice (parameter init, batch shuffling,
dropout masks, augmentation noise) draws from a named stream derived from the
config seed, so identical (config, data) reruns produce identical metrics.
"""

import math
import os
import pickle
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from multiprocessing import current_process, get_context

import numpy as np

from .data import (
    DatasetManifest,
    Sample,
    atomic_write_text,
    image_matrix,
    labels_array,
    question_matrix,
)
from .errors import ConfigError, NumericError
from .kernel import AdamState, GradTape, adam_step, ops
from .losses import LossBreakdown, _objective
from .model import FUSION_MODES, ForwardOptions, ModelParams, forward_batch, init_model_params
from .retrieval import SIMILARITIES, TOP_K, KnowledgeBase
from .rng import named_stream

# the L2 weight decay of every Adam step
WEIGHT_DECAY = 1e-5
# the learning rate is multiplied by LR_DECAY every LR_DECAY_EVERY epochs
LR_DECAY = 0.98
LR_DECAY_EVERY = 5


@dataclass
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    folds: int = 5
    seed: int = 0
    clip_norm: float = 5.0  # 0 disables clipping
    dropout: float = 0.1
    hidden1: int = 1024
    hidden2: int = 256
    retrieval_k: int = TOP_K
    # ablation switchboard
    frequency: bool = True
    contrastive: bool = True
    co_selection: bool = True
    similarity: str = "fidelity"
    fusion_mode: str = "freq_only"  # freq_plus_knowledge: retrieval on

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not abs(value) < math.inf:  # NaN fails too
                raise ConfigError(f"{f.name} must be finite, got {value}")
        positive = {
            "lr": self.lr,
            "batch_size": self.batch_size,
            "max_epochs": self.max_epochs,
            "folds": self.folds,
            "retrieval_k": self.retrieval_k,
            "hidden1": self.hidden1,
            "hidden2": self.hidden2,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name, value in (("patience", self.patience), ("clip_norm", self.clip_norm)):
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.similarity not in SIMILARITIES:
            raise ConfigError(
                f"similarity must be {' or '.join(SIMILARITIES)}, got {self.similarity!r}"
            )
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}")

    def forward_options(self) -> ForwardOptions:
        return ForwardOptions(
            frequency=self.frequency,
            co_selection=self.co_selection,
            similarity=self.similarity,
            retrieval_k=self.retrieval_k,
        )


def schedule_lr(base: float, epoch: int) -> float:
    """Step decay: base * LR_DECAY^(epoch // LR_DECAY_EVERY), epochs counted from 0."""
    return base * LR_DECAY ** (epoch // LR_DECAY_EVERY)


def make_folds(samples: list[Sample], k: int = 5, seed: int = 0) -> np.ndarray:
    """Assign a fold id to every sample, keeping all samples of an image together.

    Distinct image_ids (in first-appearance order) are shuffled by the seed
    and dealt round-robin over the k folds.
    """
    ids: list[str] = []
    seen = set()
    for sample in samples:
        if sample.image_id not in seen:
            seen.add(sample.image_id)
            ids.append(sample.image_id)
    if len(ids) < k:
        raise ConfigError(f"need at least {k} distinct image_ids, found {len(ids)}")
    order = named_stream(seed, "folds").permutation(len(ids))
    fold_of_image = {ids[int(j)]: int(pos % k) for pos, j in enumerate(order)}
    return np.asarray([fold_of_image[s.image_id] for s in samples], dtype=np.int64)


@dataclass
class MetricsReport:
    accuracy: float
    f1: float
    precision: float
    recall: float
    auc: float


def _midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their positions."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _binary_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC; tied scores contribute one half."""
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined without both classes")
    ranks = _midranks(scores)
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def compute_metrics(labels: np.ndarray, probs: np.ndarray) -> MetricsReport:
    """Accuracy plus macro precision/recall/F1/AUC over classes present in labels."""
    preds = probs.argmax(axis=1)
    accuracy = float(np.mean(preds == labels))
    n_classes = probs.shape[1]
    present = [c for c in range(n_classes) if np.any(labels == c)]
    if len(present) < n_classes:
        absent = sorted(set(range(n_classes)) - set(present))
        warnings.warn(f"classes {absent} absent from split; excluded from macro averages",
                      stacklevel=2)
    precisions, recalls, f1s, aucs = [], [], [], []
    for c in present:
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
        if np.any(labels != c):
            aucs.append(_binary_auc(probs[:, c], labels == c))
    auc = float(np.mean(aucs)) if aucs else 0.0
    return MetricsReport(
        accuracy=accuracy,
        f1=float(np.mean(f1s)),
        precision=float(np.mean(precisions)),
        recall=float(np.mean(recalls)),
        auc=auc,
    )


# rows `predict_probs` sends through the model at once: every product then has
# one shape, so a row's bits do not depend on the rest of its batch
_INFERENCE_TILE = 32


def _tile(x: np.ndarray, start: int) -> np.ndarray:
    """Rows [start, start + _INFERENCE_TILE) of x; a short last tile is padded
    with copies of its last row (a zero row would be a degenerate query)."""
    rows = x[start : start + _INFERENCE_TILE]
    if len(rows) == _INFERENCE_TILE:
        return rows
    return np.concatenate([rows, np.repeat(rows[-1:], _INFERENCE_TILE - len(rows), axis=0)])


def predict_probs(
    params: ModelParams,
    questions: np.ndarray,
    images: np.ndarray,
    kb: KnowledgeBase | None,
    config: TrainConfig,
) -> np.ndarray:
    """Softmax class probabilities, one row per sample. The model runs on
    _INFERENCE_TILE rows at a time, so memory is bounded by the tile, not the
    split, and each row's probabilities are the same bits in any split."""
    options = config.forward_options()
    probs = np.empty((len(questions), params.n_classes))
    for start in range(0, len(questions), _INFERENCE_TILE):
        result = forward_batch(
            params, _tile(questions, start), _tile(images, start), kb, train=False,
            options=options,
        )
        rows = probs[start : start + _INFERENCE_TILE]
        rows[...] = ops.softmax(result.logits.data)[: len(rows)]
    return probs


def evaluate_arrays(
    params: ModelParams,
    questions: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    kb: KnowledgeBase | None,
    config: TrainConfig,
) -> MetricsReport:
    return compute_metrics(labels, predict_probs(params, questions, images, kb, config))


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    ce: float
    contrastive: float
    val_accuracy: float


@dataclass
class FoldResult:
    fold: int
    params: ModelParams
    best_epoch: int
    metrics: MetricsReport
    history: list[EpochRecord] = field(default_factory=list)


def _clip_gradients(grad: np.ndarray, clip_norm: float) -> None:
    """Scale the flat gradient in place to a global L2 norm <= clip_norm (0: off).
    The sum of squares goes through einsum, not BLAS: a threaded BLAS dot
    splits the sum by thread count, which would make training depend on it."""
    if clip_norm <= 0:
        return
    total = np.sqrt(np.einsum("i,i->", grad, grad))
    if total > clip_norm:
        grad *= clip_norm / total


def _train_step(
    params: ModelParams, state: AdamState, questions: np.ndarray, images: np.ndarray,
    labels: np.ndarray, kb: KnowledgeBase | None, config: TrainConfig, lr: float, step: int,
    where: tuple[int, int, int],
) -> LossBreakdown:
    """One Adam step (number `step`) on a batch, at `where` = (fold, epoch,
    batch): forward with the batch's dropout stream, the objective with its
    augment stream, backward, clipping and the update."""
    fold, epoch, batch_no = where
    tape = GradTape()
    try:
        fwd = forward_batch(
            params, questions, images, kb, train=True,
            rng=named_stream(config.seed, "dropout", *where), tape=tape,
            options=config.forward_options(),
        )
        total, breakdown = _objective(
            fwd, labels, config.contrastive, named_stream(config.seed, "augment", *where), tape
        )
        if not np.isfinite(total.data):
            raise NumericError(f"loss value is {float(total.data)}")
        state.zero_grad()
        tape.backward(total)
        _clip_gradients(state.grad, config.clip_norm)
        adam_step(params.named(), state, lr=lr, weight_decay=WEIGHT_DECAY, t=step)
    except NumericError as exc:
        # locate numeric blow-ups so long runs fail with context
        raise NumericError(
            f"training step at epoch {epoch} batch {batch_no} (fold {fold}): {exc}"
        ) from exc
    return breakdown


def train_fold(
    manifest: DatasetManifest,
    samples: list[Sample],
    kb: KnowledgeBase | None,
    config: TrainConfig,
    fold_ids: np.ndarray,
    fold: int,
) -> FoldResult:
    """Train on every fold but `fold`, validate on `fold`, return the best model."""
    config.validate()
    questions = question_matrix(samples)
    images = image_matrix(samples)
    labels = labels_array(samples)
    train_idx = np.flatnonzero(fold_ids != fold)
    val_idx = np.flatnonzero(fold_ids == fold)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ConfigError(f"fold {fold} leaves an empty train or validation split")

    params = init_model_params(
        manifest,
        fusion_mode=config.fusion_mode,
        hidden1=config.hidden1,
        hidden2=config.hidden2,
        dropout=config.dropout,
        seed=config.seed,
    )
    named = params.named()
    state = AdamState(named)
    val_questions, val_images, val_labels = questions[val_idx], images[val_idx], labels[val_idx]

    best_acc = -1.0
    best_epoch = -1
    best_theta = state.theta.copy()
    best_metrics: MetricsReport | None = None
    epochs_since_best = 0
    history: list[EpochRecord] = []
    step = 0

    for epoch in range(config.max_epochs):
        lr = schedule_lr(config.lr, epoch)
        perm = named_stream(config.seed, "shuffle", fold, epoch).permutation(len(train_idx))
        shuffled = train_idx[perm]
        loss_sum = 0.0
        ce_sum = 0.0
        contrast_sum = 0.0
        for batch_no, start in enumerate(range(0, len(shuffled), config.batch_size)):
            idx = shuffled[start : start + config.batch_size]
            step += 1
            breakdown = _train_step(
                params, state, questions[idx], images[idx], labels[idx], kb, config, lr, step,
                (fold, epoch, batch_no),
            )
            loss_sum += breakdown.total * len(idx)
            ce_sum += breakdown.ce * len(idx)
            contrast_sum += (breakdown.total - breakdown.ce) * len(idx)

        try:
            val_metrics = evaluate_arrays(params, val_questions, val_images, val_labels, kb, config)
        except NumericError as exc:
            raise NumericError(f"validation at epoch {epoch} (fold {fold}): {exc}") from exc
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=loss_sum / len(shuffled),
                ce=ce_sum / len(shuffled),
                contrastive=contrast_sum / len(shuffled),
                val_accuracy=val_metrics.accuracy,
            )
        )
        if val_metrics.accuracy > best_acc:
            best_acc = val_metrics.accuracy
            best_epoch = epoch
            best_metrics = val_metrics
            np.copyto(best_theta, state.theta)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    np.copyto(state.theta, best_theta)
    for t in named.values():
        t.zero_grad()
    assert best_metrics is not None
    return FoldResult(
        fold=fold, params=params, best_epoch=best_epoch, metrics=best_metrics, history=history
    )


VARIANT_ORDER = (
    "full",
    "wo_frequency",
    "wo_retrieval",
    "wo_contrastive",
    "wo_co_selection",
    "spatial_only",
    "cosine_similarity",
)


def variant_configs(base: TrainConfig) -> dict[str, TrainConfig]:
    """Ablation rows. The full model uses knowledge fusion so that disabling
    retrieval is an observable change; the retrieval-off rows fall back to the
    two-segment fusion width."""
    full = replace(
        base,
        frequency=True,
        contrastive=True,
        co_selection=True,
        similarity="fidelity",
        fusion_mode="freq_plus_knowledge",
    )
    return {
        "full": full,
        "wo_frequency": replace(full, frequency=False),
        "wo_retrieval": replace(full, fusion_mode="freq_only"),
        "wo_contrastive": replace(full, contrastive=False),
        "wo_co_selection": replace(full, co_selection=False),
        "spatial_only": replace(
            full,
            frequency=False,
            fusion_mode="freq_only",
            contrastive=False,
            co_selection=False,
        ),
        "cosine_similarity": replace(full, similarity="cosine"),
    }


def _train_one_fold(inputs, config: TrainConfig, fold: int) -> FoldResult:
    manifest, samples, kb, fold_ids = inputs
    return train_fold(manifest, samples, kb, config, fold_ids, fold)


# the (manifest, samples, kb, fold_ids) of a pool worker, read once at its start
_worker_inputs = None


def _init_worker(inputs_path: str) -> None:
    global _worker_inputs
    with open(inputs_path, "rb") as fh:
        _worker_inputs = pickle.load(fh)


def _worker_fold_job(job, errstate: dict) -> FoldResult:
    # the caller's numpy floating-point error handling, as in a serial run
    with np.errstate(**errstate):
        return _train_one_fold(_worker_inputs, *job)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_in_children():
    """Processes spawned inside the block run BLAS on one thread: they read
    these variables when they import numpy. This process's BLAS is loaded
    already and keeps its threads; its environment is restored on exit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def usable_cores() -> int:
    """The cores this process may run on; 1 in a daemonic process, which
    cannot start worker processes."""
    if current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_fold_jobs(inputs, jobs, workers: int | None = None) -> list[FoldResult]:
    """Train every (config, fold) job on inputs (manifest, samples, kb,
    fold_ids); results keep job order and do not depend on `workers`.

    workers=None means one per usable core. At most one worker per job and
    one per usable core is started (none from a daemonic process, where
    `usable_cores()` is 1): each worker runs BLAS on one thread, so more
    workers than cores add no speed. Workers are spawned, since forking a
    process with live BLAS threads is unsafe.
    Spawned workers import the main module, so a script calling this needs an
    `if __name__ == "__main__":` guard. The pool function is private because a
    function perfbench's tracer has wrapped cannot be pickled by name."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    workers = min(workers or len(jobs), len(jobs), usable_cores())
    if workers <= 1:
        return [_train_one_fold(inputs, *job) for job in jobs]
    # The inputs are streamed to a file once, which each worker reads. Passed
    # as initargs, they would be pickled into one buffer per worker start, and
    # whether malloc hands such a freed buffer back depends on the heap layout,
    # so this process's peak memory would vary by ~10 MB from run to run.
    with tempfile.TemporaryDirectory(prefix="freqfuse-pool-") as tmp:
        inputs_path = os.path.join(tmp, "inputs.pickle")
        with open(inputs_path, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(inputs_path,),
        ) as pool:
            with _one_blas_thread_in_children():  # a spawn pool starts its workers in submit
                futures = [pool.submit(_worker_fold_job, job, np.geterr()) for job in jobs]
            return [future.result() for future in futures]


def run_ablation_suite(
    manifest: DatasetManifest,
    samples: list[Sample],
    kb: KnowledgeBase | None,
    config: TrainConfig,
    folds_to_run: list[int] | None = None,
    workers: int | None = None,
) -> dict[str, list[FoldResult]]:
    """Train every ablation variant under identical seeds and fold assignment,
    on `workers` processes (None: one per usable core; see _run_fold_jobs)."""
    fold_ids = make_folds(samples, k=config.folds, seed=config.seed)
    if folds_to_run is None:
        folds_to_run = list(range(config.folds))
    variants = variant_configs(config)
    jobs = [(variants[name], fold) for name in VARIANT_ORDER for fold in folds_to_run]
    results = iter(_run_fold_jobs((manifest, samples, kb, fold_ids), jobs, workers))
    return {name: [next(results) for _ in folds_to_run] for name in VARIANT_ORDER}


def metrics_csv_text(rows: list[tuple[str, int, MetricsReport]]) -> str:
    lines = ["variant,fold,accuracy,f1,precision,recall,auc"]
    for variant, fold, m in rows:
        lines.append(
            f"{variant},{fold},{m.accuracy!r},{m.f1!r},{m.precision!r},{m.recall!r},{m.auc!r}"
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(path: str, rows: list[tuple[str, int, MetricsReport]]) -> None:
    atomic_write_text(path, metrics_csv_text(rows))


def summarize(per_fold: list[MetricsReport]) -> dict:
    """Mean and population std (ddof 0) of each metric over folds."""
    out = {}
    for key in (f.name for f in fields(MetricsReport)):
        values = np.asarray([getattr(m, key) for m in per_fold])
        out[key] = {"mean": float(values.mean()), "std": float(values.std())}
    return out

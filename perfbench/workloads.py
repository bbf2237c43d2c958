"""The benchmark's workloads.

Each workload has three parts:
- `generate(seed, workdir)` runs in the parent process, untimed. It makes the
  inputs from the seed and writes them with the program's writers.
- `setup(inputs)` runs in the workload process. It loads the inputs through
  the program's loaders, as `freqfuse train` and `freqfuse eval` do.
- `run_pass(state)` is one pass of the timed phase. It times only calls into
  the program, and checks their outputs. An operation (a fold, an ablation
  variant, an eval batch, a query batch) fails when it raises or fails its check.

The program is reached through module attributes (`training.train_fold`), so
the traced run's wrappers see the benchmark's own calls too.
"""

import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

import freqfuse.data as data
import freqfuse.model as model
import freqfuse.retrieval as retrieval
import freqfuse.training as training
import oracle

# the criterion 6/7 data: 4 classes x 500 samples, d_model 64, noise 0.3
N_CLASSES, PER_CLASS, D_MODEL, SIGMA = 4, 500, 64, 0.3
FOLDS, FOLD = 5, 0
# 5 epochs is the criterion 7 budget; a 30-epoch criterion 6 fold would not fit
# the benchmark's time budget, and per-epoch cost is what is measured
EPOCHS = 5
BATCH = 32
K, TAU = retrieval.TOP_K, retrieval.SOFTMAX_TAU
SWEEP_SAMPLES = 384  # 12 full eval batches from the validation fold
LARGE_KB_SIZE = 100_000
LARGE_KB_SAMPLES = 256  # 8 eval batches and 8 query batches per pass
LARGE_KB_CHECKED = (0, 4)  # query batches checked against the oracle in each pass
TIE_SCALES = (2.0, 4.0, 8.0)  # power-of-two copies keep unit rows bit-identical


@dataclass
class PassResult:
    seconds: float = 0.0  # time inside the program's calls
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    train_samples: int = 0
    train_seconds: float = 0.0
    eval_batch_s: list = field(default_factory=list)
    query_batch_s: list = field(default_factory=list)
    queries: int = 0
    query_seconds: float = 0.0
    boundary_ties: int = 0
    val_accuracy: float = 0.0
    param_count: int = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def param_count(params) -> int:
    return sum(t.data.size for t in params.named().values())


def batches(n: int):
    return [slice(start, start + BATCH) for start in range(0, n - BATCH + 1, BATCH)]


def _probability_errors(probs: np.ndarray, rows: int) -> str | None:
    if probs.shape[0] != rows or not np.all(np.isfinite(probs)) or np.any(probs < 0):
        return "probabilities are not finite and non-negative"
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
        return "probability rows do not sum to 1"
    return None


def eval_sweep(res: PassResult, params, config, questions, images, labels, kb) -> float | None:
    """Score every batch with predict_probs; return the accuracy, None on error."""
    correct = 0
    for sl in batches(len(labels)):
        res.attempted += 1
        try:
            probs, dt = timed(training.predict_probs, params, questions[sl], images[sl], kb, config)
        except Exception as exc:  # an operation that raises counts as failed
            res.fail(1, f"predict_probs raised {exc!r}")
            return None
        res.seconds += dt
        res.eval_batch_s.append(dt)
        error = _probability_errors(probs, sl.stop - sl.start)
        if error:
            res.fail(1, error)
        correct += int(np.sum(probs.argmax(axis=1) == labels[sl]))
    return correct / (len(batches(len(labels))) * BATCH)


def query_sweep(res: PassResult, queries, kb, reference: dict) -> None:
    """retrieve_batch on every query batch; check the batches that `reference`
    maps to their oracle top-k, as `(embeddings, scores)` of the k + 1 best."""
    for call, sl in enumerate(batches(len(queries))):
        q = queries[sl]
        res.attempted += 1
        try:
            out, dt = timed(retrieval.retrieve_batch, q, kb, k=K, tau=TAU, similarity="fidelity")
        except Exception as exc:
            res.fail(1, f"retrieve_batch raised {exc!r}")
            continue
        res.seconds += dt
        res.query_batch_s.append(dt)
        res.queries += len(q)
        res.query_seconds += dt
        if call in reference:
            chosen, scores = reference[call]
            errors = oracle.check(out, chosen[:, :K], scores[:, :K], TAU)
            if errors:
                res.fail(1, f"query batch {call}: {errors[0]}")
            res.boundary_ties += int(np.sum(scores[:, K - 1] == scores[:, K]))


def _synthetic(seed: int):
    return data.generate_synthetic(N_CLASSES, PER_CLASS, D_MODEL, SIGMA, seed=seed)


@dataclass
class FoldState:
    seed: int
    manifest: object
    samples: list
    kb: object
    fold_ids: np.ndarray
    n_train: int
    n_val: int
    questions: np.ndarray
    images: np.ndarray
    labels: np.ndarray


def _trained(res: PassResult, s: FoldState, results, seconds: float) -> None:
    """Training throughput of a fold or suite, and the retrieval queries its
    forward passes answered (one per training and validation sample per epoch,
    in folds that fuse knowledge) per second of it."""
    res.train_samples = sum(len(r.history) for r in results) * s.n_train
    res.train_seconds = seconds
    res.queries = sum(len(r.history) for r in results if r.params.fusion_mode
                      == "freq_plus_knowledge") * (s.n_train + s.n_val)
    res.query_seconds = seconds


class TrainFold:
    """One fold at the criterion 6 model config (freq_plus_knowledge, hidden1
    1024, batch 32, 483,660 parameters) on the 8-entry synthetic KB. The
    training step does nearly all the work; retrieval over 8 entries costs
    almost nothing, so a retrieval change must not move this workload.
    Retrieval happens only inside the forward passes: a separate sweep of
    microsecond calls over 8 entries measured the host more than the program."""

    name = "train_fold"
    setup_repeats = 11  # set-up takes about 0.5 s
    # an eval batch at 8 entries takes a few milliseconds; a run makes 3 or 4 passes
    eval_rounds = 4

    def config(self, seed: int):
        return training.TrainConfig(seed=seed, max_epochs=EPOCHS, patience=30,
                                    fusion_mode="freq_plus_knowledge")

    def generate(self, seed: int, workdir: str) -> dict:
        manifest, samples, kb_entries = _synthetic(seed)
        paths = {"dataset": os.path.join(workdir, "dataset.jsonl"),
                 "kb": os.path.join(workdir, "kb.jsonl")}
        data.save_dataset(paths["dataset"], manifest, samples)
        data.save_knowledge_base(paths["kb"], kb_entries)
        return {"seed": seed, "kb_size": len(kb_entries), **paths}

    def setup(self, inputs: dict) -> FoldState:
        manifest, samples = data.load_dataset(inputs["dataset"])
        entries = data.load_knowledge_base(inputs["kb"], d_model=manifest.d_model)
        kb = retrieval.KnowledgeBase(entries)
        fold_ids = training.make_folds(samples, k=FOLDS, seed=inputs["seed"])
        sweep = np.flatnonzero(fold_ids == FOLD)[:SWEEP_SAMPLES]
        return FoldState(
            seed=inputs["seed"], manifest=manifest, samples=samples, kb=kb,
            fold_ids=fold_ids, n_train=int(np.sum(fold_ids != FOLD)),
            n_val=int(np.sum(fold_ids == FOLD)),
            questions=data.question_matrix(samples)[sweep],
            images=data.image_matrix(samples)[sweep],
            labels=data.labels_array(samples)[sweep],
        )

    def run_pass(self, s: FoldState) -> PassResult:
        res = PassResult()
        config = self.config(s.seed)
        res.attempted += 1
        try:
            fold, dt = timed(training.train_fold, s.manifest, s.samples, s.kb, config,
                             s.fold_ids, FOLD)
        except Exception as exc:
            res.fail(1, f"train_fold raised {exc!r}")
            return res
        res.seconds += dt
        history = fold.history
        best = max(r.val_accuracy for r in history)
        if best < 0.95 or not history[-1].train_loss < history[0].train_loss:
            res.fail(1, f"fold: best val accuracy {best}, loss "
                        f"{history[0].train_loss} -> {history[-1].train_loss}")
        _trained(res, s, [fold], dt)
        res.val_accuracy = fold.metrics.accuracy
        res.param_count = param_count(fold.params)
        self.evaluate(res, s, fold.params, config)
        return res

    def evaluate(self, res: PassResult, s: FoldState, params, config) -> None:
        """Score the validation samples with the trained model, as `freqfuse eval` would."""
        for _ in range(self.eval_rounds):
            eval_sweep(res, params, config, s.questions, s.images, s.labels, s.kb)


class AblationFold(TrainFold):
    """The criterion 7 suite: all 7 variants on fold 0 for 5 epochs. The same
    layers in other proportions: two variants skip the DFT, two skip
    retrieval, two skip InfoNCE, and parameter init and Adam state run 7 times."""

    name = "ablation_fold"
    eval_rounds = 16  # a run makes one pass, so it sweeps as often as 4 train_fold passes

    def config(self, seed: int):
        return training.TrainConfig(seed=seed, max_epochs=EPOCHS, patience=10)

    def run_pass(self, s: FoldState) -> PassResult:
        res = PassResult()
        config = self.config(s.seed)
        variants = len(training.VARIANT_ORDER)
        res.attempted += variants
        try:
            results, dt = timed(training.run_ablation_suite, s.manifest, s.samples, s.kb,
                                config, folds_to_run=[FOLD])
        except Exception as exc:
            res.fail(variants, f"run_ablation_suite raised {exc!r}")
            return res
        res.seconds += dt
        acc = {name: folds[0].metrics.accuracy for name, folds in results.items()}
        if acc["full"] - acc["spatial_only"] < 0.05:
            res.fail(2, f"full {acc['full']} is not 5 points above "
                        f"spatial_only {acc['spatial_only']}")
        single = ("wo_frequency", "wo_retrieval", "wo_contrastive")
        if acc["wo_frequency"] != min(acc[name] for name in single):
            res.fail(1, f"wo_frequency is not the worst single removal: {acc}")
        _trained(res, s, [f[0] for f in results.values()], dt)
        res.val_accuracy = acc["full"]
        res.param_count = param_count(results["full"][0].params)
        full = replace(config, fusion_mode="freq_plus_knowledge")
        self.evaluate(res, s, results["full"][0].params, full)
        return res


@dataclass
class EvalState:
    kb: object
    params: object
    reference: dict
    questions: np.ndarray
    images: np.ndarray
    labels: np.ndarray
    recorded_accuracy: float


def large_kb_entries(base: list, seed: int) -> list:
    """The synthetic entries, then random distractors up to LARGE_KB_SIZE, with
    power-of-two copies of each class prototype spread through the KB. A copy
    ties its prototype exactly, so a query near a prototype has a tie at the
    k boundary; its larger norm makes the tie-break visible in the output."""
    rng = np.random.default_rng([seed, 0x6B62])
    prototypes = base[:N_CLASSES]
    n_copies = len(prototypes) * len(TIE_SCALES)
    n_random = LARGE_KB_SIZE - len(base) - n_copies
    vectors = rng.standard_normal((n_random, D_MODEL)) / np.sqrt(D_MODEL)
    entries = list(base) + [
        data.KnowledgeEntry(entry_id=f"bench-distractor-{i}", text="random distractor",
                            embedding=v)
        for i, v in enumerate(vectors)
    ]
    copy = 0
    for proto in prototypes:
        for scale in TIE_SCALES:
            copy += 1
            position = copy * len(entries) // (n_copies + 1)
            entries.insert(position, data.KnowledgeEntry(
                entry_id=f"{proto.entry_id}-x{scale:g}", text=proto.text,
                embedding=scale * proto.embedding))
    return entries


def write_reference(path: str, entries: list, queries: np.ndarray) -> None:
    """The oracle's k + 1 best entries (embeddings and scores) for the query
    batches in LARGE_KB_CHECKED. It runs during input generation, so the
    workload process, whose peak RSS is measured, holds no oracle arrays."""
    top = oracle.TopKOracle(np.stack([e.embedding for e in entries]))
    refs = [top.top_k(queries[batches(len(queries))[call]], K + 1) for call in LARGE_KB_CHECKED]
    np.savez(path, calls=np.array(LARGE_KB_CHECKED),
             chosen=np.stack([top.embeddings[idx] for idx, _ in refs]),
             scores=np.stack([scores for _, scores in refs]))


class EvalLargeKb:
    """Read-only inference against a 1e5-entry KB: predict_probs on batches of
    32, then retrieve_batch on query batches of 32. No backward pass and no
    Adam; retrieval dominates, and loading the KB dominates set-up."""

    name = "eval_large_kb"
    setup_repeats = 5  # set-up takes about 4 to 5 s, most of it loading the KB

    def generate(self, seed: int, workdir: str) -> dict:
        manifest, samples, kb_entries = _synthetic(seed)
        fold_ids = training.make_folds(samples, k=FOLDS, seed=seed)
        config = training.TrainConfig(seed=seed, max_epochs=1, fusion_mode="freq_plus_knowledge")
        small_kb = retrieval.KnowledgeBase(kb_entries)
        # the checkpoint is a one-epoch fold. There is no training in the timed
        # phase, so train_samples_per_s is the median of three such folds;
        # they are deterministic, so any of them gives the same checkpoint
        runs = [timed(training.train_fold, manifest, samples, small_kb, config, fold_ids, FOLD)
                for _ in range(3)]
        fold = runs[-1][0]
        train_samples = int(np.sum(fold_ids != FOLD))
        train_rates = [train_samples / seconds for _, seconds in runs]
        held_out = [samples[i] for i in np.flatnonzero(fold_ids == FOLD)[:LARGE_KB_SAMPLES]]
        entries = large_kb_entries(kb_entries, seed)
        paths = {"dataset": os.path.join(workdir, "eval.jsonl"),
                 "kb": os.path.join(workdir, "kb.jsonl"),
                 "checkpoint": os.path.join(workdir, "model.ckpt.json"),
                 "reference": os.path.join(workdir, "reference.npz")}
        write_reference(paths["reference"], entries, data.image_matrix(held_out))
        data.save_dataset(paths["dataset"], manifest, held_out)
        data.save_knowledge_base(paths["kb"], entries)
        model.save_checkpoint(paths["checkpoint"], fold.params,
                              extra_meta={"train_config": asdict(config)})
        res = PassResult()
        accuracy = eval_sweep(res, fold.params, config, data.question_matrix(held_out),
                              data.image_matrix(held_out), data.labels_array(held_out),
                              retrieval.KnowledgeBase(entries))
        if accuracy is None or res.failed:
            raise RuntimeError(f"recording the checkpoint's accuracy failed: {res.failures}")
        return {"seed": seed, "kb_size": len(entries), "recorded_accuracy": accuracy,
                "train_samples_per_s": float(np.median(train_rates)), **paths}

    def setup(self, inputs: dict) -> EvalState:
        manifest, samples = data.load_dataset(inputs["dataset"])
        entries = data.load_knowledge_base(inputs["kb"], d_model=manifest.d_model)
        kb = retrieval.KnowledgeBase(entries)
        params = model.load_checkpoint(inputs["checkpoint"])
        with np.load(inputs["reference"]) as ref:
            reference = {int(call): (chosen, scores) for call, chosen, scores
                         in zip(ref["calls"], ref["chosen"], ref["scores"])}
        return EvalState(
            kb=kb, params=params, reference=reference,
            questions=data.question_matrix(samples), images=data.image_matrix(samples),
            labels=data.labels_array(samples), recorded_accuracy=inputs["recorded_accuracy"],
        )

    def run_pass(self, s: EvalState) -> PassResult:
        res = PassResult(param_count=param_count(s.params))
        config = training.TrainConfig(fusion_mode="freq_plus_knowledge")
        accuracy = eval_sweep(res, s.params, config, s.questions, s.images, s.labels, s.kb)
        if accuracy is not None:
            res.val_accuracy = accuracy
            if accuracy != s.recorded_accuracy:
                res.fail(len(res.eval_batch_s), f"eval accuracy {accuracy} differs from "
                         f"the recorded {s.recorded_accuracy}")
        query_sweep(res, s.images, s.kb, s.reference)
        return res


WORKLOADS = {w.name: w for w in (TrainFold(), AblationFold(), EvalLargeKb())}

"""Per-layer tracing of freqfuse: which calls are wrapped, and the per-layer
metrics computed from the recorded spans.

The layers are the modules of freqfuse below. Modules bind names directly
(`from .kernel import adam_step`), so a public function is wrapped at every
module attribute that holds it, not only where it is defined. `kernel.eig`,
`gradcheck` and `cli` are not traced: eig serves only fidelity verification,
gradcheck is off every user's hot path and cli is argument plumbing.
"""

import inspect
import sys
from collections import defaultdict

import stats
from tracer import Tracer, self_times

LAYERS = {
    "freqfuse.kernel.tensor": "kernel.tensor",
    "freqfuse.kernel.ops": "kernel.ops",
    "freqfuse.kernel.fft": "kernel.fft",
    "freqfuse.kernel.adam": "kernel.adam",
    "freqfuse.data": "data",
    "freqfuse.fusion": "fusion",
    "freqfuse.retrieval": "retrieval",
    "freqfuse.losses": "losses",
    "freqfuse.model": "model",
    "freqfuse.training": "training",
}

OPS = (
    "linear", "layernorm", "gelu", "dropout", "sigmoid", "mul", "add", "scale", "concat",
    "rownorm", "row_norms", "matmul_nt", "mean_pool",
)
VARIANTS = (
    "full", "wo_frequency", "wo_retrieval", "wo_contrastive", "wo_co_selection",
    "spatial_only", "cosine_similarity",
)
FOLD = "training.train_fold"
LOSS_SPANS = ("losses.cross_entropy", "losses.augment", "losses.info_nce", "losses.total_loss")
PHASES = {
    "model.forward_batch": "forward",
    **{name: "loss" for name in LOSS_SPANS},
    "kernel.tensor.GradTape.backward": "backward",
    "kernel.adam.adam_step": "optimizer",
    "training.evaluate_arrays": "eval",
}


def _starts_group(name, parent) -> bool:
    """A root call, or a training step or per-epoch evaluation inside a fold."""
    if parent is None:
        return True
    return parent.name == FOLD and name in ("model.forward_batch", "training.evaluate_arrays")


def new_tracer() -> Tracer:
    return Tracer(starts_group=_starts_group)


def _freqfuse_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "freqfuse" or name.startswith("freqfuse."))]


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _hooks(tracer: Tracer, originals: dict) -> dict:
    """Tags and counters for the calls whose arguments or results matter."""
    suite_variants: list = []

    def forward_tag(args, kwargs):
        return "train" if forward_args(args, kwargs)["train"] else "eval"

    # retrieve_tag and adam_tag only count; their spans stay untagged
    def retrieve_tag(args, kwargs):
        a = retrieve_args(args, kwargs)
        batch = len(a["queries"])
        tracer.counts["retrieval.scored_entries"] += batch * len(a["kb"])
        tracer.counts["retrieval.kept"] += batch * a["k"]

    def adam_tag(args, kwargs):
        params = adam_args(args, kwargs)["params"]
        count = sum(p.data.size for p in params.values())
        tracer.counts["kernel.adam.param_count"] = max(tracer.counts["kernel.adam.param_count"],
                                                       count)

    def fold_tag(args, kwargs):
        config = fold_args(args, kwargs)["config"]
        return next((name for name, c in suite_variants if c == config), None)

    def fold_after(result, args, kwargs):
        tracer.counts["training.epochs"] += len(result.history)
        tracer.counts["training.epochs_after_best"] += len(result.history) - 1 - result.best_epoch

    def suite_tag(args, kwargs):
        base = suite_args(args, kwargs)["config"]
        suite_variants[:] = originals["training.variant_configs"](base).items()

    def suite_after(result, args, kwargs):
        suite_variants.clear()

    forward_args = _bound(originals["model.forward_batch"])
    retrieve_args = _bound(originals["retrieval.retrieve_batch"])
    adam_args = _bound(originals["kernel.adam.adam_step"])
    fold_args = _bound(originals["training.train_fold"])
    suite_args = _bound(originals["training.run_ablation_suite"])
    return {
        "model.forward_batch": (forward_tag, None),
        "retrieval.retrieve_batch": (retrieve_tag, None),
        "kernel.adam.adam_step": (adam_tag, None),
        "training.train_fold": (fold_tag, fold_after),
        "training.run_ablation_suite": (suite_tag, suite_after),
    }


def install(tracer: Tracer) -> None:
    """Wrap every public function of the traced layers at every binding, plus
    GradTape.backward, GradTape.record, Tensor construction and KnowledgeBase
    construction. `tracer.unpatch_all()` restores everything."""
    from freqfuse.kernel.tensor import GradTape, Tensor
    from freqfuse.retrieval import KnowledgeBase

    names = {}
    for module_name, layer in LAYERS.items():
        module = sys.modules[module_name]
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module_name \
                    and not attr.startswith("_"):
                names[value] = f"{layer}.{attr}"
    originals = {name: fn for fn, name in names.items()}
    hooks = _hooks(tracer, originals)

    wrappers = {}
    for fn, name in names.items():
        if name == "kernel.tensor.check_finite":
            wrappers[fn] = tracer.timing_wrapper(fn, name)
        else:
            tag_of, after = hooks.get(name, (None, None))
            wrappers[fn] = tracer.span_wrapper(fn, name, tag_of, after)
    for module in _freqfuse_modules():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                tracer.patch(module, attr, wrappers[value])

    tracer.patch(GradTape, "backward",
                 tracer.span_wrapper(GradTape.backward, "kernel.tensor.GradTape.backward"))
    tracer.patch(KnowledgeBase, "__init__",
                 tracer.span_wrapper(KnowledgeBase.__init__, "retrieval.KnowledgeBase"))
    record = GradTape.record
    tensor_init = Tensor.__init__

    def traced_record(tape, backward_fn):
        # attribute the closure to the op that is recording it
        name = f"{tracer.current_name()}.bwd"
        tracer.group_counts[("records", tracer.group)] += 1

        def timed_backward():
            index = tracer.open(name)
            try:
                backward_fn()
            finally:
                tracer.close(index)

        record(tape, timed_backward)

    def counted_init(self, *args, **kwargs):
        tracer.group_counts[("tensors", tracer.group)] += 1
        tensor_init(self, *args, **kwargs)

    tracer.patch(GradTape, "record", traced_record)
    tracer.patch(Tensor, "__init__", counted_init)


def metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run. Times are totals in ms unless the
    name says otherwise; counts are exact."""
    spans = tracer.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        key = span.name if span.tag is None else f"{span.name}:{span.tag}"
        duration = span.end - span.start
        total[key] += duration
        own[span.name] += self_s
        durations[span.name].append(duration)
        if span.tag is not None:
            total[span.name] += duration

    def ms(key):
        return 1e3 * total[key]

    def p50_ms(name):
        return 1e3 * stats.median(durations[name]) if durations[name] else 0.0

    out = {
        "kernel.adam.adam_step.ms": ms("kernel.adam.adam_step"),
        "kernel.adam.adam_step.ms_p50": p50_ms("kernel.adam.adam_step"),
        "kernel.adam.adam_step.n": len(durations["kernel.adam.adam_step"]),
        "kernel.adam.param_count": tracer.counts["kernel.adam.param_count"],
    }
    for op in OPS:
        out[f"kernel.ops.{op}.fwd_ms"] = ms(f"kernel.ops.{op}")
        out[f"kernel.ops.{op}.bwd_ms"] = ms(f"kernel.ops.{op}.bwd")
    out["kernel.ops.linear.calls"] = len(durations["kernel.ops.linear"])
    out["kernel.fft.dft_magnitude.fwd_ms"] = ms("kernel.fft.dft_magnitude")
    out["kernel.fft.dft_magnitude.bwd_ms"] = ms("kernel.fft.dft_magnitude.bwd")
    out["kernel.fft.dft_magnitude.calls"] = len(durations["kernel.fft.dft_magnitude"])

    # training steps: groups opened by a training-mode forward pass inside a fold
    fold_ids = {i for i, s in enumerate(spans) if s.name == FOLD}
    step_bounds = {}
    phases = defaultdict(float)
    for span in spans:
        if span.parent not in fold_ids:
            continue
        if span.name == "model.forward_batch" and span.tag == "train":
            step_bounds[span.group] = [span.start, span.end]
        elif span.group in step_bounds:
            step_bounds[span.group][1] = max(step_bounds[span.group][1], span.end)
        if span.name in PHASES:
            phases[PHASES[span.name]] += span.end - span.start
    steps = len(step_bounds)
    step = stats.timing_summary(1e3 * (end - start) for start, end in step_bounds.values())

    def per_step(key):
        return sum(tracer.group_counts[(key, g)] for g in step_bounds) / steps if steps else 0.0

    out.update({
        "kernel.tensor.backward.self_ms": 1e3 * own["kernel.tensor.GradTape.backward"],
        "kernel.tensor.tape_records_per_step": per_step("records"),
        "kernel.tensor.tensors_per_step": per_step("tensors"),
        "kernel.tensor.check_finite.ms": 1e3 * tracer.seconds["kernel.tensor.check_finite"],
        "kernel.tensor.check_finite.calls": tracer.counts["kernel.tensor.check_finite"],
        "losses.cross_entropy.fwd_ms": ms("losses.cross_entropy"),
        "losses.cross_entropy.bwd_ms": ms("losses.cross_entropy.bwd"),
        "losses.info_nce.ms": ms("losses.info_nce"),
        "losses.augment.ms": ms("losses.augment"),
        "losses.total_loss.ms": ms("losses.total_loss"),
        "fusion.spectral_stage.ms": ms("fusion.spectral_stage"),
        "fusion.spectral_stage.self_ms": 1e3 * own["fusion.spectral_stage"],
        "retrieval.retrieve_batch.ms": ms("retrieval.retrieve_batch"),
        "retrieval.retrieve_batch.ms_p50": p50_ms("retrieval.retrieve_batch"),
        "retrieval.retrieve_batch.calls": len(durations["retrieval.retrieve_batch"]),
        "retrieval.scored_entries": tracer.counts["retrieval.scored_entries"],
        "retrieval.kept_ratio": (tracer.counts["retrieval.kept"]
                                 / tracer.counts["retrieval.scored_entries"]
                                 if tracer.counts["retrieval.scored_entries"] else 0.0),
        "retrieval.KnowledgeBase.ms": ms("retrieval.KnowledgeBase"),
        "model.forward_batch.train_ms": ms("model.forward_batch:train"),
        "model.forward_batch.eval_ms": ms("model.forward_batch:eval"),
        "model.classify.ms": ms("model.classify"),
        "model.init_model_params.ms": ms("model.init_model_params"),
        "model.load_checkpoint.ms": ms("model.load_checkpoint"),
        "data.load_dataset.ms": ms("data.load_dataset"),
        "data.load_knowledge_base.ms": ms("data.load_knowledge_base"),
        "training.step_ms_p50": step["p50"],
        "training.step_ms_tail": step["tail"],
        "training.step_ms_tail_pct": step["tail_pct"],
        "training.step_ms_n": step["n"],
        "training.steps": steps,
        "training.epochs": tracer.counts["training.epochs"],
        "training.epochs_after_best": tracer.counts["training.epochs_after_best"],
        "training.fold_ms": ms(FOLD),
    })
    for phase in ("forward", "loss", "backward", "optimizer", "eval"):
        out[f"training.phase.{phase}_ms"] = 1e3 * phases[phase]
    # the fold's own code: gradient dict, clipping, snapshots, zero_grad
    out["training.phase.other_ms"] = 1e3 * own[FOLD]
    for variant in VARIANTS:
        out[f"training.variant.{variant}.run_s"] = total[f"{FOLD}:{variant}"]
    out.update({
        "trace.untraced_run_s": untraced_s,
        "trace.traced_run_s": traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.spans": len(spans),
    })
    return out

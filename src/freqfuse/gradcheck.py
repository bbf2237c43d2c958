"""Central finite-difference verification of every differentiable operation.

Each suite builds a scalar loss from named leaf tensors, runs the tape
backward, then re-evaluates the forward twice per coordinate at +-STEP. The
reported figure is the vector relative error ||analytic - numeric|| /
max(||analytic||, ||numeric||, 1e-6) per leaf, worst leaf reported.

Builders must be deterministic: anything random inside the forward (dropout
masks, augmentation noise) re-seeds from a fixed stream on every call.
Retrieval is excluded on purpose: it is defined as a non-differentiated
lookup, so finite differences would sense the softmax weights while the tape
correctly reports nothing.
"""

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .data import TEXT_DIM, VIT_DIM, DatasetManifest
from .errors import DimensionError
from .fusion import co_select, init_fusion_params, spectral_stage
from .kernel import GradTape, Tensor, dft_magnitude
from .kernel import ops
from .losses import TAU_INTRA, _objective, cross_entropy, info_nce
from .model import classify, forward_batch, init_classifier_params, init_model_params
from .rng import named_stream

TOLERANCE = 1e-4
STEP = 1e-4


def finite_difference_check(
    build: Callable[[GradTape | None], Tensor], leaves: dict[str, Tensor]
) -> float:
    """Worst relative error over the given leaves, central differences of step
    STEP; build must return a scalar."""
    tape = GradTape()
    for t in leaves.values():
        t.zero_grad()
    out = build(tape)
    if out.data.size != 1:
        raise DimensionError(f"gradcheck target must be scalar, got shape {out.shape}")
    tape.backward(out)
    worst = 0.0
    for t in leaves.values():
        analytic = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + STEP
            f_plus = float(build(None).data)
            flat[i] = orig - STEP
            f_minus = float(build(None).data)
            flat[i] = orig
            nflat[i] = (f_plus - f_minus) / (2.0 * STEP)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-6)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / denom))
    return worst


def _scalar(x: Tensor, tape: GradTape | None) -> Tensor:
    while x.data.ndim > 0:
        x = ops.mean_pool(x, tape=tape)
    return x


def _weighted_scalar(x: Tensor, rng: np.random.Generator, tape: GradTape | None) -> Tensor:
    # random fixed weights stop outputs whose mean is pinned (layernorm rows
    # at unit gain) from collapsing to a constant under plain averaging
    w = Tensor(rng.standard_normal(x.data.shape))
    return _scalar(ops.mul(x, w, tape), tape)


def _single_op_suite(
    stream: str, leaves: tuple[tuple[str, tuple[int, ...]], ...], op: Callable[..., Tensor]
) -> Callable[[int], float]:
    """A suite checking one op on standard-normal leaves, drawn from `stream`
    in the given order and passed to `op` by name."""

    def suite(seed: int) -> float:
        rng = named_stream(seed, stream)
        named = {name: Tensor(rng.standard_normal(shape)) for name, shape in leaves}
        return finite_difference_check(
            lambda tape: _weighted_scalar(
                op(tape=tape, **named), named_stream(seed, f"{stream}-w"), tape
            ),
            named,
        )

    return suite


# name, stream, leaves in draw order, op
_SINGLE_OPS = (
    ("projection", "gc-proj", (("x", (3, 6)), ("w", (4, 6)), ("b", (4,))), ops.linear),
    ("matmul_nt", "gc-mm", (("a", (3, 5)), ("b", (4, 5))), ops.matmul_nt),
    ("dft_magnitude", "gc-dft", (("x", (3, 8)),), dft_magnitude),
    ("layernorm", "gc-ln", (("x", (3, 8)), ("gain", (8,)), ("shift", (8,))), ops.layernorm),
    ("gelu", "gc-gelu", (("x", (3, 8)),), ops.gelu),
    ("sigmoid", "gc-sig", (("x", (3, 8)),), ops.sigmoid),
    ("cross_entropy", "gc-ce", (("logits", (3, 4)),),
     partial(cross_entropy, labels=np.array([1, 0, 3]))),
    ("info_nce", "gc-nce", (("x", (3, 5)), ("y", (3, 5))), partial(info_nce, tau=TAU_INTRA)),
)
_SINGLE = {name: _single_op_suite(stream, leaves, op) for name, stream, leaves, op in _SINGLE_OPS}


def _suite_gates(seed: int) -> float:
    rng = named_stream(seed, "gc-gates")
    params = init_fusion_params(8, k=4, rng=rng)
    t_freq = Tensor(np.abs(rng.standard_normal((3, 8))) + 0.1)
    v_freq = Tensor(np.abs(rng.standard_normal((3, 8))) + 0.1)

    def build(tape):
        t_comp = ops.linear(t_freq, params.w_filter_text, params.b_filter_text, tape)
        v_comp = ops.linear(v_freq, params.w_filter_image, params.b_filter_image, tape)
        t_enh, v_enh = co_select(t_freq, v_freq, t_comp, v_comp, params, tape)
        return _weighted_scalar(ops.concat([t_enh, v_enh], tape), named_stream(seed, "gc-gates-w"), tape)

    leaves = {"t_freq": t_freq, "v_freq": v_freq}
    leaves.update(params.named())
    return finite_difference_check(build, leaves)


def _suite_fusion_stage(seed: int) -> float:
    rng = named_stream(seed, "gc-stage")
    params = init_fusion_params(8, k=4, rng=rng)
    t = Tensor(rng.standard_normal((2, 8)))
    v = Tensor(rng.standard_normal((2, 8)))

    def build(tape):
        feats = spectral_stage(t, v, params, tape)
        both = ops.concat([feats.t_enhanced, feats.v_enhanced], tape)
        return _weighted_scalar(both, named_stream(seed, "gc-stage-w"), tape)

    leaves = {"t": t, "v": v}
    leaves.update(params.named())
    return finite_difference_check(build, leaves)


def _suite_dropout(seed: int) -> float:
    rng = named_stream(seed, "gc-drop")
    x = Tensor(rng.standard_normal((3, 8)))
    return finite_difference_check(
        lambda tape: _scalar(
            ops.dropout(x, 0.25, named_stream(seed, "gc-drop-mask"), True, tape), tape
        ),
        {"x": x},
    )


def _suite_mean_mul_norms(seed: int) -> float:
    rng = named_stream(seed, "gc-misc")
    x = Tensor(rng.standard_normal((3, 5)))
    g = Tensor(rng.standard_normal((3, 1)))

    def build(tape):
        normed = ops.rownorm(x, tape)
        scaled = ops.mul(normed, g, tape)
        summed = ops.add(scaled, ops.scale(x, 0.5, tape), tape)
        boosted = ops.mul(summed, ops.row_norms(x, tape), tape)
        return _weighted_scalar(boosted, named_stream(seed, "gc-misc-w"), tape)

    return finite_difference_check(build, {"x": x, "g": g})


def _suite_mlp_classifier(seed: int) -> float:
    rng = named_stream(seed, "gc-mlp")
    params = init_classifier_params(6, 3, hidden1=5, hidden2=4, dropout=0.15, rng=rng)
    z = Tensor(rng.standard_normal((3, 6)))
    labels = np.array([0, 2, 1])

    def build(tape):
        logits = classify(z, params, train=True, rng=named_stream(seed, "gc-mlp-drop"), tape=tape)
        return cross_entropy(logits, labels, tape)

    leaves = {"z": z}
    leaves.update(params.named())
    return finite_difference_check(build, leaves)


def _suite_full_pipeline(seed: int) -> float:
    """Projections -> fusion -> classifier -> the training objective.

    Runs on the vit layout, so the image-side terms reach a parameter
    (proj.b_v), and in freq_only mode: retrieval is detached by design, so a
    pipeline with knowledge fusion would correctly disagree with finite
    differences.
    """
    manifest = DatasetManifest(n_classes=3, d_model=8, feature_layout="vit")
    params = init_model_params(
        manifest, fusion_mode="freq_only", hidden1=6, hidden2=5, dropout=0.1, seed=seed
    )
    rng = named_stream(seed, "gc-pipe")
    questions = rng.standard_normal((3, TEXT_DIM))
    images = rng.standard_normal((3, VIT_DIM))
    labels = np.array([0, 1, 2])

    def build(tape):
        fwd = forward_batch(
            params,
            questions,
            images,
            None,
            train=True,
            rng=named_stream(seed, "gc-pipe-drop"),
            tape=tape,
        )
        total, _ = _objective(fwd, labels, True, named_stream(seed, "gc-pipe-aug"), tape)
        return total

    named = params.named()
    leaves = {
        name: named[name]
        for name in (
            "proj.b_t",
            "proj.b_v",
            "fusion.w_filter_text",
            "fusion.w_gate_text",
            "fusion.b_gate_image",
            "cls.w2",
            "cls.ln1_gain",
            "cls.w3",
            "cls.b3",
        )
    }
    return finite_difference_check(build, leaves)


@dataclass
class SuiteResult:
    name: str
    error: float
    passed: bool
    seconds: float


ALL_SUITES: list[tuple[str, Callable[[int], float]]] = [
    ("projection", _SINGLE["projection"]),
    ("matmul_nt", _SINGLE["matmul_nt"]),
    ("dft_magnitude", _SINGLE["dft_magnitude"]),
    ("co_select_gates", _suite_gates),
    ("fusion_stage", _suite_fusion_stage),
    ("layernorm", _SINGLE["layernorm"]),
    ("gelu", _SINGLE["gelu"]),
    ("sigmoid", _SINGLE["sigmoid"]),
    ("dropout", _suite_dropout),
    ("norm_pool_arith", _suite_mean_mul_norms),
    ("mlp_classifier", _suite_mlp_classifier),
    ("cross_entropy", _SINGLE["cross_entropy"]),
    ("info_nce", _SINGLE["info_nce"]),
    ("full_pipeline", _suite_full_pipeline),
]


def run_all(seed: int = 0, tolerance: float = TOLERANCE) -> list[SuiteResult]:
    results = []
    for name, fn in ALL_SUITES:
        start = time.perf_counter()
        err = fn(seed)
        results.append(
            SuiteResult(
                name=name,
                error=err,
                passed=err <= tolerance,
                seconds=time.perf_counter() - start,
            )
        )
    return results

"""Model assembly: a run's settings (TrainConfig), modality projections, the
fused feature vector, the MLP classifier head, and checkpoint serialization.

The classifier input is [t_enhanced | v_enhanced] in freq_only mode or
[t_enhanced | v_enhanced | k_agg] in freq_plus_knowledge mode, so in_dim is
2*d_model or 3*d_model. The head is Linear, LayerNorm, GELU, Dropout twice,
then a final Linear; softmax lives in the loss, not here.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import TEXT_DIM, VIT_DIM, DatasetManifest, _float_list, atomic_write_text, float64_text
from .errors import ConfigError, ContractError, DataError
from .fusion import K_FILTERS, FusionParams, SpectralFeatures, init_fusion_params, spectral_stage
from .kernel import GradTape, Tensor
from .kernel import ops
from .retrieval import SIMILARITIES, TOP_K, KnowledgeBase, retrieve_batch
from .rng import named_stream

FUSION_MODES = ("freq_only", "freq_plus_knowledge")
CHECKPOINT_VERSION = 2  # the only version read; version 1 stored lists of JSON numbers


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings, from CLI flag or config key to forward pass and loss.
    Checked when built, so one that exists is valid; frozen, so a variant is
    a dataclasses.replace of it, which is checked again."""

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

    def __post_init__(self) -> None:
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


@dataclass
class ClassifierParams:
    w1: Tensor
    b1: Tensor
    ln1_gain: Tensor
    ln1_shift: Tensor
    w2: Tensor
    b2: Tensor
    ln2_gain: Tensor
    ln2_shift: Tensor
    w3: Tensor
    b3: Tensor
    dropout: float

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w3.shape[0]

    def named(self) -> dict[str, Tensor]:
        return {f"cls.{f.name}": getattr(self, f.name) for f in fields(self) if f.type is Tensor}


@dataclass
class ModelParams:
    w_t: Tensor
    b_t: Tensor
    w_v: Tensor | None
    b_v: Tensor | None
    fusion: FusionParams
    cls: ClassifierParams
    d_model: int
    n_classes: int
    feature_layout: str
    fusion_mode: str
    hidden1: int
    hidden2: int

    def named(self) -> dict[str, Tensor]:
        out = {"proj.w_t": self.w_t, "proj.b_t": self.b_t}
        if self.w_v is not None:
            out["proj.w_v"] = self.w_v
            out["proj.b_v"] = self.b_v
        out.update(self.fusion.named())
        out.update(self.cls.named())
        return out


def fusion_in_dim(d_model: int, fusion_mode: str) -> int:
    if fusion_mode == "freq_only":
        return 2 * d_model
    if fusion_mode == "freq_plus_knowledge":
        return 3 * d_model
    raise ConfigError(f"unknown fusion_mode {fusion_mode!r}")


def init_classifier_params(
    in_dim: int,
    n_classes: int,
    hidden1: int,
    hidden2: int,
    dropout: float,
    rng: np.random.Generator,
) -> ClassifierParams:
    return ClassifierParams(
        w1=Tensor(rng.standard_normal((hidden1, in_dim)) / np.sqrt(in_dim)),
        b1=Tensor(np.zeros(hidden1)),
        ln1_gain=Tensor(np.ones(hidden1)),
        ln1_shift=Tensor(np.zeros(hidden1)),
        w2=Tensor(rng.standard_normal((hidden2, hidden1)) / np.sqrt(hidden1)),
        b2=Tensor(np.zeros(hidden2)),
        ln2_gain=Tensor(np.ones(hidden2)),
        ln2_shift=Tensor(np.zeros(hidden2)),
        w3=Tensor(rng.standard_normal((n_classes, hidden2)) / np.sqrt(hidden2)),
        b3=Tensor(np.zeros(n_classes)),
        dropout=dropout,
    )


def init_model_params(
    manifest: DatasetManifest,
    *,
    hidden1: int,
    hidden2: int,
    dropout: float,
    fusion_mode: str = "freq_only",
    k_filters: int = K_FILTERS,
    seed: int = 0,
) -> ModelParams:
    d = manifest.d_model
    rng = named_stream(seed, "params")
    w_t = Tensor(rng.standard_normal((d, TEXT_DIM)) / np.sqrt(TEXT_DIM))
    b_t = Tensor(np.zeros(d))
    if manifest.feature_layout == "vit":
        w_v = Tensor(rng.standard_normal((d, VIT_DIM)) / np.sqrt(VIT_DIM))
        b_v = Tensor(np.zeros(d))
    else:
        w_v = None
        b_v = None
    fusion = init_fusion_params(d, k=k_filters, rng=rng)
    cls = init_classifier_params(
        fusion_in_dim(d, fusion_mode),
        manifest.n_classes,
        hidden1=hidden1,
        hidden2=hidden2,
        dropout=dropout,
        rng=rng,
    )
    return ModelParams(
        w_t=w_t,
        b_t=b_t,
        w_v=w_v,
        b_v=b_v,
        fusion=fusion,
        cls=cls,
        d_model=d,
        n_classes=manifest.n_classes,
        feature_layout=manifest.feature_layout,
        fusion_mode=fusion_mode,
        hidden1=hidden1,
        hidden2=hidden2,
    )


def classify(
    z: Tensor,
    params: ClassifierParams,
    train: bool = False,
    rng: np.random.Generator | None = None,
    tape: GradTape | None = None,
) -> Tensor:
    h = ops.linear(z, params.w1, params.b1, tape)
    h = ops.layernorm(h, params.ln1_gain, params.ln1_shift, tape)
    h = ops.gelu(h, tape)
    h = ops.dropout(h, params.dropout, rng, train, tape)
    h = ops.linear(h, params.w2, params.b2, tape)
    h = ops.layernorm(h, params.ln2_gain, params.ln2_shift, tape)
    h = ops.gelu(h, tape)
    h = ops.dropout(h, params.dropout, rng, train, tape)
    return ops.linear(h, params.w3, params.b3, tape)


@dataclass
class ForwardResult:
    t: Tensor
    v: Tensor
    features: SpectralFeatures
    k_agg: np.ndarray | None
    logits: Tensor


def forward_batch(
    params: ModelParams,
    question_features: np.ndarray,
    image_features: np.ndarray,
    kb: KnowledgeBase | None = None,
    train: bool = False,
    rng: np.random.Generator | None = None,
    tape: GradTape | None = None,
    config: TrainConfig = TrainConfig(),
) -> ForwardResult:
    """Run the full pipeline on a batch.

    config supplies the ablation switches (frequency, co_selection) and the
    retrieval settings (retrieval_k, similarity). Whether retrieval runs
    follows params.fusion_mode, not config's: the classifier's input width
    fixes it.

    In the precomputed layout the image features enter the graph as an
    untraced constant; only the text projection is learned ahead of the
    fusion stage. Retrieval queries are taken from detached values, so no
    gradient reaches the knowledge base.
    """
    t = ops.linear(Tensor(question_features), params.w_t, params.b_t, tape)
    if params.feature_layout == "vit":
        v = ops.linear(Tensor(image_features), params.w_v, params.b_v, tape)
    else:
        if image_features.shape[-1] != params.d_model:
            raise ContractError(
                f"precomputed image features must be width {params.d_model}, "
                f"got {image_features.shape}"
            )
        v = Tensor(image_features)
    features = spectral_stage(
        t, v, params.fusion, tape, frequency=config.frequency, co_selection=config.co_selection
    )
    segments = [features.t_enhanced, features.v_enhanced]
    k_agg = None
    if params.fusion_mode == "freq_plus_knowledge":
        if kb is None:
            raise ConfigError("freq_plus_knowledge requires a knowledge base")
        queries = 0.5 * (features.t_enhanced.data + features.v_enhanced.data)
        k_agg = retrieve_batch(queries, kb, k=config.retrieval_k, similarity=config.similarity)
        segments.append(Tensor(k_agg))
    z = ops.concat(segments, tape)
    logits = classify(z, params.cls, train=train, rng=rng, tape=tape)
    return ForwardResult(t=t, v=v, features=features, k_agg=k_agg, logits=logits)


def save_checkpoint(path: str, params: ModelParams, extra_meta: dict | None = None) -> None:
    meta = {
        "d_model": params.d_model,
        "n_classes": params.n_classes,
        "feature_layout": params.feature_layout,
        "fusion_mode": params.fusion_mode,
        "k_filters": params.fusion.k,
        "hidden1": params.hidden1,
        "hidden2": params.hidden2,
        "dropout": params.cls.dropout,
    }
    if extra_meta:
        meta.update(extra_meta)
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "meta": meta,
        "params": {
            name: {"shape": list(t.shape), "data": float64_text(t.data)}
            for name, t in params.named().items()
        },
    }
    atomic_write_text(path, json.dumps(blob, allow_nan=False))


# exact JSON types: a JSON true is a bool, not an int
_META_TYPES = {
    "n_classes": (int,),
    "d_model": (int,),
    "feature_layout": (str,),
    "fusion_mode": (str,),
    "k_filters": (int,),
    "hidden1": (int,),
    "hidden2": (int,),
    "dropout": (int, float),
}


def _param_shapes(meta: dict) -> dict[str, tuple[int, ...]]:
    """Name and shape of each parameter, in `ModelParams.named` order, that
    `init_model_params` builds for a checkpoint's meta; nothing is allocated."""
    d, k, h1, h2, c = (meta[key] for key in ("d_model", "k_filters", "hidden1", "hidden2",
                                             "n_classes"))
    shapes = {"proj.w_t": (d, TEXT_DIM), "proj.b_t": (d,)}
    if meta["feature_layout"] == "vit":
        shapes.update({"proj.w_v": (d, VIT_DIM), "proj.b_v": (d,)})
    shapes.update({
        "fusion.w_filter_text": (k, d), "fusion.b_filter_text": (k,),
        "fusion.w_gate_text": (d, 1), "fusion.b_gate_text": (d,),
        "fusion.w_gate_image": (d, 1), "fusion.b_gate_image": (d,),
        "fusion.w_filter_image": (k, d), "fusion.b_filter_image": (k,),
        "cls.w1": (h1, fusion_in_dim(d, meta["fusion_mode"])), "cls.b1": (h1,),
        "cls.ln1_gain": (h1,), "cls.ln1_shift": (h1,),
        "cls.w2": (h2, h1), "cls.b2": (h2,), "cls.ln2_gain": (h2,), "cls.ln2_shift": (h2,),
        "cls.w3": (c, h2), "cls.b3": (c,),
    })
    return shapes


def _tensor_hook(obj: dict) -> dict:
    """json object_hook: the base64 text of each parsed {"shape", "data"}
    object becomes a float64 array at once, so the text and the decoded bytes
    of only one tensor are alive at a time. Data that `_float_list` rejects
    stays as it is, for `read_checkpoint` to reject naming the parameter."""
    data, shape = obj.get("data"), obj.get("shape")
    if type(data) is str and isinstance(shape, list) and all(type(n) is int for n in shape):
        try:
            obj["data"] = _float_list(data, math.prod(shape), "")
        except DataError:
            pass
    return obj


def read_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Parameters and meta of a checkpoint; a malformed file is a DataError.
    Every stored tensor is checked against the meta before the model is built."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh, object_hook=_tensor_hook)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} is not UTF-8 text") from exc
    if not isinstance(blob, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    version = blob.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint format {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    meta = blob.get("meta")
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} has no meta object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) not in kind:
            raise DataError(f"checkpoint meta {key!r} is missing or has the wrong type")
    if meta["fusion_mode"] not in FUSION_MODES:
        raise DataError(f"checkpoint meta fusion_mode {meta['fusion_mode']!r} is unknown")
    for key in ("k_filters", "hidden1", "hidden2"):
        if meta[key] < 1:
            raise DataError(f"checkpoint meta {key} must be >= 1, got {meta[key]}")
    if not 0 <= meta["dropout"] < 1:
        raise DataError(f"checkpoint meta dropout must be in [0, 1), got {meta['dropout']}")
    manifest = DatasetManifest(
        n_classes=meta["n_classes"], d_model=meta["d_model"], feature_layout=meta["feature_layout"]
    )
    manifest.validate()
    stored = blob.get("params")
    if not isinstance(stored, dict):
        raise DataError(f"checkpoint {path} has no params object")
    shapes = _param_shapes(meta)
    if set(stored) != set(shapes):
        missing = sorted(set(shapes) - set(stored))
        extra = sorted(set(stored) - set(shapes))
        raise DataError(f"checkpoint params mismatch: missing {missing}, unexpected {extra}")
    arrays = {}
    for name, shape in shapes.items():
        entry = stored[name]
        if not isinstance(entry, dict) or entry.get("shape") != list(shape):
            raise DataError(f"checkpoint param {name} does not hold shape {shape}")
        where = f"checkpoint {path} param {name}"
        data, n = entry.get("data"), math.prod(shape)
        if not isinstance(data, (str, np.ndarray)):
            raise DataError(f"{where}: expected base64 text of {n} little-endian float64 values")
        arrays[name] = _float_list(data, n, where).reshape(shape)
    params = init_model_params(
        manifest,
        fusion_mode=meta["fusion_mode"],
        k_filters=meta["k_filters"],
        hidden1=meta["hidden1"],
        hidden2=meta["hidden2"],
        dropout=meta["dropout"],
    )
    for name, tensor in params.named().items():
        tensor.data = arrays[name]
    return params, meta


def load_checkpoint(path: str) -> ModelParams:
    """Parameters of a checkpoint, checked as in read_checkpoint."""
    return read_checkpoint(path)[0]

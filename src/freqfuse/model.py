"""Model assembly: modality projections, the fused feature vector, the MLP
classifier head, and checkpoint serialization.

The classifier input is [t_enhanced | v_enhanced] in freq_only mode or
[t_enhanced | v_enhanced | k_agg] in freq_plus_knowledge mode, so in_dim is
2*d_model or 3*d_model. The head is Linear, LayerNorm, GELU, Dropout twice,
then a final Linear; softmax lives in the loss, not here.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .data import TEXT_DIM, VIT_DIM, DatasetManifest, _float_list, atomic_write_text
from .errors import ConfigError, ContractError, DataError
from .fusion import FusionParams, SpectralFeatures, init_fusion_params, spectral_stage
from .kernel import GradTape, Tensor
from .kernel import ops
from .retrieval import KnowledgeBase, retrieve_batch
from .rng import named_stream

FUSION_MODES = ("freq_only", "freq_plus_knowledge")
CHECKPOINT_VERSION = 1


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
    dropout: float = 0.1

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w3.shape[0]

    def named(self, prefix: str = "cls") -> dict[str, Tensor]:
        return {
            f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self) if f.type is Tensor
        }


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
    hidden1: int = 1024,
    hidden2: int = 256,
    dropout: float = 0.1,
    rng: np.random.Generator | None = None,
) -> ClassifierParams:
    if rng is None:
        rng = np.random.default_rng(0)
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
    fusion_mode: str = "freq_only",
    k_filters: int = 4,
    hidden1: int = 1024,
    hidden2: int = 256,
    dropout: float = 0.1,
    tie_filters: bool = False,
    seed: int = 0,
) -> ModelParams:
    if fusion_mode not in FUSION_MODES:
        raise ConfigError(f"unknown fusion_mode {fusion_mode!r}")
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
    fusion = init_fusion_params(d, k=k_filters, rng=rng, tie_filters=tie_filters)
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


def fuse(
    t_enh: Tensor,
    v_enh: Tensor,
    k_agg: Tensor | None,
    mode: str,
    tape: GradTape | None = None,
) -> Tensor:
    if mode == "freq_only":
        return ops.concat([t_enh, v_enh], tape)
    if mode == "freq_plus_knowledge":
        if k_agg is None:
            raise ContractError("freq_plus_knowledge fusion requires k_agg")
        return ops.concat([t_enh, v_enh, k_agg], tape)
    raise ConfigError(f"unknown fusion_mode {mode!r}")


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


@dataclass(frozen=True)
class ForwardOptions:
    """Ablation switches of the forward pass; whether retrieval runs follows
    from the parameters' fusion_mode."""

    frequency: bool = True
    co_selection: bool = True
    similarity: str = "fidelity"
    retrieval_k: int = 3
    retrieval_tau: float = 0.1


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
    options: ForwardOptions = ForwardOptions(),
) -> ForwardResult:
    """Run the full pipeline on a batch.

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
        t, v, params.fusion, tape, frequency=options.frequency, co_selection=options.co_selection
    )
    k_agg = None
    if params.fusion_mode == "freq_plus_knowledge":
        if kb is None:
            raise ConfigError("freq_plus_knowledge requires a knowledge base")
        queries = 0.5 * (features.t_enhanced.data + features.v_enhanced.data)
        k_agg = retrieve_batch(
            queries, kb, k=options.retrieval_k, tau=options.retrieval_tau,
            similarity=options.similarity,
        )
    k_tensor = Tensor(k_agg) if k_agg is not None else None
    z = fuse(features.t_enhanced, features.v_enhanced, k_tensor, params.fusion_mode, tape)
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
        "tie_filters": params.fusion.tied,
    }
    if extra_meta:
        meta.update(extra_meta)
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "meta": meta,
        "params": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
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
    "tie_filters": (bool,),
}


def read_checkpoint(path: str) -> tuple[ModelParams, dict]:
    """Parameters and meta of a checkpoint; a malformed file is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} is not UTF-8 text") from exc
    if not isinstance(blob, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    if blob.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"checkpoint format {blob.get('format_version')!r} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    meta = blob.get("meta")
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} has no meta object")
    for key, kind in _META_TYPES.items():
        if type(meta.get(key)) not in kind:
            raise DataError(f"checkpoint meta {key!r} is missing or has the wrong type")
    if meta["fusion_mode"] not in FUSION_MODES:
        raise DataError(f"checkpoint meta fusion_mode {meta['fusion_mode']!r} is unknown")
    manifest = DatasetManifest(
        n_classes=meta["n_classes"], d_model=meta["d_model"], feature_layout=meta["feature_layout"]
    )
    manifest.validate()
    params = init_model_params(
        manifest,
        fusion_mode=meta["fusion_mode"],
        k_filters=meta["k_filters"],
        hidden1=meta["hidden1"],
        hidden2=meta["hidden2"],
        dropout=meta["dropout"],
        tie_filters=meta["tie_filters"],
    )
    stored = blob.get("params")
    if not isinstance(stored, dict):
        raise DataError(f"checkpoint {path} has no params object")
    expected = params.named()
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise DataError(f"checkpoint params mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in expected.items():
        entry = stored[name]
        if not isinstance(entry, dict) or entry.get("shape") != list(tensor.shape):
            raise DataError(f"checkpoint param {name} does not hold shape {tensor.shape}")
        where = f"checkpoint {path} param {name}"
        tensor.data = _float_list(entry.get("data"), tensor.size, where).reshape(tensor.shape)
    return params, meta


def load_checkpoint(path: str) -> ModelParams:
    """Parameters of a checkpoint, checked as in read_checkpoint."""
    return read_checkpoint(path)[0]

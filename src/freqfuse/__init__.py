"""Frequency-domain multimodal fusion with fidelity-scored knowledge retrieval.

A self-contained numpy implementation: a small reverse-mode autodiff kernel,
an FFT magnitude-spectrum fusion stage with cross-modal gating, pure-state
fidelity retrieval over a knowledge base, contrastive objectives, and a
cross-validated training harness with a CLI.
"""

from .data import (
    DatasetManifest,
    KnowledgeColumns,
    KnowledgeEntry,
    Sample,
    generate_synthetic,
    load_dataset,
    load_knowledge_base,
    save_dataset,
    save_knowledge_base,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    DimensionError,
    NumericError,
    RetrievalError,
)
from .fusion import FusionParams, SpectralFeatures, spectral_stage
from .kernel import GradTape, Tensor
from .losses import LossBreakdown, cross_entropy, info_nce, total_loss
from .model import ModelParams, forward_batch, init_model_params, load_checkpoint, save_checkpoint
from .retrieval import KnowledgeBase, TopK, fidelity, retrieve
from .training import MetricsReport, TrainConfig, make_folds, run_ablation_suite, train_fold

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "DataError",
    "DatasetManifest",
    "DegenerateInputError",
    "DimensionError",
    "FusionParams",
    "GradTape",
    "KnowledgeBase",
    "KnowledgeColumns",
    "KnowledgeEntry",
    "LossBreakdown",
    "MetricsReport",
    "ModelParams",
    "NumericError",
    "RetrievalError",
    "Sample",
    "SpectralFeatures",
    "Tensor",
    "TopK",
    "TrainConfig",
    "cross_entropy",
    "fidelity",
    "forward_batch",
    "generate_synthetic",
    "info_nce",
    "init_model_params",
    "load_checkpoint",
    "load_dataset",
    "load_knowledge_base",
    "make_folds",
    "retrieve",
    "run_ablation_suite",
    "save_checkpoint",
    "save_dataset",
    "save_knowledge_base",
    "spectral_stage",
    "total_loss",
    "train_fold",
    "__version__",
]

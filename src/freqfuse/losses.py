"""Training objectives: cross-entropy, InfoNCE contrastive losses, and the
weighted total.

The total objective is

    total = ce + INTRA_WEIGHT * (intra_text + intra_image) / 2 + CROSS_WEIGHT * cross

with fixed contrastive temperatures (0.07 intra-modal, 0.05 cross-modal) and
fixed weights 0.3 / 0.7.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError
from .kernel import GradTape, Tensor
from .kernel import ops
from .kernel.tensor import _op_output

INTRA_WEIGHT = 0.3
CROSS_WEIGHT = 0.7
TAU_INTRA = 0.07
TAU_CROSS = 0.05
AUG_SIGMA = 0.1


@dataclass
class LossBreakdown:
    """Scalar loss values for reporting; `total` obeys the fixed weighting."""

    ce: float
    intra_text: float
    intra_image: float
    cross: float
    total: float


def cross_entropy(logits: Tensor, labels: np.ndarray, tape: GradTape | None = None) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    z = logits.data
    if z.ndim != 2:
        raise ContractError(f"cross_entropy expects logits (B, C), got {logits.shape}")
    b, c = z.shape
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {b}")
    if np.any(labels < 0) or np.any(labels >= c):
        raise ContractError("label out of range [0, C)")
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse

    def backward(g):
        d = np.exp(logp)
        d[np.arange(b), labels] -= 1.0
        logits.accumulate_grad(float(g) * d / b)

    return _op_output(-logp[np.arange(b), labels].mean(), tape, backward)


def info_nce(x: Tensor, y: Tensor, tau: float, tape: GradTape | None = None) -> Tensor:
    """InfoNCE with in-batch negatives and cosine similarity.

    Row i of x is anchored to row i of y; the other rows of y are the
    negatives. Zero rows are rejected (cosine is undefined there).
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if x.shape != y.shape or x.data.ndim != 2:
        raise ContractError(f"info_nce expects matching (B, d) inputs, got {x.shape}, {y.shape}")
    try:
        xn = ops.rownorm(x, tape)
        yn = ops.rownorm(y, tape)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"info_nce: {exc}") from exc
    sims = ops.matmul_nt(xn, yn, tape)
    logits = ops.scale(sims, 1.0 / tau, tape)
    b = x.shape[0]
    return cross_entropy(logits, np.arange(b), tape)


def augment(x: Tensor, sigma: float, rng: np.random.Generator, tape: GradTape | None = None) -> Tensor:
    """Gaussian perturbation with each row rescaled back to its original norm."""
    if sigma == 0.0:
        return x
    noise = Tensor(sigma * rng.standard_normal(x.data.shape))
    perturbed = ops.add(x, noise, tape)
    return ops.mul(ops.rownorm(perturbed, tape), ops.row_norms(x, tape), tape)


def total_loss(
    ce: Tensor,
    intra_text: Tensor,
    intra_image: Tensor,
    cross: Tensor,
    tape: GradTape | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum of the loss heads; returns the traced total and a value record."""
    intra = ops.scale(ops.add(intra_text, intra_image, tape), 0.5 * INTRA_WEIGHT, tape)
    weighted_cross = ops.scale(cross, CROSS_WEIGHT, tape)
    total = ops.add(ops.add(ce, intra, tape), weighted_cross, tape)
    breakdown = LossBreakdown(
        ce=float(ce.data),
        intra_text=float(intra_text.data),
        intra_image=float(intra_image.data),
        cross=float(cross.data),
        total=float(total.data),
    )
    return total, breakdown

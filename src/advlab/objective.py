"""Training losses and the certainty functional over self-generated attacks.

The certainty of a single prediction is the population standard deviation of
its logit vector; averaging it over adversarial examples that the model
generates against itself gives the batch certainty score. Its parameter
gradient treats the generated examples as constants (the attack itself is
never differentiated through).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    as_f64,
    ce_rows_grad,
    ce_rows_value,
    kl_rows_grad,
    kl_rows_value,
    row_std_grad,
    row_std_value,
)
from .attack import AdversarialBatch, AttackConfig, generate_batch
from .data import Batch
from .errors import ConfigError, ShapeError
from .netcore import DiffModel, ModelState, backward, forward_logits

OBJECTIVE_KINDS = ("at_ce", "trades")


@dataclass(frozen=True)
class ObjectiveKind:
    kind: str = "at_ce"
    trades_beta: float = 6.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigError(f"objective must be one of {OBJECTIVE_KINDS}, got {self.kind!r}")
        if not np.isfinite(self.trades_beta) or self.trades_beta <= 0:
            raise ConfigError(f"trades_beta must be finite and positive, got {self.trades_beta}")


@dataclass(frozen=True)
class CertaintyReport:
    """Per-example logit-spread values and their mean."""

    per_example: np.ndarray
    mean: float


def var_functional(u) -> float:
    """Population standard deviation of a logit vector (includes the root)."""
    u = as_f64(u)
    if u.ndim != 1 or u.size < 1:
        raise ShapeError(f"var_functional expects a non-empty vector, got shape {u.shape}")
    return float(row_std_value(u[None, :])[0])


def cross_entropy(logits, y) -> float:
    """Negative log softmax probability of class ``y``, max-stabilised."""
    logits = as_f64(logits)
    if logits.ndim != 1 or logits.size < 1:
        raise ShapeError(f"cross_entropy expects a logit vector, got shape {logits.shape}")
    y = int(y)
    if not 0 <= y < logits.size:
        raise IndexError(f"class index {y} out of range for {logits.size} classes")
    return float(ce_rows_value(logits[None, :], np.array([y]))[0])


def trades_loss(model: ModelState, clean_batch: Batch, adv_inputs, beta) -> float:
    """Mean clean cross-entropy plus beta times the mean clean-to-adversarial
    KL divergence of the softmax outputs."""
    adv_inputs = as_f64(adv_inputs)
    if adv_inputs.shape != clean_batch.inputs.shape:
        raise ShapeError("clean and adversarial inputs must align")
    clean_logits = forward_logits(model, clean_batch.inputs)
    ce = ce_rows_value(clean_logits, clean_batch.labels).mean()
    if beta == 0.0:
        return float(ce)
    adv_logits = forward_logits(model, adv_inputs)
    return float(ce + beta * kl_rows_value(clean_logits, adv_logits).mean())


def robust_loss(model: ModelState, adv_batch: AdversarialBatch,
                objective: ObjectiveKind) -> float:
    """Surrogate loss on attack outputs: mean CE, or the TRADES combination."""
    if objective.kind == "at_ce":
        logits = forward_logits(model, adv_batch.perturbed)
        return float(ce_rows_value(logits, adv_batch.labels).mean())
    clean = Batch(adv_batch.originals, adv_batch.labels)
    return trades_loss(model, clean, adv_batch.perturbed, objective.trades_beta)


def robust_grad(model: ModelState, adv_batch: AdversarialBatch, objective: ObjectiveKind,
                certainty_weight=0.0):
    """(gradient, certainty): the parameter gradient of ``robust_loss`` plus
    ``certainty_weight`` times the attacked rows' mean logit spread, the
    attack outputs held fixed, and that spread, all from one recorded forward.

    TRADES sums three backward passes, clean cross-entropy, clean-side KL and
    adversarial-side KL, in that order, and the certainty term comes last: the
    order fixes the rounding. A zero weight makes no certainty backward.
    """
    n = len(adv_batch)
    adv = DiffModel(model)
    adv_logits = adv.logits(adv_batch.perturbed)
    if objective.kind == "at_ce":
        grad = backward(adv, ce_rows_grad(adv_logits, adv_batch.labels, 1.0 / n))
    else:
        clean = DiffModel(model)
        clean_logits = clean.logits(adv_batch.originals)
        d_clean, d_adv = kl_rows_grad(clean_logits, adv_logits, objective.trades_beta / n)
        ce = backward(clean, ce_rows_grad(clean_logits, adv_batch.labels, 1.0 / n))
        grad = (ce + backward(clean, d_clean)) + backward(adv, d_adv)
    if certainty_weight != 0.0:
        grad = grad + backward(adv, row_std_grad(adv_logits, certainty_weight / n))
    return grad, float(row_std_value(adv_logits).mean())


# ---------------------------------------------------------------------------


def adversarial_certainty(model: ModelState, batch: Batch, attack_config: AttackConfig,
                          rng=None) -> CertaintyReport:
    """Generate attacks against the current model and score their certainty."""
    adv = generate_batch(model, batch, attack_config, rng=rng)
    per_example = row_std_value(forward_logits(model, adv.perturbed))
    return CertaintyReport(per_example, float(per_example.mean()))


def grad_certainty_frozen(model: ModelState, adv_inputs):
    """Parameter gradient of the mean logit spread on fixed inputs, and that
    mean spread, from one forward; returns (gradient, certainty)."""
    dm = DiffModel(model)
    logits = dm.logits(adv_inputs)
    return (backward(dm, row_std_grad(logits, 1.0 / logits.shape[0])),
            float(row_std_value(logits).mean()))


def certainty_value(model: ModelState, adv_inputs) -> float:
    """Mean logit spread on fixed inputs (no attack regeneration): the
    value-only oracle of the certainty the gradient functions return."""
    return float(row_std_value(forward_logits(model, as_f64(adv_inputs))).mean())


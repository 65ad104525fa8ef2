"""Norm-bounded adversarial example generation: FGSM and iterated projected
gradient ascent for linf and l2 threat models.

The iterate keeps the perturbation delta as its state: each step adds a
signed (linf) or normalised (l2) gradient step, projects delta back into the
epsilon ball, and the candidate input is ``clamp(x + delta)``. FGSM is that
loop run for one step of epsilon. Originals are assumed to lie inside the
domain box, so the final output satisfies both the ball and the box
constraints, and the first candidate ``clamp(x + 0)`` is ``x`` bit for bit
save that a coordinate of -0.0 reads +0.0: where its gradient is also zero,
the output's zero may take the other sign. No data builder makes -0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import as_f64, ce_rows_grad
from .data import Batch
from .errors import ConfigError, NumericError, ShapeError
from .netcore import DiffModel, ModelState, _as_rows, backward

NORMS = ("linf", "l2")
KINDS = ("pgd", "fgsm")


@dataclass(frozen=True)
class AttackConfig:
    """Threat-model descriptor: norm, radius, step size, iteration count."""

    norm: str = "linf"
    epsilon: float = 0.0
    step_size: float = 1.0
    steps: int = 0
    kind: str = "pgd"
    random_start: bool = False
    domain_clamp: Optional[tuple] = None

    def __post_init__(self):
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if self.steps > 0 and not self.step_size > 0:
            raise ConfigError(f"step_size must be positive when steps > 0, got {self.step_size}")
        if self.kind == "fgsm" and self.norm != "linf":
            raise ConfigError("fgsm is defined for the linf norm only")
        if self.domain_clamp is not None:
            lo, hi = self.domain_clamp
            if not lo < hi:
                raise ConfigError(f"domain_clamp must satisfy lo < hi, got {self.domain_clamp}")

    def as_pgd(self) -> "AttackConfig":
        """The pgd this attack runs: itself, or for fgsm one step of epsilon
        from no random start (a radius of 0 takes no step)."""
        if self.kind == "pgd":
            return self
        return replace(self, kind="pgd", step_size=self.epsilon,
                       steps=1 if self.epsilon > 0 else 0, random_start=False)


def perturbation_norm(perturbed, originals, norm):
    """Distance between rows under the configured metric."""
    delta = as_f64(perturbed) - as_f64(originals)
    if delta.ndim == 1:
        delta = delta[None, :]
    if norm == "linf":
        return np.abs(delta).max(axis=-1)
    return np.sqrt((delta * delta).sum(axis=-1))


def _clamp(x, config: AttackConfig):
    """Clip ``x`` into the domain box in place; returns ``x``."""
    if config.domain_clamp is None:
        return x
    lo, hi = config.domain_clamp
    return np.clip(x, lo, hi, out=x)


def _project_delta(delta, config: AttackConfig):
    """Project each row of ``delta`` into the epsilon ball in place; returns
    ``delta``."""
    if config.norm == "linf":
        return np.clip(delta, -config.epsilon, config.epsilon, out=delta)
    norms = np.sqrt((delta * delta).sum(axis=-1, keepdims=True))
    factor = np.ones_like(norms)
    over = norms > config.epsilon
    np.divide(config.epsilon, norms, out=factor, where=over)
    delta *= factor
    return delta


def _ce_grad_x(dm: DiffModel, rows, labels):
    """Gradient of the summed cross-entropy with respect to each input row,
    through a forward pass that ``dm`` records; a fresh array."""
    g = backward(dm, ce_rows_grad(dm.logits(rows), labels, 1.0), inputs=True)
    if not np.isfinite(g).all():
        raise NumericError("non-finite input gradient during attack")
    return g


def _random_in_ball(rng, shape, config: AttackConfig):
    if config.norm == "linf":
        return rng.uniform(-config.epsilon, config.epsilon, size=shape)
    direction = rng.standard_normal(shape)
    norms = np.sqrt((direction * direction).sum(axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    radius = config.epsilon * rng.random(shape[0]) ** (1.0 / shape[1])
    return direction / norms * radius[:, None]


def draw_start(config: AttackConfig, rng, shape):
    """The offset an attack on rows of ``shape`` starts from: with
    ``random_start`` in its ``as_pgd``, a uniform in-ball offset drawn from
    ``rng``; otherwise None, and nothing is drawn. An fgsm attack never draws
    one."""
    if not config.as_pgd().random_start:
        return None
    if rng is None:
        raise ConfigError("random_start requires an rng or integer seed")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return _project_delta(_random_in_ball(gen, shape, config), config)


def pgd(model: ModelState, x, y, config: AttackConfig, rng=None, start=None):
    """Iterated signed-gradient ascent on the cross-entropy, ball-projected,
    as ``config.as_pgd()`` sets it: an fgsm config is one linf step of
    epsilon from ``delta = 0``.

    linf steps move by step_size * sign(grad) with sign(0) = 0; l2 steps move
    by step_size along the row-normalised gradient (zero rows stay put). With
    ``random_start`` the iterate begins at a uniform in-ball offset: ``start``
    when given, drawn earlier by ``draw_start``, else one drawn from
    ``rng``. Returns the final candidate ``clamp(x + delta)``.
    """
    config = config.as_pgd()
    rows, single = _as_rows(x, model.spec.input_dim)
    labels = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if labels.shape[0] != rows.shape[0]:
        raise ShapeError(f"{rows.shape[0]} inputs but {labels.shape[0]} labels")
    if start is None:
        start = draw_start(config, rng, rows.shape)
    # the iterate is updated in place; ``start`` stays the caller's, and one
    # DiffModel's buffers serve every step
    delta = np.zeros_like(rows) if start is None else np.array(start, dtype=np.float64)
    dm = DiffModel(model)
    for _ in range(config.steps):
        step = _ce_grad_x(dm, _clamp(rows + delta, config), labels)
        if config.norm == "linf":
            np.sign(step, out=step)
        else:
            norms = np.sqrt((step * step).sum(axis=-1, keepdims=True))
            unit = np.zeros_like(step)
            step = np.divide(step, norms, out=unit, where=norms > 0.0)
        step *= config.step_size
        delta += step
        _project_delta(delta, config)
    out = _clamp(rows + delta, config)
    return out[0] if single else out


def fgsm(model: ModelState, x, y, config: AttackConfig):
    """One signed-gradient step of size epsilon, then domain clamping: the
    ``pgd`` of ``config`` as an fgsm attack."""
    if config.norm != "linf":
        raise ConfigError("fgsm is defined for the linf norm only")
    return pgd(model, x, y, replace(config, kind="fgsm"))


@dataclass(frozen=True)
class AdversarialBatch:
    originals: np.ndarray
    perturbed: np.ndarray
    labels: np.ndarray
    config: AttackConfig

    def __post_init__(self):
        object.__setattr__(self, "originals", as_f64(self.originals))
        object.__setattr__(self, "perturbed", as_f64(self.perturbed))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.originals.shape != self.perturbed.shape:
            raise ShapeError("originals and perturbed must have identical shapes")
        if self.originals.shape[0] != self.labels.shape[0]:
            raise ShapeError("labels must align with the batch")
        if not np.isfinite(self.perturbed).all():
            raise NumericError("adversarial batch contains non-finite values")
        dist = perturbation_norm(self.perturbed, self.originals, self.config.norm)
        if dist.size and dist.max() > self.config.epsilon + 1e-9:
            raise NumericError(
                f"perturbation norm {dist.max():.3e} exceeds epsilon {self.config.epsilon}"
            )
        if self.config.domain_clamp is not None:
            lo, hi = self.config.domain_clamp
            if self.perturbed.min() < lo or self.perturbed.max() > hi:
                raise NumericError("adversarial batch leaves the domain box")

    def __len__(self):
        return self.originals.shape[0]


def generate_batch(model: ModelState, batch: Batch, config: AttackConfig,
                   rng=None, start=None) -> AdversarialBatch:
    """Attack every example of a batch at once (rows are independent).

    ``start`` is the random start ``draw_start`` drew for the batch; when
    given, ``rng`` is not read."""
    if len(batch) == 0:
        raise ShapeError("cannot attack an empty batch")
    perturbed = pgd(model, batch.inputs, batch.labels, config, rng=rng, start=start)
    return AdversarialBatch(batch.inputs, perturbed, batch.labels, config)

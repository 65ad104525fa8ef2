"""Finite-difference verification of every gradient path.

Each randomized case builds a small model and batch, computes the gradient
with the function training and the attacks use, and a central-difference
oracle over the flattened parameters (or the inputs), and reports the worst
relative error. A case is redrawn, not counted, when any relu pre-activation
or logit spread sits within the guard margin of a non-differentiable point,
since finite differences are meaningless across a kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import AdversarialBatch, AttackConfig, _ce_grad_x, generate_batch
from .autodiff import ce_rows_value, finite_diff_grad, row_std_value
from .data import Batch
from .errors import ConfigError
from .netcore import (
    DiffModel,
    ModelSpec,
    ModelState,
    finite_diff_param_grad,
    forward_logits,
    init_model,
)
from .objective import (
    ObjectiveKind,
    certainty_value,
    grad_certainty_frozen,
    robust_grad,
    robust_loss,
)

KINK_MARGIN = 1e-3
MAX_REDRAWS = 50
DEFAULT_TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    cases: int
    max_rel_err: float

    def ok(self, tolerance=DEFAULT_TOLERANCE) -> bool:
        return self.max_rel_err < tolerance


def rel_err(approx, exact) -> float:
    """Worst component error scaled by the oracle's largest magnitude."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(float(np.abs(exact).max(initial=0.0)), 1e-6)
    return float(np.abs(approx - exact).max(initial=0.0)) / denom


def _clear_of_kinks(model: ModelState, x) -> bool:
    """No hidden relu pre-activation and no logit spread near its kink."""
    dm = DiffModel(model)
    logits = dm.logits(x)
    if model.spec.activation == "relu":
        for i, inputs in enumerate(dm.tape[:-1]):
            pre = inputs @ model.params[f"w{i}"] + model.params[f"b{i}"]
            if np.abs(pre).min(initial=np.inf) < KINK_MARGIN:
                return False
    return row_std_value(logits).min(initial=np.inf) >= KINK_MARGIN


def _draw(rng):
    """One small random model and batch; ``_gate`` checks it for kinks."""
    n = int(rng.integers(2, 6))
    hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3))))
    k = int(rng.integers(2, 5))
    activation = "relu" if rng.random() < 0.5 else "tanh"
    spec = ModelSpec(n, hidden + (k,), activation, int(rng.integers(0, 2**31)))
    model = init_model(spec)
    b = int(rng.integers(1, 5))
    x = rng.normal(0.0, 1.5, size=(b, n))
    y = rng.integers(0, k, size=b)
    return model, Batch(x, np.asarray(y, dtype=np.int64))


def _gate(name, cases, seed, error) -> GradCheckResult:
    """The worst ``error(model, batch, rng)``, NaN if any is, over ``cases``
    draws clear of kinks. A draw near one, by ``_clear_of_kinks`` or by
    ``error`` returning None, is replaced; ``MAX_REDRAWS`` in a row end it."""
    rng = np.random.default_rng(seed)
    worst, checked, redraws = 0.0, 0, 0
    while checked < cases:
        model, batch = _draw(rng)
        err = error(model, batch, rng) if _clear_of_kinks(model, batch.inputs) else None
        if err is not None:
            worst, checked, redraws = float(np.maximum(worst, err)), checked + 1, 0
            continue
        redraws += 1
        if redraws == MAX_REDRAWS:
            raise RuntimeError(f"{name}: could not sample a kink-free gradient-check case")
    return GradCheckResult(name, cases, worst)


def _param_err(model, grad, value, h) -> float:
    """``grad`` against central differences of ``value(ModelState)`` over the
    flattened parameters."""
    fd = finite_diff_param_grad(lambda params: value(ModelState(model.spec, params)),
                                model.params, h)
    return rel_err(grad.flatten(), fd.flatten())


def run_all(cases=100, h=1e-5, attack=None):
    """The full gradient gate: ``cases`` cases each for the CE parameter,
    input and frozen-certainty gradients, ``max(5, cases // 4)`` for TRADES,
    each gate on its own seed."""
    if not 0 < h < float("inf"):
        raise ConfigError(f"finite-difference step must be finite and positive, got {h}")
    if cases < 1:
        raise ConfigError(f"the gradient check needs at least 1 case, got {cases}")
    attack = attack or AttackConfig(norm="linf", epsilon=0.05, step_size=0.02, steps=3)
    ce, trades = ObjectiveKind("at_ce"), ObjectiveKind("trades", trades_beta=2.0)

    def robust(model, adv, objective):
        return _param_err(model, robust_grad(model, adv, objective)[0],
                          lambda m: robust_loss(m, adv, objective), h)

    def params_ce(model, batch, rng):
        return robust(model, AdversarialBatch(batch.inputs, batch.inputs, batch.labels,
                                              AttackConfig()), ce)

    def params_trades(model, batch, rng):
        perturbed = batch.inputs + rng.normal(0.0, 0.05, size=batch.inputs.shape)
        if _clear_of_kinks(model, perturbed):
            # noise of sd 0.05 stays far inside the radius 1
            return robust(model, AdversarialBatch(batch.inputs, perturbed, batch.labels,
                                                  AttackConfig(epsilon=1.0)), trades)
        return None

    def grad_input(model, batch, rng):
        x, y = batch.inputs[0], np.array([batch.labels[0]])
        g = _ce_grad_x(DiffModel(model), x[None, :], y)[0]
        fd = finite_diff_grad(
            lambda xx: float(ce_rows_value(forward_logits(model, xx[None, :]), y)[0]), x, h)
        return rel_err(g, fd)

    def certainty(model, batch, rng):
        """The certainty gradient with the attack outputs frozen as constants."""
        frozen = generate_batch(model, batch, attack, rng=rng).perturbed.copy()
        if _clear_of_kinks(model, frozen):
            return _param_err(model, grad_certainty_frozen(model, frozen)[0],
                              lambda m: certainty_value(m, frozen), h)
        return None

    return [_gate("grad_params", cases, 0, params_ce),
            _gate("grad_params_trades", max(5, cases // 4), 1, params_trades),
            _gate("grad_input", cases, 2, grad_input),
            _gate("grad_certainty_frozen", cases, 3, certainty)]

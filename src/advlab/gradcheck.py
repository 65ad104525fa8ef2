"""Finite-difference verification of every gradient path.

Each randomized case builds a small model and batch, computes the gradient
with the function training and the attacks use, and a central-difference
oracle over the flattened parameters (or the inputs), and reports the worst
relative error. Cases are resampled when any relu pre-activation or logit
spread sits within the guard margin of a non-differentiable point, since
finite differences are meaningless across a kink.
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
        for _, pre in dm.tape[:-1]:
            if np.abs(pre).min(initial=np.inf) < KINK_MARGIN:
                return False
    return row_std_value(logits).min(initial=np.inf) >= KINK_MARGIN


def _random_case(rng, max_tries=50):
    """A small random model and batch, clear of relu kinks and zero spread."""
    for _ in range(max_tries):
        n = int(rng.integers(2, 6))
        hidden = tuple(int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3))))
        k = int(rng.integers(2, 5))
        activation = "relu" if rng.random() < 0.5 else "tanh"
        spec = ModelSpec(n, hidden + (k,), activation, int(rng.integers(0, 2**31)))
        model = init_model(spec)
        b = int(rng.integers(1, 5))
        x = rng.normal(0.0, 1.5, size=(b, n))
        y = rng.integers(0, k, size=b)
        if _clear_of_kinks(model, x):
            return model, Batch(x, np.asarray(y, dtype=np.int64))
    raise RuntimeError("could not sample a kink-free gradient-check case")


def _robust_grad_err(model, adv, objective, h) -> float:
    g, _ = robust_grad(model, adv, objective)

    def loss(params):
        return robust_loss(ModelState(model.spec, params), adv, objective)

    fd = finite_diff_param_grad(loss, model.params, h)
    return rel_err(g.flatten(), fd.flatten())


def check_ce_grad(cases=100, h=1e-5, seed=0) -> GradCheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        model, batch = _random_case(rng)
        clean = AdversarialBatch(batch.inputs, batch.inputs, batch.labels, AttackConfig())
        worst = max(worst, _robust_grad_err(model, clean, ObjectiveKind("at_ce"), h))
    return GradCheckResult("grad_params", cases, worst)


def check_trades_grad(cases=25, h=1e-5, seed=1) -> GradCheckResult:
    rng = np.random.default_rng(seed)
    objective = ObjectiveKind("trades", trades_beta=2.0)
    worst = 0.0
    for _ in range(cases):
        model, batch = _random_case(rng)
        perturbed = batch.inputs + rng.normal(0.0, 0.05, size=batch.inputs.shape)
        if not _clear_of_kinks(model, perturbed):
            continue
        # noise of sd 0.05 stays far inside the radius 1
        adv = AdversarialBatch(batch.inputs, perturbed, batch.labels, AttackConfig(epsilon=1.0))
        worst = max(worst, _robust_grad_err(model, adv, objective, h))
    return GradCheckResult("grad_params_trades", cases, worst)


def check_input_grad(cases=100, h=1e-5, seed=2) -> GradCheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        model, batch = _random_case(rng)
        x, y = batch.inputs[0], int(batch.labels[0])
        g = _ce_grad_x(model, x[None, :], np.array([y]))[0]

        def loss_of_x(xx):
            return float(ce_rows_value(forward_logits(model, xx[None, :]), np.array([y]))[0])

        fd = finite_diff_grad(loss_of_x, x, h)
        worst = max(worst, rel_err(g, fd))
    return GradCheckResult("grad_input", cases, worst)


def check_certainty_grad(cases=100, h=1e-5, seed=3,
                         attack: AttackConfig | None = None) -> GradCheckResult:
    """Certainty gradient with the attack outputs frozen as constants."""
    rng = np.random.default_rng(seed)
    attack = attack or AttackConfig(norm="linf", epsilon=0.05, step_size=0.02, steps=3)
    worst = 0.0
    done = 0
    while done < cases:
        model, batch = _random_case(rng)
        adv = generate_batch(model, batch, attack, rng=rng)
        frozen = adv.perturbed.copy()
        if not _clear_of_kinks(model, frozen):
            continue
        g, _ = grad_certainty_frozen(model, frozen)
        fd = finite_diff_param_grad(
            lambda params: certainty_value(ModelState(model.spec, params), frozen),
            model.params, h)
        worst = max(worst, rel_err(g.flatten(), fd.flatten()))
        done += 1
    return GradCheckResult("grad_certainty_frozen", cases, worst)


def run_all(cases=100, h=1e-5, attack=None):
    """The full gradient gate."""
    if not h > 0:
        raise ConfigError(f"finite-difference step must be positive, got {h}")
    return [
        check_ce_grad(cases=cases, h=h),
        check_trades_grad(cases=max(5, cases // 4), h=h),
        check_input_grad(cases=cases, h=h),
        check_certainty_grad(cases=cases, h=h, attack=attack),
    ]

"""Row-wise losses over dense float64 logit matrices, their gradients with
respect to the logits, and the finite-difference oracle.

Every loss that training, the attacks and the certainty step differentiate is
a per-row function of the logits: cross-entropy, softmax KL divergence, or
the per-row population standard deviation used as the certainty functional.
Each has a value helper (``ce_rows_value`` ...) and a closed-form gradient
(``ce_rows_grad`` ...); ``netcore.backward`` carries such a gradient back
through the network.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# plain value helpers


def logsumexp_rows(z: Array) -> Array:
    """Row-wise log-sum-exp with max subtraction for stability."""
    m = z.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def log_softmax_rows(z: Array) -> Array:
    return z - logsumexp_rows(z)


def row_std_value(u: Array) -> Array:
    """Per-row population standard deviation (the logit-spread functional)."""
    centered = u - u.mean(axis=-1, keepdims=True)
    return np.sqrt((centered * centered).mean(axis=-1))


def ce_rows_value(logits: Array, labels: Array) -> Array:
    """Per-row cross-entropy of ``logits`` against integer ``labels``."""
    lsm = log_softmax_rows(logits)
    return -lsm[np.arange(logits.shape[0]), labels]


def kl_rows_value(logits_p: Array, logits_q: Array) -> Array:
    """Per-row KL divergence between the softmaxes of two logit matrices."""
    lp = log_softmax_rows(logits_p)
    lq = log_softmax_rows(logits_q)
    return (np.exp(lp) * (lp - lq)).sum(axis=-1)


# ---------------------------------------------------------------------------
# gradients with respect to the logits
#
# Each returns d(scale * sum of the row values)/d(logits), for a mean with
# ``scale = weight / n``. The operands are multiplied in a fixed order,
# ``scale`` first: another order changes the last bits of the gradients and,
# over many steps, of every training trajectory.


def _log_softmax_vjp(lsm: Array, g: Array) -> Array:
    return g - np.exp(lsm) * g.sum(axis=-1, keepdims=True)


def ce_rows_grad(logits: Array, labels: Array, scale) -> Array:
    """Gradient of ``scale * ce_rows_value(logits, labels).sum()``."""
    lsm = log_softmax_rows(logits)
    g = np.zeros_like(lsm)
    g[np.arange(lsm.shape[0]), labels] = -scale
    return _log_softmax_vjp(lsm, g)


def kl_rows_grad(logits_p: Array, logits_q: Array, scale):
    """Gradients of ``scale * kl_rows_value(logits_p, logits_q).sum()`` with
    respect to ``logits_p`` and to ``logits_q``."""
    lp = log_softmax_rows(logits_p)
    lq = log_softmax_rows(logits_q)
    p = np.exp(lp)
    g_p = scale * (lp - lq) * p + scale * p
    return _log_softmax_vjp(lp, g_p), _log_softmax_vjp(lq, -(scale * p))


def row_std_grad(u: Array, scale) -> Array:
    """Gradient of ``scale * row_std_value(u).sum()``.

    A row with all-equal entries is a non-differentiable cusp; its gradient
    is defined as 0, matching the subgradient convention for norms at the
    origin.
    """
    centered = u - u.mean(axis=-1, keepdims=True)
    value = np.sqrt((centered * centered).mean(axis=-1))
    inv = np.zeros_like(value)
    nz = value > 0.0
    inv[nz] = 1.0 / (u.shape[-1] * value[nz])
    return (scale * inv)[:, None] * centered


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_grad(loss, point, h=1e-5) -> Array:
    """Central-difference gradient of ``loss`` at ``point``, component-wise.

    ``loss`` is called with a mutated copy of ``point`` and must not retain a
    reference to its argument.
    """
    if not h > 0:
        raise ValueError("finite difference step h must be positive")
    p = as_f64(point).copy()
    flat = p.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(loss(p))
        flat[i] = orig - h
        lo = float(loss(p))
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad.reshape(p.shape)

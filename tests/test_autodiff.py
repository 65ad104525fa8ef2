import math

import numpy as np
import pytest

from advlab import autodiff
from advlab.autodiff import (
    ce_rows_grad,
    ce_rows_value,
    finite_diff_grad,
    kl_rows_grad,
    kl_rows_value,
    log_softmax_rows,
    row_std_grad,
    row_std_value,
)
from advlab.errors import ShapeError
from advlab.netcore import DiffModel, backward
from conftest import model_from_arrays


def test_finite_diff_on_square():
    # the oracle itself must be right before anything else is trusted
    g = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-5)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_constant_loss():
    g = finite_diff_grad(lambda t: 7.5, np.array([1.0, -2.0, 0.3]))
    assert np.all(g == 0.0)


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)


def test_affine_matches_manual():
    # one affine layer: logits = x @ w + b, summed
    w = np.array([[1.0, -1.0], [0.5, 2.0]])
    model = model_from_arrays(2, [(w, np.array([0.5, -1.0]))])
    dm = DiffModel(model)
    out = dm.logits(np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[2.5, 2.0]])
    ones = np.ones_like(out)
    assert np.allclose(backward(dm, ones, inputs=True), [[0.0, 2.5]])
    g = backward(dm, ones)
    assert np.allclose(g["w0"], [[1.0, 1.0], [2.0, 2.0]])
    assert np.allclose(g["b0"], [1.0, 1.0])


def test_affine_shape_mismatch():
    model = model_from_arrays(2, [(np.ones((2, 2)), np.ones(2))])
    with pytest.raises(ShapeError):
        DiffModel(model).logits(np.ones((1, 3)))
    with pytest.raises(ShapeError):  # every gradient is of a mean over rows
        DiffModel(model).logits(np.ones((0, 2)))


def test_log_softmax_values_and_grad(rng):
    z = rng.normal(size=(5, 3)) * 3
    lsm = log_softmax_rows(z)
    assert np.allclose(np.exp(lsm).sum(axis=1), 1.0)
    g = autodiff._log_softmax_vjp(lsm, np.full_like(z, 1.0 / z.size))
    fd = finite_diff_grad(lambda t: float(log_softmax_rows(t).mean()), z)
    assert np.abs(g - fd).max() < 1e-8


def test_log_softmax_extreme_logits_stable():
    z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    out = log_softmax_rows(z)
    assert np.isfinite(out).all()


def test_pick_and_ce_match_hand_value():
    logits = np.array([[1.0, 2.0, 3.0]])
    ce = ce_rows_value(logits, np.array([2]))
    hand = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
    assert ce[0] == pytest.approx(hand, rel=1e-12)


def test_pick_out_of_range():
    with pytest.raises(IndexError):
        ce_rows_grad(np.ones((2, 3)), np.array([0, 3]), 1.0)


@pytest.mark.parametrize("scale", [1.0, 0.25])
def test_ce_rows_grad_matches_fd(rng, scale):
    z = rng.normal(size=(4, 3)) * 2
    y = np.array([0, 2, 1, 2])
    fd = finite_diff_grad(lambda t: scale * float(ce_rows_value(t, y).sum()), z)
    assert np.abs(ce_rows_grad(z, y, scale) - fd).max() < 1e-8


def test_row_std_values():
    u = np.array([[2.0, 0.0], [1.0, 2.0], [5.0, 5.0]])
    got = row_std_value(u)
    assert got[0] == pytest.approx(1.0)
    assert got[1] == pytest.approx(0.5)
    assert got[2] == 0.0


def test_row_std_grad_matches_fd(rng):
    u = rng.normal(size=(4, 5)) * 2
    fd = finite_diff_grad(lambda t: float(row_std_value(t).mean()), u)
    assert np.abs(row_std_grad(u, 1.0 / 4) - fd).max() < 1e-7


def test_row_std_grad_zero_at_constant_rows():
    u = np.full((2, 3), 1.7)
    u[1] = [0.0, 1.0, 2.0]
    g = row_std_grad(u, 0.5)
    assert np.all(g[0] == 0.0)
    assert np.abs(g[1]).max() > 0.0


def test_kl_rows_zero_for_identical():
    z = np.array([[0.3, -1.2, 2.0]])
    assert kl_rows_value(z, z)[0] == 0.0


def test_kl_rows_hand_case():
    # softmax(0,0) = (1/2,1/2); softmax(log 3, 0) = (3/4, 1/4)
    p = np.array([[0.0, 0.0]])
    q = np.array([[math.log(3), 0.0]])
    hand = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert kl_rows_value(p, q)[0] == pytest.approx(hand, rel=1e-12)


def test_kl_rows_grad_matches_fd(rng):
    # both arguments: the clean side and the adversarial side of TRADES
    zp = rng.normal(size=(3, 4))
    zq = rng.normal(size=(3, 4))
    g_p, g_q = kl_rows_grad(zp, zq, 0.5)
    fd_p = finite_diff_grad(lambda t: 0.5 * float(kl_rows_value(t, zq).sum()), zp)
    fd_q = finite_diff_grad(lambda t: 0.5 * float(kl_rows_value(zp, t).sum()), zq)
    assert np.abs(g_p - fd_p).max() < 1e-7
    assert np.abs(g_q - fd_q).max() < 1e-7


def test_kl_rows_grad_zero_for_identical(rng):
    z = rng.normal(size=(2, 3))
    g_p, g_q = kl_rows_grad(z, z, 1.0)
    assert np.abs(g_p).max() < 1e-15
    assert np.abs(g_q).max() < 1e-15


def test_untracked_constants_get_no_grad(rng):
    # the parameter gradient holds the input constant, the input gradient
    # holds the parameters constant: each pass returns only its own gradient
    model = model_from_arrays(3, [(rng.normal(size=(3, 2)), np.zeros(2))])
    dm = DiffModel(model)
    d = np.ones_like(dm.logits(rng.normal(size=(4, 3))))
    assert backward(dm, d).layout() == (("w0", (3, 2)), ("b0", (2,)))
    assert backward(dm, d, inputs=True).shape == (4, 3)


def test_grad_accumulates_over_reuse(rng):
    # one recorded forward pass serves several backward passes, which add up
    model = model_from_arrays(3, [(rng.normal(size=(3, 4)), rng.normal(size=4)),
                                  (rng.normal(size=(4, 2)), np.zeros(2))], "tanh")
    dm = DiffModel(model)
    z = dm.logits(rng.normal(size=(5, 3)))
    a, b = rng.normal(size=z.shape), rng.normal(size=z.shape)
    summed = backward(dm, a) + backward(dm, b)
    assert np.allclose(summed.flatten(), backward(dm, a + b).flatten(), rtol=0, atol=1e-12)

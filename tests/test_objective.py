import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advlab.attack import AttackConfig, generate_batch, pgd
from advlab.autodiff import row_std_value
from advlab.data import Batch
from advlab.errors import ConfigError, ShapeError
from advlab.netcore import (
    ModelSpec,
    ModelState,
    finite_diff_param_grad,
    forward_logits,
    init_model,
    predict_label,
)
from advlab.objective import (
    ObjectiveKind,
    adversarial_certainty,
    certainty_value,
    cross_entropy,
    grad_certainty_frozen,
    robust_loss,
    trades_loss,
    var_functional,
)
from conftest import model_from_arrays

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8
)


def pgd5(eps):
    return AttackConfig(norm="linf", epsilon=eps, step_size=eps / 2.5 if eps else 0.1,
                        steps=5 if eps else 0)


class TestVarFunctional:
    def test_constant_vector_is_zero(self):
        assert var_functional(np.full(5, 3.3)) == 0.0

    def test_two_point_case(self):
        assert var_functional(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_three_point_hand_case(self):
        assert var_functional(np.array([1.0, 2.0, 3.0])) == pytest.approx(math.sqrt(2 / 3))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            var_functional(np.zeros(0))

    @given(finite_logits, st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, u, c):
        u = np.asarray(u)
        assert var_functional(u + c) == pytest.approx(var_functional(u), abs=1e-12)

    @given(finite_logits, st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_absolute_homogeneity(self, u, a):
        u = np.asarray(u)
        assert var_functional(a * u) == pytest.approx(abs(a) * var_functional(u), abs=1e-9)

    @given(finite_logits)
    @settings(max_examples=100, deadline=None)
    def test_non_negative(self, u):
        assert var_functional(np.asarray(u)) >= 0.0


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert cross_entropy(np.array([0.7, 0.7]), 0) == pytest.approx(math.log(2))

    def test_saturated_margin(self):
        v = cross_entropy(np.array([100.0, 0.0]), 0)
        assert 0.0 <= v < 1e-40

    def test_hand_case(self):
        hand = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
        assert cross_entropy(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(hand)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([1.0, 2.0]), 2)


class TestTrades:
    def test_identical_batches_reduce_to_clean_ce(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "relu", 0))
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        got = trades_loss(model, Batch(x, y), x, beta=3.0)
        logits = forward_logits(model, x)
        clean = float(np.mean([cross_entropy(logits[i], y[i]) for i in range(4)]))
        assert got == pytest.approx(clean, rel=1e-12)

    def test_beta_zero_is_clean_ce(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "relu", 0))
        x = rng.normal(size=(4, 3))
        xadv = x + rng.normal(size=x.shape) * 0.1
        y = rng.integers(0, 2, size=4)
        got = trades_loss(model, Batch(x, y), xadv, beta=0.0)
        logits = forward_logits(model, x)
        clean = float(np.mean([cross_entropy(logits[i], y[i]) for i in range(4)]))
        assert got == pytest.approx(clean, abs=1e-12)

    def test_hand_two_class_kl_term(self):
        # single linear feature, so logits are (x, -x): KL computable by hand
        model = model_from_arrays(1, [(np.array([[1.0, -1.0]]), np.zeros(2))])
        x = np.array([[0.0]])
        xadv = np.array([[math.log(3) / 2.0]])
        y = np.array([0])
        # clean logits (0,0) -> p=(.5,.5); adv logits (log3/2,-log3/2) -> q=(3/4,1/4)
        kl = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        want = math.log(2) + 2.0 * kl
        assert trades_loss(model, Batch(x, y), xadv, beta=2.0) == pytest.approx(want, rel=1e-12)

    def test_objective_kind_validation(self):
        with pytest.raises(ConfigError):
            ObjectiveKind("mart")
        with pytest.raises(ConfigError):
            ObjectiveKind("trades", trades_beta=0.0)


class TestRobustLoss:
    def test_epsilon_zero_at_ce_equals_clean(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 0))
        batch = Batch(rng.normal(size=(5, 3)), rng.integers(0, 2, size=5))
        adv = generate_batch(model, batch, pgd5(0.0))
        got = robust_loss(model, adv, ObjectiveKind("at_ce"))
        logits = forward_logits(model, batch.inputs)
        want = float(np.mean([cross_entropy(logits[i], batch.labels[i]) for i in range(5)]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_example(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 0))
        batch = Batch(rng.normal(size=(1, 3)), np.array([1]))
        adv = generate_batch(model, batch, pgd5(0.1))
        got = robust_loss(model, adv, ObjectiveKind("at_ce"))
        want = cross_entropy(forward_logits(model, adv.perturbed[0]), 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_upper_bounds_robust_01_error(self, rng):
        model = init_model(ModelSpec(4, (6, 3), "relu", 2))
        batch = Batch(rng.normal(size=(16, 4)), rng.integers(0, 3, size=16))
        adv = generate_batch(model, batch, pgd5(0.2))
        logits = forward_logits(model, adv.perturbed)
        for i in range(16):
            ce = cross_entropy(logits[i], batch.labels[i])
            if predict_label(model, adv.perturbed[i]) != batch.labels[i]:
                assert ce >= math.log(2) - 1e-12


class TestAdversarialCertainty:
    def test_constant_logit_model_zero(self, rng):
        model = model_from_arrays(3, [(rng.normal(size=(3, 5)), rng.normal(size=5)),
                                      (np.zeros((5, 2)), np.zeros(2))])
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6))
        report = adversarial_certainty(model, batch, pgd5(0.2))
        assert report.mean == 0.0
        assert np.all(report.per_example == 0.0)

    def test_epsilon_zero_equals_clean_spread(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "relu", 0))
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6))
        report = adversarial_certainty(model, batch, pgd5(0.0))
        clean = row_std_value(forward_logits(model, batch.inputs))
        assert np.array_equal(report.per_example, clean)

    def test_mean_is_average_of_per_example(self, rng):
        model = init_model(ModelSpec(3, (5, 3), "relu", 0))
        batch = Batch(rng.normal(size=(9, 3)), rng.integers(0, 3, size=9))
        report = adversarial_certainty(model, batch, pgd5(0.15))
        assert report.mean == pytest.approx(report.per_example.mean(), abs=1e-12)

    def test_matches_bruteforce_reimplementation(self, rng):
        # independent straight-line path: per-example pgd, explicit formula
        model = init_model(ModelSpec(4, (6, 3), "relu", 7))
        batch = Batch(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8))
        cfg = pgd5(0.2)
        report = adversarial_certainty(model, batch, cfg)
        spreads = []
        for i in range(8):
            xadv = pgd(model, batch.inputs[i], int(batch.labels[i]), cfg)
            u = forward_logits(model, xadv)
            ubar = u.sum() / u.size
            spreads.append(math.sqrt(((u - ubar) ** 2).sum() / u.size))
        assert report.mean == pytest.approx(float(np.mean(spreads)), rel=1e-12)
        assert np.allclose(report.per_example, spreads, rtol=1e-12)


class TestGradCertainty:
    def test_shift_direction_has_zero_gradient(self, rng):
        # adding one constant to every output bias leaves the spread unchanged
        model = init_model(ModelSpec(3, (5, 4), "relu", 0))
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 4, size=6))
        adv = generate_batch(model, batch, pgd5(0.1))
        g, _ = grad_certainty_frozen(model, adv.perturbed)
        assert float(g["b1"].sum()) == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_zero_matches_clean_spread_grad(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "tanh", 0))
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6))
        adv = generate_batch(model, batch, pgd5(0.0))
        g, ac = grad_certainty_frozen(model, adv.perturbed)
        assert g.equals(grad_certainty_frozen(model, batch.inputs)[0])
        assert ac == certainty_value(model, batch.inputs)

    def test_frozen_grad_matches_fd(self, rng):
        model = init_model(ModelSpec(4, (6, 3), "tanh", 1))
        batch = Batch(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        adv = generate_batch(model, batch, pgd5(0.15))
        frozen = adv.perturbed.copy()
        g, ac = grad_certainty_frozen(model, frozen)
        assert ac == certainty_value(model, frozen)

        def loss(params):
            return certainty_value(ModelState(model.spec, params), frozen)

        fd = finite_diff_param_grad(loss, model.params)
        denom = max(np.abs(fd.flatten()).max(), 1e-6)
        assert np.abs(g.flatten() - fd.flatten()).max() / denom < 1e-4

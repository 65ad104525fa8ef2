import numpy as np
import pytest

from advlab.autodiff import ce_rows_grad, ce_rows_value, finite_diff_grad, log_softmax_rows
from advlab.data import Batch
from advlab.errors import ConfigError, NumericError, ShapeError
from advlab.netcore import (
    DiffModel,
    ModelSpec,
    ModelState,
    ParamVector,
    backward,
    finite_diff_param_grad,
    forward_logits,
    init_model,
    predict_label,
)
from conftest import model_from_arrays


class TestParamVector:
    def test_flatten_roundtrip(self, rng):
        pv = ParamVector([("w0", rng.normal(size=(3, 4))), ("b0", rng.normal(size=4))])
        again = pv.unflatten(pv.flatten())
        assert pv.equals(again)

    def test_arithmetic(self):
        a = ParamVector([("w0", np.array([1.0, 2.0]))])
        b = ParamVector([("w0", np.array([10.0, 20.0]))])
        assert np.allclose((a + b)["w0"], [11.0, 22.0])
        assert np.allclose((b - a)["w0"], [9.0, 18.0])
        assert np.allclose((a * 2.0)["w0"], [2.0, 4.0])

    def test_layout_mismatch_rejected(self):
        a = ParamVector([("w0", np.zeros(2))])
        b = ParamVector([("w0", np.zeros(3))])
        with pytest.raises(ShapeError):
            a + b

    def test_segments_are_readonly(self):
        pv = ParamVector([("w0", np.zeros(2))])
        with pytest.raises(ValueError):
            pv["w0"][0] = 1.0


class TestModelSpec:
    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            ModelSpec(2, (0, 2))

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            ModelSpec(2, (4, 1))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError):
            ModelSpec(2, (4, 2), "sigmoid")

    def test_layer_dims(self):
        spec = ModelSpec(3, (5, 4, 2))
        assert spec.layer_dims() == ((3, 5), (5, 4), (4, 2))
        assert spec.num_classes == 2


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        spec = ModelSpec(2, (4, 2), "relu", init_seed=7)
        assert init_model(spec).params.equals(init_model(spec).params)

    def test_different_seed_differs(self):
        a = init_model(ModelSpec(2, (4, 2), "relu", init_seed=7))
        b = init_model(ModelSpec(2, (4, 2), "relu", init_seed=8))
        assert not a.params.equals(b.params)

    def test_weights_within_documented_bound(self):
        # recompute the bound from the documented formula per layer fan-in
        spec = ModelSpec(2, (4, 2), "relu", init_seed=7)
        model = init_model(spec)
        for i, (fan_in, _) in enumerate(spec.layer_dims()):
            bound = 1.0 / np.sqrt(fan_in)
            assert np.abs(model.params[f"w{i}"]).max() <= bound
            assert np.abs(model.params[f"b{i}"]).max() <= bound

    def test_state_layout_checked(self):
        spec = ModelSpec(2, (4, 2))
        bad = ParamVector([("w0", np.zeros((2, 4)))])
        with pytest.raises(ShapeError):
            ModelState(spec, bad)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        model = model_from_arrays(3, [(np.zeros((3, 4)), np.zeros(4)),
                                      (np.zeros((4, 2)), np.zeros(2))])
        assert np.all(forward_logits(model, np.array([1.0, -2.0, 0.5])) == 0.0)

    def test_identity_layer(self, linear_2d_model):
        out = forward_logits(linear_2d_model, np.array([1.0, 2.0]))
        assert np.array_equal(out, [1.0, 2.0])

    def test_two_layer_relu_hand_case(self):
        # all values dyadic, so the comparison is exact
        model = model_from_arrays(2, [
            (np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.5, -1.0])),
            (np.array([[1.0, 0.0], [-1.0, 1.0]]), np.array([0.0, 0.25])),
        ])
        out = forward_logits(model, np.array([1.0, 2.0]))
        assert np.array_equal(out, [0.5, 2.25])

    def test_batched_matches_single(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "tanh", 11))
        xs = rng.normal(size=(4, 3))
        batched = forward_logits(model, xs)
        for i in range(4):
            assert np.allclose(batched[i], forward_logits(model, xs[i]), rtol=0, atol=1e-12)

    def test_shape_error(self):
        model = init_model(ModelSpec(3, (5, 2)))
        with pytest.raises(ShapeError):
            forward_logits(model, np.zeros(4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_logits_raise_on_every_forward(self):
        # finite weights whose logits overflow: plain and recorded forwards,
        # each raising the documented error and no numpy warning before it
        huge = model_from_arrays(3, [(np.full((3, 2), 1e308), np.zeros(2))])
        x = np.ones((4, 3))
        with pytest.raises(NumericError):
            forward_logits(huge, x)
        with pytest.raises(NumericError):
            DiffModel(huge).logits(x)

    def test_determinism_bitwise(self, rng):
        model = init_model(ModelSpec(6, (8, 3), "relu", 5))
        x = rng.normal(size=(7, 6))
        assert np.array_equal(forward_logits(model, x), forward_logits(model, x))

    def test_linearity_of_pure_linear_model(self, rng):
        w = rng.normal(size=(4, 3))
        model = model_from_arrays(4, [(w, np.zeros(3))])
        x = rng.normal(size=4)
        # power-of-two scaling is exact in binary floating point
        assert np.array_equal(forward_logits(model, 2.0 * x), 2.0 * forward_logits(model, x))
        a = 1.7
        assert np.allclose(forward_logits(model, a * x), a * forward_logits(model, x), rtol=1e-12)


class TestPredict:
    def test_argmax(self, linear_2d_model):
        assert predict_label(linear_2d_model, np.array([0.1, 0.9])) == 1

    def test_tie_breaks_low_index(self, linear_2d_model):
        assert predict_label(linear_2d_model, np.array([0.5, 0.5])) == 0

    def test_matches_hand_logits(self):
        model = model_from_arrays(2, [
            (np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([0.5, -1.0])),
            (np.array([[1.0, 0.0], [-1.0, 1.0]]), np.array([0.0, 0.25])),
        ])
        # hand logits are (0.5, 2.25)
        assert predict_label(model, np.array([1.0, 2.0])) == 1

    def test_shift_invariance(self, rng):
        model = model_from_arrays(3, [(np.eye(3), np.zeros(3))])
        for _ in range(50):
            u = rng.normal(size=3) * 10
            c = float(rng.normal()) * 10
            shifted = model_from_arrays(3, [(np.eye(3), np.full(3, c))])
            assert predict_label(model, u) == predict_label(shifted, u)


def ce_grads(model, x, y):
    """Mean cross-entropy gradients through the recorded forward pass:
    (parameter ParamVector, input rows)."""
    dm = DiffModel(model)
    dlogits = ce_rows_grad(dm.logits(x), y, 1.0 / len(y))
    return backward(dm, dlogits), backward(dm, dlogits, inputs=True)


class TestGradients:
    def test_constant_loss_zero_grad(self):
        model = init_model(ModelSpec(2, (3, 2), "relu", 0))
        dm = DiffModel(model)
        g = backward(dm, np.zeros_like(dm.logits(np.ones((1, 2)))))
        assert all(np.all(arr == 0.0) for _, arr in g.items())

    def test_ce_grad_matches_fd(self, rng):
        model = init_model(ModelSpec(4, (6, 3), "tanh", 3))
        batch = Batch(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        g, _ = ce_grads(model, batch.inputs, batch.labels)

        def loss(params):
            logits = forward_logits(ModelState(model.spec, params), batch.inputs)
            return float(ce_rows_value(logits, batch.labels).mean())

        fd = finite_diff_param_grad(loss, model.params)
        err = np.abs(g.flatten() - fd.flatten()).max()
        assert err < 1e-6 * max(1.0, np.abs(fd.flatten()).max())

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_matches_fd_through_two_hidden_layers(self, rng, activation):
        model = init_model(ModelSpec(3, (5, 4, 3), activation, 4))
        x = rng.normal(size=(4, 3))
        y = np.array([0, 1, 2, 1])
        dm = DiffModel(model)
        dm.logits(x)
        pre = np.concatenate([p.ravel() for _, p in dm.tape[:-1]])
        assert np.abs(pre).min() > 1e-3  # finite differences need no relu kink
        g, gx = ce_grads(model, x, y)

        def loss(params):
            logits = forward_logits(ModelState(model.spec, params), x)
            return float(ce_rows_value(logits, y).mean())

        fd = finite_diff_param_grad(loss, model.params)
        assert np.abs(g.flatten() - fd.flatten()).max() < 1e-7
        fd_x = finite_diff_grad(lambda t: float(ce_rows_value(forward_logits(model, t), y).mean()), x)
        assert np.abs(gx - fd_x).max() < 1e-7

    def test_diff_logits_record_the_one_forward_pass(self, rng):
        model = init_model(ModelSpec(3, (5, 4, 2), "tanh", 1))
        x = rng.normal(size=(6, 3))
        dm = DiffModel(model)
        logits = dm.logits(x)
        assert np.array_equal(logits, forward_logits(model, x))
        assert len(dm.tape) == 3
        assert np.array_equal(dm.tape[0][0], x)
        assert np.array_equal(dm.tape[1][0], np.tanh(dm.tape[0][1]))
        assert np.array_equal(dm.tape[2][1], logits)

    def test_grad_input_zero_when_loss_ignores_x(self):
        model = init_model(ModelSpec(3, (4, 2), "relu", 0))
        dm = DiffModel(model)
        g = backward(dm, np.zeros_like(dm.logits(np.zeros((1, 3)))), inputs=True)
        assert np.all(g == 0.0)

    def test_grad_input_linear_ce_analytic(self):
        # logits = x @ W; d(ce)/dx = W @ (softmax - onehot)
        w = np.array([[1.0, -0.5], [2.0, 0.25], [-1.0, 0.5]])
        model = model_from_arrays(3, [(w, np.zeros(2))])
        x = np.array([0.3, -0.7, 1.1])
        y = 0
        _, g = ce_grads(model, x[None, :], np.array([y]))
        p = np.exp(log_softmax_rows((x @ w)[None, :]))[0]
        p[y] -= 1.0
        assert np.allclose(g[0], w @ p, rtol=0, atol=1e-12)

    def test_grad_input_matches_fd(self, rng):
        model = init_model(ModelSpec(5, (7, 3), "tanh", 9))
        x = rng.normal(size=5)
        y = 2
        _, g = ce_grads(model, x[None, :], np.array([y]))
        fd = finite_diff_grad(
            lambda t: float(ce_rows_value(forward_logits(model, t[None, :]), np.array([y]))[0]),
            x,
        )
        assert np.abs(g[0] - fd).max() < 1e-6

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advlab.attack import (
    AdversarialBatch,
    AttackConfig,
    draw_start,
    fgsm,
    generate_batch,
    perturbation_norm,
    pgd,
)
from advlab.autodiff import ce_rows_grad, ce_rows_value
from advlab.data import Batch, make_gaussian_mixture
from advlab.errors import ConfigError, NumericError, ShapeError
from advlab.netcore import forward_logits, init_model, ModelSpec
from advlab.train import TrainConfig, train_run
from conftest import model_from_arrays


def linf(eps, alpha, steps, **kw):
    return AttackConfig(norm="linf", epsilon=eps, step_size=alpha, steps=steps, **kw)


def l2(eps, alpha, steps, **kw):
    return AttackConfig(norm="l2", epsilon=eps, step_size=alpha, steps=steps, **kw)


class TestAttackConfig:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ConfigError):
            linf(-0.1, 0.1, 1)

    def test_rejects_zero_step_with_steps(self):
        with pytest.raises(ConfigError):
            linf(0.1, 0.0, 3)

    def test_rejects_l2_fgsm(self):
        with pytest.raises(ConfigError):
            AttackConfig(norm="l2", epsilon=0.1, kind="fgsm")

    def test_rejects_bad_clamp(self):
        with pytest.raises(ConfigError):
            linf(0.1, 0.1, 1, domain_clamp=(1.0, 0.0))


class TestProjectBall:
    """pgd projects each step's offset back into the epsilon ball, then the
    candidate into the domain box."""

    def test_inside_ball_unchanged(self):
        # logits (x, -x): for y=0 the ascent direction is -1, and one 0.125
        # step stays inside the 0.5 ball
        model = model_from_arrays(1, [(np.array([[1.0, -1.0]]), np.zeros(2))])
        assert pgd(model, np.array([0.5]), 0, linf(0.5, 0.125, 1))[0] == 0.375

    def test_linf_componentwise_clip(self, linear_2d_model):
        # identity logits, y=0: ascent lowers x0 and raises x1; each 0.3
        # step coordinate is clipped to the 0.1 ball
        out = pgd(linear_2d_model, np.array([0.2, -0.3]), 0, linf(0.1, 0.3, 1))
        assert np.array_equal(out, [0.2 - 0.1, -0.3 + 0.1])

    def test_l2_radial_rescale(self):
        # logits (3a + 4b, -(3a + 4b)): for y=1 the input gradient at 0 points
        # along (3, 4), so a step of length 5 is rescaled onto the unit sphere
        model = model_from_arrays(2, [(np.array([[3.0, -3.0], [4.0, -4.0]]), np.zeros(2))])
        out = pgd(model, np.zeros(2), 1, l2(1.0, 5.0, 1))
        assert np.allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_shape_mismatch(self, linear_2d_model):
        with pytest.raises(ShapeError):
            pgd(linear_2d_model, np.zeros(3), 0, linf(0.1, 0.1, 1))
        with pytest.raises(ShapeError):
            pgd(linear_2d_model, np.zeros((2, 2)), [0], linf(0.1, 0.1, 1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_projection_feasible_both_norms(self, seed):
        # steps longer than epsilon, from random starts, in a box
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        model = init_model(ModelSpec(n, (4, 3), "relu", int(rng.integers(0, 100))))
        x = rng.uniform(-1.0, 1.0, size=(3, n))
        y = rng.integers(0, 3, size=3)
        eps = float(rng.uniform(0, 2.0))
        for norm in ("linf", "l2"):
            cfg = AttackConfig(norm=norm, epsilon=eps, step_size=float(rng.uniform(0.5, 3.0)),
                               steps=3, random_start=True, domain_clamp=(-1.0, 1.0))
            out = pgd(model, x, y, cfg, rng=seed)
            assert perturbation_norm(out, x, norm).max() <= eps + 1e-9
            assert out.min() >= -1.0 and out.max() <= 1.0


class TestFgsm:
    def test_epsilon_zero_returns_x(self, linear_2d_model):
        cfg = linf(0.0, 1.0, 0, kind="fgsm")
        x = np.array([0.4, -0.2])
        assert np.array_equal(fgsm(linear_2d_model, x, 0, cfg), x)

    def test_positive_gradient_moves_up(self):
        # 1-D binary linear model: logits = (x, -x); CE grad in x for y=0 is
        # -(1 - p0) * 2 < 0, so the ascent direction is sign=-1 and x drops.
        model = model_from_arrays(1, [(np.array([[1.0, -1.0]]), np.zeros(2))])
        cfg = AttackConfig(norm="linf", epsilon=0.25, kind="fgsm")
        out = fgsm(model, np.array([0.5]), 0, cfg)
        assert out[0] == pytest.approx(0.25)
        out1 = fgsm(model, np.array([0.5]), 1, cfg)
        assert out1[0] == pytest.approx(0.75)

    def test_matches_single_step_pgd_bitwise(self, rng):
        model = init_model(ModelSpec(4, (6, 3), "relu", 2))
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        eps = 0.3
        a = fgsm(model, x, y, AttackConfig(norm="linf", epsilon=eps, kind="fgsm"))
        b = pgd(model, x, y, linf(eps, eps, 1))
        assert np.array_equal(a, b)

    def test_matches_single_step_pgd_bytes_in_a_box(self, rng):
        # inputs drawn inside the domain box, which the first pgd candidate
        # clamps into; C02 covers unclamped normal inputs only
        for seed in range(20):
            model = init_model(ModelSpec(4, (6, 3), "relu", seed))
            x = rng.uniform(0.0, 1.0, size=(7, 4))
            y = rng.integers(0, 3, size=7)
            eps = float(rng.uniform(0.01, 0.5))
            a = fgsm(model, x, y, AttackConfig(norm="linf", epsilon=eps, kind="fgsm",
                                               domain_clamp=(0.0, 1.0)))
            b = pgd(model, x, y, linf(eps, eps, 1, domain_clamp=(0.0, 1.0)))
            assert a.tobytes() == b.tobytes()

    def test_label_count_mismatch_is_shape_error(self, rng):
        model = init_model(ModelSpec(4, (6, 3), "relu", 0))
        with pytest.raises(ShapeError):
            fgsm(model, rng.normal(size=(3, 4)), [0, 1],
                 AttackConfig(norm="linf", epsilon=0.1, kind="fgsm"))

    def test_rejects_l2(self, linear_2d_model):
        cfg = l2(0.1, 0.1, 1)
        with pytest.raises(ConfigError):
            fgsm(linear_2d_model, np.zeros(2), 0, cfg)


class TestPgd:
    def test_zero_steps_returns_x_exactly(self, linear_2d_model):
        x = np.array([0.7, -0.1])
        out = pgd(linear_2d_model, x, 1, linf(0.5, 0.1, 0))
        assert np.array_equal(out, x)

    def test_1d_closed_form(self):
        # constant gradient sign; S steps land at x + min(S*alpha, eps)*sign
        model = model_from_arrays(1, [(np.array([[1.0, -1.0]]), np.zeros(2))])
        x = np.array([0.5])
        # label 1: ascent pushes x up (+1 direction); alpha dyadic for exactness
        for steps, alpha, eps in [(3, 0.125, 1.0), (10, 0.125, 0.5)]:
            out = pgd(model, x, 1, linf(eps, alpha, steps))
            assert out[0] == pytest.approx(0.5 + min(steps * alpha, eps), abs=1e-12)

    def test_batch_of_one_equals_single(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "relu", 4))
        x = rng.normal(size=3)
        cfg = linf(0.2, 0.05, 6)
        single = pgd(model, x, 1, cfg)
        batched = pgd(model, x[None, :], np.array([1]), cfg)
        assert np.array_equal(single, batched[0])

    def test_random_start_requires_rng(self, linear_2d_model):
        cfg = linf(0.2, 0.05, 2, random_start=True)
        with pytest.raises(ConfigError):
            pgd(linear_2d_model, np.zeros(2), 0, cfg)

    def test_random_start_deterministic_per_seed(self, rng):
        model = init_model(ModelSpec(3, (5, 2), "relu", 4))
        x = rng.normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        cfg = linf(0.2, 0.05, 3, random_start=True)
        a = pgd(model, x, y, cfg, rng=42)
        b = pgd(model, x, y, cfg, rng=42)
        c = pgd(model, x, y, cfg, rng=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_feasibility_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 4))
        model = init_model(ModelSpec(n, (int(rng.integers(2, 5)), k), "relu",
                                     int(rng.integers(0, 100))))
        norm = "linf" if rng.random() < 0.5 else "l2"
        clamp = (0.0, 1.0) if rng.random() < 0.5 else None
        cfg = AttackConfig(
            norm=norm,
            epsilon=float(rng.uniform(0, 0.8)),
            step_size=float(rng.uniform(0.01, 0.5)),
            steps=int(rng.integers(0, 6)),
            random_start=bool(rng.random() < 0.5),
            domain_clamp=clamp,
        )
        b = int(rng.integers(1, 4))
        x = rng.uniform(0, 1, size=(b, n)) if clamp else rng.normal(size=(b, n))
        y = rng.integers(0, k, size=b)
        out = pgd(model, x, y, cfg, rng=int(seed))
        assert perturbation_norm(out, x, norm).max() <= cfg.epsilon + 1e-9
        if clamp:
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_monotone_ce_on_linear_models(self, rng):
        # convex surrogate: loss is non-decreasing along the projected ascent
        for _ in range(25):
            n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            w = rng.normal(size=(n, k))
            b = rng.normal(size=k)
            model = model_from_arrays(n, [(w, b)])
            x = rng.normal(size=n)
            y = int(rng.integers(0, k))
            cfg = linf(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.01, 0.2)),
                       int(rng.integers(1, 8)))
            losses = []
            for s in range(cfg.steps + 1):
                xs = pgd(model, x, y, linf(cfg.epsilon, cfg.step_size, s))
                losses.append(ce_rows_value(forward_logits(model, xs)[None, :],
                                            np.array([y]))[0])
            assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(losses, losses[1:]))


class TestGenerateBatch:
    def test_epsilon_zero_identity(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 1))
        batch = Batch(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6))
        adv = generate_batch(model, batch, linf(0.0, 0.1, 5))
        assert np.array_equal(adv.perturbed, batch.inputs)

    def test_batch_of_one_consistency(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 1))
        x = rng.normal(size=(1, 3))
        batch = Batch(x, np.array([1]))
        cfg = linf(0.2, 0.05, 4)
        adv = generate_batch(model, batch, cfg)
        assert np.array_equal(adv.perturbed[0], pgd(model, x[0], 1, cfg))

    def test_empty_batch_rejected(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 1))
        with pytest.raises(ShapeError):
            generate_batch(model, Batch(np.zeros((0, 3)), np.zeros(0, dtype=int)),
                           linf(0.1, 0.1, 1))

    def test_loss_does_not_decrease_on_linear_model(self, rng):
        w = rng.normal(size=(4, 3))
        model = model_from_arrays(4, [(w, np.zeros(3))])
        batch = Batch(rng.normal(size=(8, 4)), rng.integers(0, 3, size=8))
        adv = generate_batch(model, batch, linf(0.3, 0.1, 5))
        before = ce_rows_value(forward_logits(model, batch.inputs), batch.labels)
        after = ce_rows_value(forward_logits(model, adv.perturbed), batch.labels)
        assert np.all(after >= before - 1e-12)

    def test_feasibility_invariant_enforced(self):
        cfg = linf(0.1, 0.1, 1)
        with pytest.raises(NumericError):
            AdversarialBatch(np.zeros((1, 2)), np.full((1, 2), 0.5), np.array([0]), cfg)

    def test_fgsm_kind_dispatch(self, rng):
        model = init_model(ModelSpec(3, (4, 2), "relu", 1))
        batch = Batch(rng.normal(size=(3, 3)), rng.integers(0, 2, size=3))
        cfg = AttackConfig(norm="linf", epsilon=0.2, kind="fgsm")
        adv = generate_batch(model, batch, cfg)
        assert np.array_equal(adv.perturbed, fgsm(model, batch.inputs, batch.labels, cfg))

    def test_pgd_of_an_fgsm_config_is_fgsm(self, rng):
        # the config's own steps (0 by default) and random start are not read
        model = init_model(ModelSpec(3, (4, 2), "relu", 1))
        x, y = rng.normal(size=(5, 3)), rng.integers(0, 2, size=5)
        cfg = AttackConfig(norm="linf", epsilon=0.1, kind="fgsm", random_start=True)
        out = pgd(model, x, y, cfg, rng=0)
        assert out.tobytes() == fgsm(model, x, y, cfg).tobytes()
        assert np.abs(out - x).max() == pytest.approx(0.1)
        assert draw_start(cfg, 0, x.shape) is None


def reference_input_grad(model, rows, labels):
    """The summed cross-entropy's input gradient by a plain layer loop in
    which every intermediate is a fresh array."""
    layers = [(model.params[f"w{i}"], model.params[f"b{i}"])
              for i in range(len(model.spec.layer_widths))]
    relu = model.spec.activation == "relu"
    tape = []
    z = rows
    for i, (w, b) in enumerate(layers):
        x = z
        z = x @ w + b
        tape.append((x, z))
        if i < len(layers) - 1:
            z = np.maximum(z, 0.0) if relu else np.tanh(z)
    g = ce_rows_grad(z, labels, 1.0)
    for i in reversed(range(len(layers))):
        g = g @ layers[i][0].T
        if i > 0:
            x, pre = tape[i][0], tape[i - 1][1]
            g = g * (pre > 0.0) if relu else g * (1.0 - x * x)
    return g


def reference_pgd(model, x, y, config, start):
    """Projected gradient ascent as a plain loop with fresh arrays: the
    operations ``pgd`` performs in place, in the same order."""
    def clamp(v):
        return v if config.domain_clamp is None else np.clip(v, *config.domain_clamp)

    eps = config.epsilon
    delta = np.zeros_like(x) if start is None else start
    for _ in range(config.steps):
        grad = reference_input_grad(model, clamp(x + delta), y)
        if config.norm == "linf":
            step = config.step_size * np.sign(grad)
        else:
            norms = np.sqrt((grad * grad).sum(axis=-1, keepdims=True))
            unit = np.zeros_like(grad)
            np.divide(grad, norms, out=unit, where=norms > 0.0)
            step = config.step_size * unit
        delta = delta + step
        if config.norm == "linf":
            delta = np.clip(delta, -eps, eps)
        else:
            norms = np.sqrt((delta * delta).sum(axis=-1, keepdims=True))
            factor = np.ones_like(norms)
            np.divide(eps, norms, out=factor, where=norms > eps)
            delta = delta * factor
    return clamp(x + delta)


@pytest.fixture(scope="module")
def trained_models():
    """16-256-256-4 relu and tanh models after one epoch of adversarial training."""
    data = (make_gaussian_mixture(4, 16, 64, 3.0, 1.0, seed=8),
            make_gaussian_mixture(4, 16, 16, 3.0, 1.0, seed=9))
    atk = linf(0.15, 0.0375, 3)
    cfg = TrainConfig(epochs=1, batch_size=64, lr=0.1, train_attack=atk, eval_attack=atk)
    return [train_run(cfg, data, ModelSpec(16, (256, 256, 4), act, 0))[0].model
            for act in ("relu", "tanh")]


class TestPgdMatchesPlainLoop:
    """``pgd`` reuses its arrays and a DiffModel's buffers across steps; its
    output equals the plain loop's bit for bit. The row counts run in one
    sequence, largest batch in the middle, so that a stale buffer would show."""

    def test_bitwise_on_trained_weights(self, trained_models):
        rng = np.random.default_rng(3)
        cases = 0
        for model in trained_models:
            for n in (1, 16, 17, 64, 256, 17, 1):
                x = rng.uniform(-1.0, 1.0, size=(n, 16))
                y = rng.integers(0, 4, size=n)
                for norm in ("linf", "l2"):
                    for random_start in (False, True):
                        for clamp in (None, (-1.0, 1.0)):
                            cfg = AttackConfig(norm=norm, epsilon=0.3, step_size=0.1,
                                               steps=5, random_start=random_start,
                                               domain_clamp=clamp)
                            start = draw_start(cfg, np.random.default_rng(n), x.shape)
                            kept = None if start is None else start.copy()
                            want = reference_pgd(model, x, y, cfg, kept)
                            assert np.array_equal(pgd(model, x, y, cfg, rng=n), want)
                            assert np.array_equal(pgd(model, x, y, cfg, start=start), want)
                            if start is not None:
                                assert np.array_equal(start, kept)  # not updated in place
                            cases += 1
        assert cases == 2 * 7 * 8

    def test_outputs_are_fresh_arrays(self, trained_models):
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(17, 16))
        y = np.arange(17) % 4
        cfg = linf(0.3, 0.1, 3, domain_clamp=(-1.0, 1.0))
        first = pgd(trained_models[0], x, y, cfg)
        kept = first.copy()
        second = pgd(trained_models[0], x, y, cfg)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

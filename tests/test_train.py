import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import advlab
from advlab.attack import AttackConfig
from advlab.autodiff import ce_rows_grad
from advlab.data import Batch, make_gaussian_mixture
from advlab.errors import CheckpointError, ConfigError, NumericError, TrainingAborted
from advlab.netcore import DiffModel, ModelSpec, ModelState, ParamVector, backward, init_model
from advlab.objective import ObjectiveKind, certainty_value, grad_certainty_frozen
from advlab.train import (
    Checkpoint,
    OptState,
    StepReport,
    TrainConfig,
    apply_update,
    at_update,
    certainty_descent_probe,
    edac_reg_update,
    edac_update,
    epoch_batches,
    load_checkpoint,
    lr_at_epoch,
    save_checkpoint,
    sgd_step,
    train_run,
)


def tiny_data(seed=0):
    train = make_gaussian_mixture(3, 4, 30, 3.5, 0.8, seed=seed)
    test = make_gaussian_mixture(3, 4, 15, 3.5, 0.8, seed=seed + 1)
    return train, test


def tiny_config(method="at", **kw):
    atk = AttackConfig(norm="linf", epsilon=0.2, step_size=0.05, steps=4)
    defaults = dict(
        epochs=2, batch_size=32, lr=0.05, momentum=0.9, lr_decay_epochs=(),
        lr_decay_factor=0.1, edac_eta=0.05, edac_reg_lambda=0.5,
        objective=ObjectiveKind("at_ce"), train_attack=atk, eval_attack=atk,
        seed=0, method=method,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def pv(*vals):
    return ParamVector([("w0", np.asarray(vals, dtype=np.float64))])


def ce_grad(model, adv):
    """Reference robust gradient: mean cross-entropy over the attacked rows."""
    dm = DiffModel(model)
    return backward(dm, ce_rows_grad(dm.logits(adv.perturbed), adv.labels, 1.0 / len(adv)))


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        p, g, buf = pv(1.0, -2.0), pv(0.5, 0.5), pv(0.0, 0.0)
        p2, _ = sgd_step(p, g, lr=0.0, momentum=0.9, momentum_buffer=buf)
        assert p2.equals(p)

    def test_zero_momentum_plain_step(self):
        p, g, buf = pv(1.0), pv(2.0), pv(0.0)
        p2, v = sgd_step(p, g, lr=0.1, momentum=0.0, momentum_buffer=buf)
        assert p2["w0"][0] == pytest.approx(0.8)
        assert v["w0"][0] == pytest.approx(2.0)

    def test_two_step_hand_trace(self):
        # v1 = 1, th1 = 0.9; v2 = 0.9 + 1 = 1.9, th2 = 0.9 - 0.19 = 0.71
        p, buf = pv(1.0), pv(0.0)
        g = pv(1.0)
        p, buf = sgd_step(p, g, lr=0.1, momentum=0.9, momentum_buffer=buf)
        assert p["w0"][0] == pytest.approx(0.9)
        p, buf = sgd_step(p, g, lr=0.1, momentum=0.9, momentum_buffer=buf)
        assert buf["w0"][0] == pytest.approx(1.9)
        assert p["w0"][0] == pytest.approx(0.71)


class TestLrSchedule:
    def test_before_first_decay(self):
        cfg = tiny_config(lr=0.1, lr_decay_epochs=(10, 15), epochs=20)
        assert lr_at_epoch(cfg, 0) == 0.1
        assert lr_at_epoch(cfg, 9) == 0.1

    def test_between_decays(self):
        cfg = tiny_config(lr=0.1, lr_decay_epochs=(10, 15), epochs=20)
        assert lr_at_epoch(cfg, 12) == pytest.approx(0.01)

    def test_after_both_decays(self):
        cfg = tiny_config(lr=0.1, lr_decay_epochs=(10, 15), epochs=25)
        assert lr_at_epoch(cfg, 20) == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(momentum=1.0)
        with pytest.raises(ConfigError):
            tiny_config(lr_decay_factor=0.0)
        with pytest.raises(ConfigError):
            tiny_config(method="awp")
        for key in ("edac_eta", "edac_reg_lambda"):
            with pytest.raises(ConfigError):
                tiny_config(**{key: float("nan")})


class TestUpdates:
    def batch(self, rng):
        return Batch(rng.normal(size=(16, 4)), rng.integers(0, 3, size=16))

    def model_opt(self):
        model = init_model(ModelSpec(4, (8, 3), "relu", 0))
        return model, OptState(model.params.zeros_like(), epoch=0, step=0)

    def test_at_lr_zero_no_change(self, rng):
        model, opt = self.model_opt()
        cfg = tiny_config(lr=1e-300)  # lr must be positive; effectively zero
        m2, _, _ = at_update(model, self.batch(rng), cfg, opt)
        assert np.allclose(m2.params.flatten(), model.params.flatten())

    def test_at_matches_reference_loop(self, rng):
        # independently coded three-iteration reference on the same stream
        from advlab.attack import generate_batch

        model, opt = self.model_opt()
        cfg = tiny_config(momentum=0.9, lr=0.05)
        batches_ = [self.batch(rng) for _ in range(3)]
        got, gopt = model, opt
        for b in batches_:
            got, gopt, _ = at_update(got, b, cfg, gopt)

        ref_params = model.params
        buf = model.params.zeros_like()
        for b in batches_:
            ref_model = ModelState(model.spec, ref_params)
            adv = generate_batch(ref_model, b, cfg.train_attack)
            grad = ce_grad(ref_model, adv)
            buf = buf * 0.9 + grad
            ref_params = ref_params - buf * 0.05
        assert got.params.equals(ref_params)

    def test_edac_eta_zero_bitwise_at(self, rng):
        model, opt = self.model_opt()
        cfg_at = tiny_config(method="at")
        cfg_ed = tiny_config(method="edac", edac_eta=0.0)
        b = self.batch(rng)
        m1, o1, rep_at = at_update(model, b, cfg_at, opt)
        m2, o2, rep = edac_update(model, b, cfg_ed, opt)
        assert m1.params.equals(m2.params)
        assert o1.momentum.equals(o2.momentum)
        assert rep.ac_before == rep.ac_after
        assert rep_at == rep
        assert (rep.eta, rep.capped) == (0.0, False)

    def test_edac_reg_lambda_zero_bitwise_at(self, rng):
        model, opt = self.model_opt()
        b = self.batch(rng)
        m1, o1, _ = at_update(model, b, tiny_config(method="at"), opt)
        m2, o2, _ = edac_reg_update(model, b, tiny_config(method="edac_reg",
                                                          edac_reg_lambda=0.0), opt)
        assert m1.params.equals(m2.params)
        assert o1.momentum.equals(o2.momentum)

    def test_edac_reg_reports_attacked_batch_certainty(self, rng):
        from advlab.attack import generate_batch

        model, opt = self.model_opt()
        cfg = tiny_config(method="edac_reg")
        b = self.batch(rng)
        _, _, rep = edac_reg_update(model, b, cfg, opt)
        ac = certainty_value(model, generate_batch(model, b, cfg.train_attack).perturbed)
        assert rep.ac_after == ac
        assert rep == StepReport(ac, ac, 0.0, False)

    @pytest.mark.parametrize("method, eta, forwards", [
        ("at", 0.05, 4), ("edac", 0.05, 8), ("edac", 0.0, 4), ("edac_reg", 0.05, 4)])
    def test_each_rows_forwarded_once(self, rng, monkeypatch, method, eta, forwards):
        # 3 attack steps, then the robust step's one forward of the attacked
        # rows; edac's half step attacks at the old weights and takes its
        # certainty and gradient from one forward
        from advlab import netcore

        calls = []
        forward = netcore._forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(netcore, "_forward", counted)
        atk = AttackConfig(norm="linf", epsilon=0.2, step_size=0.05, steps=3)
        model, opt = self.model_opt()
        cfg = tiny_config(method=method, edac_eta=eta, train_attack=atk)
        apply_update(model, self.batch(rng), cfg, opt)
        assert len(calls) == forwards

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["at", "edac", "edac_reg"])
    def test_overflowing_logits_raise(self, rng, method):
        model, opt = self.model_opt()
        huge = ModelState(model.spec, model.params * 1e200)
        with pytest.raises(NumericError, match="non-finite logits"):
            apply_update(huge, self.batch(rng), tiny_config(method=method), opt)

    def test_edac_lr_zero_returns_half_step(self, rng):
        model, opt = self.model_opt()
        cfg = tiny_config(method="edac", edac_eta=0.05, lr=1e-300)
        b = self.batch(rng)
        m2, _, rep = edac_update(model, b, cfg, opt)
        from advlab.attack import generate_batch

        adv0 = generate_batch(model, b, cfg.train_attack)
        g, _ = grad_certainty_frozen(model, adv0.perturbed)
        half = model.params - g * 0.05
        assert np.allclose(m2.params.flatten(), half.flatten())
        assert rep.eta == 0.05
        assert not rep.capped

    def test_edac_half_step_skips_momentum(self, rng):
        # buffer after edac equals the buffer from a single robust-step sgd
        from advlab.attack import generate_batch

        model, opt = self.model_opt()
        cfg = tiny_config(method="edac", edac_eta=0.03)
        b = self.batch(rng)
        _, o2, _ = edac_update(model, b, cfg, opt)

        adv0 = generate_batch(model, b, cfg.train_attack)
        g_ac, _ = grad_certainty_frozen(model, adv0.perturbed)
        half = ModelState(model.spec, model.params - g_ac * 0.03)
        adv1 = generate_batch(half, b, cfg.train_attack)
        grad = ce_grad(half, adv1)
        _, v = sgd_step(half.params, grad, cfg.lr, cfg.momentum, opt.momentum)
        assert o2.momentum.equals(v)

    @staticmethod
    def edac_reference(model, b, cfg, opt, eta):
        """Independently coded edac step with a given half-step size."""
        from advlab.attack import generate_batch

        adv0 = generate_batch(model, b, cfg.train_attack)
        half = ModelState(model.spec,
                          model.params - grad_certainty_frozen(model, adv0.perturbed)[0] * eta)
        adv1 = generate_batch(half, b, cfg.train_attack)
        return sgd_step(half.params, ce_grad(half, adv1),
                        lr_at_epoch(cfg, opt.epoch), cfg.momentum, opt.momentum)

    def test_edac_half_step_follows_lr_decay(self, rng):
        # the half step is theta - eta * factor**n * g_ac, n = decay epochs reached
        model, _ = self.model_opt()
        cfg = tiny_config(method="edac", edac_eta=0.03, lr_decay_epochs=(1, 3), epochs=4)
        b = self.batch(rng)
        # epoch 0 precedes every decay, so the step is the literal edac_eta
        for epoch, eta in ((0, 0.03), (1, 0.03 * 0.1 ** 1), (2, 0.03 * 0.1 ** 1),
                           (3, 0.03 * 0.1 ** 2)):
            opt = OptState(model.params.zeros_like(), epoch=epoch, step=0)
            m2, o2, rep = edac_update(model, b, cfg, opt)
            assert rep.eta == eta
            want, v = self.edac_reference(model, b, cfg, opt, eta)
            assert m2.params.equals(want), epoch
            assert o2.momentum.equals(v), epoch

    def test_edac_half_step_capped_at_polyak_step(self, rng):
        # a step past the zero of the linearised certainty is cut to ac / |g_ac|^2
        from advlab.attack import generate_batch

        model, opt = self.model_opt()
        cfg = tiny_config(method="edac", edac_eta=1e3)
        b = self.batch(rng)
        m2, o2, rep = edac_update(model, b, cfg, opt)

        adv0 = generate_batch(model, b, cfg.train_attack)
        g = grad_certainty_frozen(model, adv0.perturbed)[0].flatten()
        eta = certainty_value(model, adv0.perturbed) / float((g * g).sum())
        assert eta < 1e3
        assert rep.eta == eta
        assert rep.capped
        want, v = self.edac_reference(model, b, cfg, opt, eta)
        assert m2.params.equals(want)
        assert o2.momentum.equals(v)

    def test_capped_step_independent_of_blas_threads(self):
        # the Polyak norm of the 71,172 benchmark-network parameters is a
        # long sum; a threaded BLAS dot splits it by thread count
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from advlab.attack import AttackConfig
            from advlab.data import Batch
            from advlab.netcore import ModelSpec, init_model
            from advlab.train import OptState, TrainConfig, edac_update
            model = init_model(ModelSpec(16, (256, 256, 4), "relu", 0))
            rng = np.random.default_rng(0)
            batch = Batch(rng.normal(size=(64, 16)), rng.integers(0, 4, size=64))
            atk = AttackConfig(norm="linf", epsilon=0.15, step_size=0.0375, steps=10)
            cfg = TrainConfig(epochs=1, batch_size=64, lr=0.1, train_attack=atk,
                              eval_attack=atk, edac_eta=1e3, method="edac")
            new, _, report = edac_update(model, batch, cfg, OptState(model.params.zeros_like()))
            assert report.eta < 1e3, "the cap did not bind"
            print(hashlib.sha256(new.params.flatten().tobytes()).hexdigest())
        """)
        src = str(Path(advlab.__file__).resolve().parent.parent)
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.strip())
        assert digests[0] == digests[1]

    def test_edac_reg_gradient_is_sum_of_parts(self, rng):
        # finite differences of robust + lambda * frozen certainty
        from advlab.attack import generate_batch
        from advlab.objective import robust_loss
        from advlab.netcore import finite_diff_param_grad

        model, opt = self.model_opt()
        lam = 0.7
        cfg = tiny_config(method="edac_reg", edac_reg_lambda=lam, momentum=0.0, lr=1.0)
        b = self.batch(rng)
        m2, _, _ = edac_reg_update(model, b, cfg, opt)
        step = model.params - m2.params  # equals the gradient at lr=1, m=0
        adv = generate_batch(model, b, cfg.train_attack)
        frozen = adv.perturbed.copy()

        def loss(params):
            m = ModelState(model.spec, params)
            from advlab.autodiff import ce_rows_value, row_std_value
            from advlab.netcore import forward_logits
            ce = float(ce_rows_value(forward_logits(m, frozen), b.labels).mean())
            return ce + lam * certainty_value(m, frozen)

        fd = finite_diff_param_grad(loss, model.params)
        denom = max(np.abs(fd.flatten()).max(), 1e-6)
        assert np.abs(step.flatten() - fd.flatten()).max() / denom < 1e-4

    def test_certainty_descent_probe_decreases(self, rng):
        train, test = tiny_data()
        cfg = tiny_config(epochs=3)
        last, _, _ = train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        b = Batch(train.inputs[:32], train.labels[:32])
        eta, ac0, ac1 = certainty_descent_probe(last.model, b, cfg.train_attack,
                                                eta0=0.1, max_halvings=20)
        assert eta is not None
        assert ac1 < ac0

    def test_frozen_descent_property(self, rng):
        # with the attack batch frozen, a small step along -grad lowers the value
        model, _ = self.model_opt()
        batch = self.batch(rng)
        from advlab.attack import generate_batch

        adv = generate_batch(model, batch, tiny_config().train_attack)
        frozen = adv.perturbed.copy()
        g, ac0 = grad_certainty_frozen(model, frozen)
        assert ac0 == certainty_value(model, frozen)
        eta = 0.1
        for _ in range(21):
            m2 = ModelState(model.spec, model.params - g * eta)
            if certainty_value(m2, frozen) < ac0:
                break
            eta /= 2
        else:
            pytest.fail("no descent found within 20 halvings")


class TestTrainRun:
    def test_single_epoch_history(self):
        train, test = tiny_data()
        cfg = tiny_config(epochs=1)
        last, best, hist = train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        assert len(hist) == 1
        assert last.epoch == 0
        assert best.model.params.equals(last.model.params)

    def test_deterministic_histories(self):
        train, test = tiny_data()
        cfg = tiny_config(epochs=2, method="edac", edac_eta=0.02)
        spec = ModelSpec(4, (8, 3), "relu", 0)
        r1 = train_run(cfg, (train, test), spec)
        r2 = train_run(cfg, (train, test), spec)
        assert r1[0].model.params.equals(r2[0].model.params)
        assert [m.robust_acc_test for m in r1[2]] == [m.robust_acc_test for m in r2[2]]

    def test_methods_reduce_bitwise_over_epochs(self):
        train, test = tiny_data()
        spec = ModelSpec(4, (8, 3), "relu", 0)
        at = train_run(tiny_config(epochs=3, method="at"), (train, test), spec)
        ed = train_run(tiny_config(epochs=3, method="edac", edac_eta=0.0),
                       (train, test), spec)
        rg = train_run(tiny_config(epochs=3, method="edac_reg", edac_reg_lambda=0.0),
                       (train, test), spec)
        assert at[0].model.params.equals(ed[0].model.params)
        assert at[0].model.params.equals(rg[0].model.params)
        assert [m.ac_train for m in at[2]] == [m.ac_train for m in ed[2]]
        assert [m.ac_train for m in at[2]] == [m.ac_train for m in rg[2]]

    def test_best_tracks_max_robust_test(self):
        train, test = tiny_data()
        cfg = tiny_config(epochs=3)
        last, best, hist = train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        robust = [m.robust_acc_test for m in hist]
        assert best.metrics_row.robust_acc_test == max(robust)
        assert best.epoch == int(np.argmax(robust))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_abort_carries_last_checkpoint(self):
        train, test = tiny_data()
        cfg = tiny_config(epochs=4, lr=1e250)  # guaranteed numeric blowup
        with pytest.raises(TrainingAborted) as err:
            train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        assert err.value.checkpoint is None  # fails during the first epoch

    def test_random_start_attacks_are_reproducible(self):
        train, test = tiny_data()
        atk = AttackConfig(norm="linf", epsilon=0.2, step_size=0.05, steps=3,
                           random_start=True)
        cfg = tiny_config(epochs=2, train_attack=atk, eval_attack=atk)
        spec = ModelSpec(4, (8, 3), "relu", 0)
        r1 = train_run(cfg, (train, test), spec)
        r2 = train_run(cfg, (train, test), spec)
        assert r1[0].model.params.equals(r2[0].model.params)


class TestCheckpointIO:
    def roundtrip(self, tmp_path, ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return load_checkpoint(path)

    def test_roundtrip_exact(self, tmp_path):
        train, test = tiny_data()
        cfg = tiny_config(epochs=2)
        last, _, _ = train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        again = self.roundtrip(tmp_path, last)
        assert again.model.spec == last.model.spec
        assert again.model.params.equals(last.model.params)
        assert again.optimizer_momentum.equals(last.optimizer_momentum)
        assert again.epoch == last.epoch
        assert again.rng_state == last.rng_state

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        train, test = tiny_data()
        spec = ModelSpec(4, (8, 3), "relu", 0)
        full_cfg = tiny_config(epochs=4)
        full_last, _, full_hist = train_run(full_cfg, (train, test), spec)

        half_last, _, _ = train_run(tiny_config(epochs=2), (train, test), spec)
        reloaded = self.roundtrip(tmp_path, half_last)
        resumed_last, _, resumed_hist = train_run(full_cfg, (train, test), spec,
                                                  resume_from=reloaded)
        assert resumed_last.model.params.equals(full_last.model.params)
        assert [m.robust_acc_test for m in resumed_hist] == \
            [m.robust_acc_test for m in full_hist[2:]]

    @pytest.mark.parametrize("rng_state", [{"next_epoch": 2}, {"base_seed": 1, "next_epoch": 2}])
    def test_resume_requires_the_same_seed(self, rng_state):
        train, test = tiny_data()
        spec = ModelSpec(4, (8, 3), "relu", 0)
        half_last, _, _ = train_run(tiny_config(epochs=2), (train, test), spec)
        other = Checkpoint(half_last.model, half_last.epoch, half_last.optimizer_momentum,
                           rng_state, half_last.metrics_row)
        with pytest.raises(CheckpointError, match="base_seed"):
            train_run(tiny_config(epochs=4), (train, test), spec, resume_from=other)

    def test_corrupt_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        train, test = tiny_data()
        cfg = tiny_config(epochs=1)
        last, _, _ = train_run(cfg, (train, test), ModelSpec(4, (8, 3), "relu", 0))
        p = tmp_path / "model.ckpt"
        save_checkpoint(last, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_epoch_batches_deterministic(self):
        train, _ = tiny_data()
        cfg = tiny_config()
        a = epoch_batches(train, cfg, 1)
        b = epoch_batches(train, cfg, 1)
        assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))

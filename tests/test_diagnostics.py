import os
import time
from dataclasses import replace

import numpy as np
import pytest

from advlab import diagnostics
from advlab.attack import AttackConfig, generate_batch
from advlab.autodiff import row_std_value
from advlab.data import Dataset, default_benchmark, make_gaussian_mixture, slices
from advlab.diagnostics import (
    Heatmap,
    MetricsRecord,
    attacked_stats,
    certainty_gap,
    clean_accuracy,
    compute_heatmap,
    dataset_certainty,
    label_level_variance,
    overfitting_gap,
    robust_accuracy,
    split_metrics,
    stepsize_sweep,
)
from advlab import workers
from advlab.errors import CheckpointError, NumericError, ShapeError
from advlab.netcore import ModelSpec, forward_logits, init_model
from advlab.objective import ObjectiveKind
from advlab.train import Checkpoint, TrainConfig, train_run
from conftest import model_from_arrays


def pgd_cfg(eps, steps=5):
    return AttackConfig(norm="linf", epsilon=eps,
                        step_size=eps / 2.5 if eps else 0.1, steps=steps if eps else 0)


def record(epoch, robust_test, **kw):
    base = dict(epoch=epoch, method="at", lr=0.1, clean_acc_train=0.9,
                clean_acc_test=0.9, robust_acc_train=0.5, robust_acc_test=robust_test,
                ac_train=1.0, ac_test=1.0)
    base.update(kw)
    return MetricsRecord(**base)


def constant_class0_model(dim, k):
    w = np.zeros((dim, k))
    b = np.zeros(k)
    b[0] = 1.0
    return model_from_arrays(dim, [(w, b)])


class TestMetricsRecord:
    def test_range_validation(self):
        with pytest.raises(NumericError):
            record(0, 1.5)
        with pytest.raises(NumericError):
            record(0, 0.5, ac_train=-0.1)
        with pytest.raises(NumericError):
            record(0, 0.5, ac_test=float("nan"))

    def test_dict_roundtrip_zeroes_wall_time(self):
        r = record(3, 0.5, wall_time_s=12.5)
        d = r.to_dict()
        assert d["wall_time_s"] == 0.0
        r2 = MetricsRecord.from_dict(d)
        assert r2.robust_acc_test == r.robust_acc_test
        assert r2.wall_time_s == 0.0


class TestRobustAccuracy:
    def test_epsilon_zero_equals_clean(self, rng):
        model = init_model(ModelSpec(4, (8, 3), "relu", 0))
        ds = make_gaussian_mixture(3, 4, 30, 3.0, 0.8, seed=2)
        assert robust_accuracy(model, ds, pgd_cfg(0.0)) == clean_accuracy(model, ds)

    def test_constant_classifier_scores_class_share(self):
        ds = make_gaussian_mixture(4, 3, 25, 2.0, 0.5, seed=1)
        model = constant_class0_model(3, 4)
        assert robust_accuracy(model, ds, pgd_cfg(0.5)) == pytest.approx(0.25)

    def test_monotone_in_epsilon(self):
        ds = make_gaussian_mixture(3, 4, 40, 3.0, 0.8, seed=3)
        train = make_gaussian_mixture(3, 4, 40, 3.0, 0.8, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=32, lr=0.05,
                          train_attack=pgd_cfg(0.2), eval_attack=pgd_cfg(0.2), seed=0)
        last, _, _ = train_run(cfg, (train, ds), ModelSpec(4, (16, 3), "relu", 0))
        accs = [robust_accuracy(last.model, ds, pgd_cfg(eps)) for eps in (0.1, 0.2, 0.4)]
        assert accs[0] >= accs[1] >= accs[2]

    def test_split_metrics_consistent_with_parts(self, rng):
        model = init_model(ModelSpec(4, (8, 3), "relu", 0))
        ds = make_gaussian_mixture(3, 4, 30, 3.0, 0.8, seed=2)
        cfg = pgd_cfg(0.2)
        clean, robust, ac = split_metrics(model, ds, cfg)
        assert clean == clean_accuracy(model, ds)
        assert robust == robust_accuracy(model, ds, cfg)
        assert ac == pytest.approx(dataset_certainty(model, ds, cfg), abs=1e-12)


class TestHeatmap:
    def test_rows_sum_to_one(self):
        hm = Heatmap(np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([4, 4]))
        assert hm.empty_classes == ()

    def test_invalid_row_sum_rejected(self):
        with pytest.raises(NumericError):
            Heatmap(np.array([[0.5, 0.4], [0.0, 1.0]]), np.array([4, 4]))

    def test_constant_classifier_concentrates_column(self):
        ds = make_gaussian_mixture(3, 4, 10, 2.0, 0.5, seed=1)
        model = constant_class0_model(4, 3)
        hm = compute_heatmap(model, ds, pgd_cfg(0.3))
        assert np.allclose(hm.matrix[:, 0], 1.0)
        assert np.allclose(hm.matrix[:, 1:], 0.0)

    def test_perfectly_robust_classifier_gives_identity(self):
        # hugely separated classes, tiny epsilon: nearest-mean logits win
        ds = make_gaussian_mixture(3, 4, 10, 50.0, 0.01, seed=1)
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(3)])
        w = means.T
        b = -0.5 * (means ** 2).sum(axis=1)
        model = model_from_arrays(4, [(w, b)])
        hm = compute_heatmap(model, ds, pgd_cfg(0.05))
        assert np.allclose(hm.matrix, np.eye(3))

    def test_hand_counted_case(self):
        # predictions under a sign model: logits (-x, x), tie at 0 -> class 0
        model = model_from_arrays(1, [(np.array([[-1.0, 1.0]]), np.zeros(2))])
        ds = Dataset(np.array([[-1.0], [1.0], [-1.0], [1.0], [1.0], [1.0]]),
                     np.array([0, 0, 0, 1, 1, 1]), 2)
        hm = compute_heatmap(model, ds, pgd_cfg(0.0))
        assert np.allclose(hm.matrix, [[2 / 3, 1 / 3], [0.0, 1.0]])
        assert np.array_equal(hm.counts, [3, 3])

    def test_empty_class_flagged(self):
        model = constant_class0_model(2, 3)
        ds = Dataset(np.zeros((2, 2)), np.array([0, 2]), 3)
        hm = compute_heatmap(model, ds, pgd_cfg(0.0))
        assert hm.empty_classes == (1,)
        assert np.all(hm.matrix[1] == 0.0)


class TestLabelLevelVariance:
    def test_uniform_row_zero(self):
        hm = Heatmap(np.full((4, 4), 0.25), np.full(4, 10))
        assert np.allclose(label_level_variance(hm), 0.0)

    def test_one_hot_two_classes(self):
        hm = Heatmap(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([5, 5]))
        assert np.allclose(label_level_variance(hm), 0.5)

    def test_one_hot_ten_classes(self):
        m = np.eye(10)
        hm = Heatmap(m, np.full(10, 3))
        assert np.allclose(label_level_variance(hm), 0.3)

    def test_closed_form_for_one_hot(self):
        for k in (2, 3, 5, 10):
            m = np.zeros((k, k))
            m[:, 0] = 1.0
            hm = Heatmap(m, np.full(k, 2))
            want = np.sqrt(((1 - 1 / k) ** 2 + (k - 1) / k ** 2) / k)
            assert label_level_variance(hm)[0] == pytest.approx(want, rel=1e-12)

    def test_diag_dominant_exceeds_uniform(self):
        k = 4
        diag = Heatmap(np.eye(k) * 0.6 + np.full((k, k), 0.1), np.full(k, 10))
        uniform = Heatmap(np.full((k, k), 0.25), np.full(k, 10))
        assert label_level_variance(diag).mean() > label_level_variance(uniform).mean()


class TestGaps:
    def test_single_epoch_gap_zero(self):
        best, last, gap = overfitting_gap([record(0, 0.5)])
        assert gap == 0.0

    def test_monotone_history_gap_zero(self):
        hist = [record(i, 0.4 + 0.05 * i) for i in range(4)]
        assert overfitting_gap(hist)[2] == 0.0

    def test_hand_history(self):
        hist = [record(0, 0.4), record(1, 0.5), record(2, 0.45)]
        best, last, gap = overfitting_gap(hist)
        assert (best, last) == (0.5, 0.45)
        assert gap == pytest.approx(0.05)

    def test_certainty_gap_zero_for_same_model(self):
        model = init_model(ModelSpec(4, (8, 3), "relu", 0))
        ds = make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=2)
        ck = Checkpoint(model, 0, model.params.zeros_like(), {}, record(0, 0.5))
        assert certainty_gap(ck, ck, ds, pgd_cfg(0.2)) == 0.0

    @pytest.mark.parametrize("rng", [0, np.random.default_rng(0)])
    def test_certainty_gap_zero_for_same_model_with_random_start(self, rng):
        model = init_model(ModelSpec(4, (8, 3), "relu", 0))
        ds = make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=2)
        ck = Checkpoint(model, 0, model.params.zeros_like(), {}, record(0, 0.5))
        atk = AttackConfig(norm="linf", epsilon=0.2, step_size=0.08, steps=5,
                           random_start=True)
        assert certainty_gap(ck, ck, ds, atk, rng) == 0.0

    def test_certainty_gap_positive_for_constant_best(self):
        ds = make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=2)
        const = model_from_arrays(4, [(np.zeros((4, 8)), np.zeros(8)),
                                      (np.zeros((8, 3)), np.zeros(3))])
        confident = init_model(ModelSpec(4, (8, 3), "relu", 0))
        best = Checkpoint(const, 0, const.params.zeros_like(), {}, record(0, 0.5))
        last = Checkpoint(confident, 1, confident.params.zeros_like(), {}, record(1, 0.4))
        gap = certainty_gap(best, last, ds, pgd_cfg(0.2))
        assert gap == pytest.approx(dataset_certainty(confident, ds, pgd_cfg(0.2)))
        assert gap >= 0.0

    def test_certainty_gap_spec_mismatch(self):
        ds = make_gaussian_mixture(3, 4, 10, 3.0, 0.8, seed=2)
        a = init_model(ModelSpec(4, (8, 3), "relu", 0))
        b = init_model(ModelSpec(4, (6, 3), "relu", 0))
        ck_a = Checkpoint(a, 0, a.params.zeros_like(), {}, record(0, 0.5))
        ck_b = Checkpoint(b, 0, b.params.zeros_like(), {}, record(0, 0.5))
        with pytest.raises(CheckpointError):
            certainty_gap(ck_a, ck_b, ds, pgd_cfg(0.2))


class TestStepsizeSweep:
    def make_run(self):
        train = make_gaussian_mixture(3, 4, 40, 3.0, 0.8, seed=11)
        test = make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=12)
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.05,
                          train_attack=pgd_cfg(0.2), eval_attack=pgd_cfg(0.2), seed=0)
        last, _, _ = train_run(cfg, (train, test), ModelSpec(4, (16, 3), "relu", 0))
        return last, (train, test), cfg

    def test_eta_zero_row_matches_plain_continuation(self):
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [0.0], cfg)
        _, _, history = train_run(replace(cfg, epochs=3), data, ModelSpec(4, (16, 3), "relu", 0))
        assert (rows[0].ac_train, rows[0].robust_acc_test) == \
            (history[-1].ac_train, history[-1].robust_acc_test)

    def test_certainty_column_decreases(self):
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [0.0, 0.05, 0.2], cfg)
        acs = [r.ac_train for r in rows]
        assert acs[0] > acs[1] > acs[2]

    def test_all_rows_marked_ok_on_stable_run(self):
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [0.0, 0.1], cfg)
        assert all(r.ok for r in rows)

    @pytest.fixture
    def epochs_run(self, monkeypatch):
        """Record (edac_eta, capped on every batch) of every epoch the sweep
        trains, from the history row of each ``train_run`` call.

        The sweep runs on one worker here, in-process, where the spy sees each
        call; a forked row's calls happen in its child. Two workers return the
        same rows and labels (``test_same_rows_at_one_and_two_workers``)."""
        from advlab import train as train_mod

        monkeypatch.setattr(workers, "cpu_count", lambda: 1)
        calls = []
        original = train_mod.train_run

        def spy(config, data, model, resume_from=None):
            out = original(config, data, model, resume_from=resume_from)
            (row,) = out[2]
            calls.append((config.edac_eta,
                          row.capped_batches == train_mod.batches_per_epoch(data[0], config)))
            return out

        monkeypatch.setattr(train_mod, "train_run", spy)
        return calls

    def test_capped_row_reused_bitwise(self, epochs_run):
        # at 1e3 the Polyak cap cuts every half step, so 2e3 takes the same steps
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [1e3, 2e3], cfg)
        assert epochs_run == [(1e3, True)]
        alone = stepsize_sweep(last, data, [2e3], cfg)[0]
        assert [r.eta for r in rows] == [1e3, 2e3]
        assert (rows[0].same_as, rows[1].same_as) == (None, 1e3)
        assert rows[1].ok and alone.same_as is None
        assert rows[1].ac_train == alone.ac_train
        assert rows[1].robust_acc_test == alone.robust_acc_test

    def test_uncapped_and_eta_zero_rows_never_reused(self, epochs_run):
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [0.0, 0.05, 0.1, 1e3], cfg)
        assert epochs_run == [(0.0, False), (0.05, False), (0.1, False), (1e3, True)]
        assert all(r.same_as is None for r in rows)

    def test_smaller_eta_after_capped_row_is_computed(self, epochs_run):
        last, data, cfg = self.make_run()
        rows = stepsize_sweep(last, data, [2e3, 0.05, 1e3, 3e3], cfg)
        assert [eta for eta, _ in epochs_run] == [2e3, 0.05, 1e3]
        assert [r.eta for r in rows] == [2e3, 0.05, 1e3, 3e3]
        assert [r.same_as for r in rows] == [None, None, None, 2e3]
        assert rows[2].ac_train == rows[0].ac_train

    @pytest.mark.parametrize("etas", [[2e3, 0.05, 1e3, 3e3],
                                      [float(f"{0.1 * i:.1f}") for i in range(21)]])
    def test_same_rows_at_one_and_two_workers(self, monkeypatch, etas):
        if workers.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be pinned here")
        last, data, cfg = self.make_run()
        sweeps = []
        for n in (1, 2):
            monkeypatch.setattr(workers, "cpu_count", lambda: n)
            sweeps.append(stepsize_sweep(last, data, etas, cfg))
        assert all(r.ok for r in sweeps[0])
        assert any(r.same_as is not None for r in sweeps[0])  # copied rows
        assert sweeps[0] == sweeps[1]


class TestSweepRowIsTrainRun:
    """A computed sweep row is the history row of ``train_run`` resumed from
    the checkpoint for one epoch, bit for bit, at any worker count."""

    ETAS = [0.0, 0.05, 0.2, 1e3, 2e3]  # 2e3 is copied from the capped 1e3 row

    def config(self, variant):
        atk = pgd_cfg(0.2)
        base = dict(epochs=2, batch_size=32, lr=0.05, train_attack=atk, eval_attack=atk,
                    seed=4, method="edac", edac_eta=0.05)
        if variant == "edac_reg_trades":
            base.update(method="edac_reg", objective=ObjectiveKind("trades", trades_beta=2.0))
        if variant == "random_start":
            base.update(eval_attack=replace(atk, random_start=True))
        return TrainConfig(**base)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("variant", ["edac", "edac_reg_trades", "random_start"])
    def test_computed_rows_equal_resumed_history_rows(self, monkeypatch, variant, n):
        if n > 1 and workers.blas_threads() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be pinned here")
        data = (make_gaussian_mixture(3, 4, 40, 3.0, 0.8, seed=11),
                make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=12))
        spec = ModelSpec(4, (16, 3), "relu", 0)
        cfg = self.config(variant)
        last, _, _ = train_run(cfg, data, spec)
        monkeypatch.setattr(workers, "cpu_count", lambda: n)
        rows = stepsize_sweep(last, data, self.ETAS, cfg)
        assert [r.same_as for r in rows] == [None, None, None, None, 1e3]
        for row in rows[:4]:
            resumed = replace(cfg, method="edac", edac_eta=row.eta, epochs=last.epoch + 2)
            _, _, (want,) = train_run(resumed, data, last.model, resume_from=last)
            assert row.ok
            assert (row.ac_train, row.robust_acc_test) == (want.ac_train, want.robust_acc_test)
        if cfg.method == "edac":
            # the run's own step size continues the run that wrote the checkpoint
            _, _, history = train_run(replace(cfg, epochs=3), data, spec)
            assert (rows[1].ac_train, rows[1].robust_acc_test) == \
                (history[-1].ac_train, history[-1].robust_acc_test)


def sequential_stats(model, dataset, attack_config, rng):
    """The attack pass as one loop over the slices: the reference that
    ``attacked_stats`` must equal bit for bit at any worker count."""
    correct, spread_sum, preds_out = 0, 0.0, []
    for piece in slices(dataset):
        adv = generate_batch(model, piece, attack_config, rng=rng)
        logits = forward_logits(model, adv.perturbed)
        preds = np.argmax(logits, axis=-1)
        correct += int((preds == piece.labels).sum())
        spread_sum += float(row_std_value(logits).sum())
        preds_out.append(preds)
    n = len(dataset)
    return correct / n, spread_sum / n, np.concatenate(preds_out)


SPLIT_ATTACKS = {
    "linf": AttackConfig(norm="linf", epsilon=0.3, step_size=0.1, steps=5),
    "linf_random_start": AttackConfig(norm="linf", epsilon=0.3, step_size=0.1, steps=5,
                                      random_start=True),
    "l2": AttackConfig(norm="l2", epsilon=0.8, step_size=0.3, steps=5),
    "l2_random_start": AttackConfig(norm="l2", epsilon=0.8, step_size=0.3, steps=5,
                                    random_start=True),
    "fgsm": AttackConfig(norm="linf", epsilon=0.3, kind="fgsm"),
    "epsilon_zero": AttackConfig(norm="linf", epsilon=0.0, step_size=1.0, steps=0),
}


def split_datasets():
    train, _ = default_benchmark()
    return {
        "one_slice": train.subset(np.arange(100)),
        "three_slices": train.subset(np.arange(600)),  # 256 + 256 + 88 rows
        "eight_slices": train,  # 2000 rows: seven of 256 and one of 208
    }


class TestSplitAcrossWorkers:
    """Every dataset above 256 rows splits into contiguous runs of slices,
    one per worker; the figures must not depend on the worker count."""

    MODEL = init_model(ModelSpec(16, (32, 4), "relu", 5))
    DATASETS = split_datasets()

    @pytest.fixture
    def worker_count(self, monkeypatch):
        def set_count(n):
            if n > 1 and workers.blas_threads() is None:
                pytest.skip("numpy's OpenBLAS thread count cannot be pinned here")
            monkeypatch.setattr(workers, "cpu_count", lambda: n)
        return set_count

    @pytest.mark.parametrize("data", sorted(DATASETS))
    @pytest.mark.parametrize("attack", sorted(SPLIT_ATTACKS))
    def test_same_bits_at_one_two_and_three_workers(self, worker_count, data, attack):
        ds, atk = self.DATASETS[data], SPLIT_ATTACKS[attack]
        ref_rng = np.random.default_rng(9)
        want = sequential_stats(self.MODEL, ds, atk, ref_rng)
        for n in (1, 2, 3):
            worker_count(n)
            rng = np.random.default_rng(9)
            racc, ac, preds = attacked_stats(self.MODEL, ds, atk, rng)
            assert (racc, ac) == want[:2]
            assert np.array_equal(preds, want[2])
            # the generator is left where the sequential pass leaves it
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            hm = compute_heatmap(self.MODEL, ds, atk, 9)
            worker_count(1)
            assert np.array_equal(hm.matrix, compute_heatmap(self.MODEL, ds, atk, 9).matrix)

    @pytest.mark.parametrize("n", [1, 2])
    def test_epsilon_zero_equals_clean_on_every_slice_count(self, worker_count, n):
        worker_count(n)
        for ds in self.DATASETS.values():
            clean = clean_accuracy(self.MODEL, ds)
            assert robust_accuracy(self.MODEL, ds, SPLIT_ATTACKS["epsilon_zero"]) == clean
            assert clean == float((np.argmax(forward_logits(self.MODEL, ds.inputs), axis=-1)
                                   == ds.labels).mean())

    def test_failure_in_a_workers_run_keeps_its_type(self, worker_count, monkeypatch):
        worker_count(2)
        parent, attack_run = os.getpid(), diagnostics._attack_run

        def failing(model, run, attack_config):
            if os.getpid() != parent:
                raise NumericError("child run blew up")
            return attack_run(model, run, attack_config)

        monkeypatch.setattr(diagnostics, "_attack_run", failing)
        with pytest.raises(NumericError, match="child run blew up"):
            attacked_stats(self.MODEL, self.DATASETS["eight_slices"], SPLIT_ATTACKS["linf"])
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_the_callers_run_reaps_the_worker(self, worker_count, monkeypatch):
        worker_count(2)
        parent = os.getpid()

        def failing(model, run, attack_config):
            if os.getpid() != parent:
                time.sleep(30)
            raise NumericError("caller's run blew up")

        monkeypatch.setattr(diagnostics, "_attack_run", failing)
        t0 = time.perf_counter()
        with pytest.raises(NumericError, match="caller's run blew up"):
            attacked_stats(self.MODEL, self.DATASETS["eight_slices"], SPLIT_ATTACKS["linf"])
        assert time.perf_counter() - t0 < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

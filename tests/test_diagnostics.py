import numpy as np
import pytest

from advlab.attack import AttackConfig
from advlab.data import Dataset, make_gaussian_mixture
from advlab.diagnostics import (
    Heatmap,
    MetricsRecord,
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
from advlab.netcore import ModelSpec, init_model
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
        from advlab.train import continue_one_epoch
        from dataclasses import replace

        rows = stepsize_sweep(last, data, [0.0], cfg)
        continued, capped = continue_one_epoch(last, data[0], replace(cfg, method="at"))
        assert not capped
        want_ac = dataset_certainty(continued, data[0], cfg.eval_attack)
        want_racc = robust_accuracy(continued, data[1], cfg.eval_attack)
        assert rows[0].ac_train == pytest.approx(want_ac, abs=1e-15)
        assert rows[0].robust_acc_test == pytest.approx(want_racc, abs=1e-15)

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
        """Record (edac_eta, capped) of every continuation epoch the sweep runs.

        The sweep runs on one worker here, in-process, where the spy sees each
        call; a forked row's calls happen in its child. Two workers return the
        same rows and labels (``test_same_rows_at_one_and_two_workers``)."""
        from advlab import train as train_mod

        monkeypatch.setattr(workers, "cpu_count", lambda: 1)
        calls = []
        original = train_mod.continue_one_epoch

        def spy(checkpoint, train_set, config):
            model, capped = original(checkpoint, train_set, config)
            calls.append((config.edac_eta, capped))
            return model, capped

        monkeypatch.setattr(train_mod, "continue_one_epoch", spy)
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

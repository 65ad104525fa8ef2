"""Acceptance gate: one test per top-level criterion.

Each test prints a single CRITERION line (run with ``-s`` to see them all in
order). The expensive artifacts, ten 30-epoch training runs and two CLI runs
of the bundled benchmark configs, are session fixtures shared by the
criteria that need them.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advlab import gradcheck
from advlab.attack import AttackConfig, fgsm, generate_batch, perturbation_norm, pgd
from advlab.autodiff import ce_rows_value, row_std_value
from advlab.cli import main
from advlab.config import load_config
from advlab.data import Batch, batches, default_benchmark
from advlab.diagnostics import (
    certainty_gap,
    compute_heatmap,
    label_level_variance,
    overfitting_gap,
)
from advlab.errors import NumericError
from advlab.netcore import ModelSpec, ModelState, forward_logits, init_model
from advlab.objective import var_functional
from advlab.train import (
    certainty_descent_probe,
    load_checkpoint,
    save_checkpoint,
    train_run,
)
from conftest import model_from_arrays

pytestmark = pytest.mark.slow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (0, 1, 2, 3, 4)


def report(num, name, detail):
    print(f"CRITERION {num:02d} PASS [{name}]: {detail}")


@pytest.fixture(scope="session")
def bench_config():
    return load_config(CONFIG_DIR / "benchmark_at.ini")


@pytest.fixture(scope="session")
def bench_data(bench_config):
    return bench_config.build_datasets()


@pytest.fixture(scope="session")
def seeded_runs(bench_config, bench_data):
    """(method, seed) -> (last, best, history) for the 5-seed comparison."""
    t0 = time.perf_counter()
    runs = {}
    for method in ("at", "edac"):
        for seed in SEEDS:
            cfg = replace(bench_config.train, method=method, seed=seed)
            spec = replace(bench_config.model_spec(bench_data[0]), init_seed=seed)
            runs[(method, seed)] = train_run(cfg, bench_data, spec)
    runs["wall_time_s"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def cli_at_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_at")
    code = main(["train", "--config", str(CONFIG_DIR / "benchmark_at.ini"),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="session")
def cli_edac_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_edac")
    code = main(["train", "--config", str(CONFIG_DIR / "benchmark_edac.ini"),
                 "--out", str(out)])
    assert code == 0
    return out


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    results = gradcheck.run_all(cases=100)
    elapsed = time.perf_counter() - t0
    for r in results:
        assert r.max_rel_err < 1e-4, f"{r.name}: {r.max_rel_err:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_rel_err for r in results)
    report(1, "gradient correctness",
           f"{sum(r.cases for r in results)} cases, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_attack_feasibility():
    rng = np.random.default_rng(20240)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(2, 4))
        model = init_model(ModelSpec(n, (int(rng.integers(2, 6)), k), "relu",
                                     int(rng.integers(0, 1 << 16))))
        clamp = (0.0, 1.0) if rng.random() < 0.5 else None
        cfg = AttackConfig(
            norm="linf" if rng.random() < 0.5 else "l2",
            epsilon=float(rng.uniform(0.0, 1.0)),
            step_size=float(rng.uniform(0.01, 0.6)),
            steps=int(rng.integers(0, 6)),
            random_start=bool(rng.random() < 0.5),
            domain_clamp=clamp,
        )
        b = int(rng.integers(1, 3))
        x = rng.uniform(0, 1, (b, n)) if clamp else rng.normal(size=(b, n)) * 2
        y = rng.integers(0, k, b)
        out = pgd(model, x, y, cfg, rng=int(trial))
        assert perturbation_norm(out, x, cfg.norm).max() <= cfg.epsilon + 1e-9
        if clamp is not None:
            assert out.min() >= clamp[0] and out.max() <= clamp[1]
        checked += 1
    # bitwise FGSM / single-step PGD coincidence on fresh cases
    for trial in range(50):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        model = init_model(ModelSpec(n, (4, k), "relu", trial))
        x = rng.normal(size=(3, n))
        y = rng.integers(0, k, 3)
        eps = float(rng.uniform(0.01, 0.5))
        a = fgsm(model, x, y, AttackConfig(norm="linf", epsilon=eps, kind="fgsm"))
        b2 = pgd(model, x, y, AttackConfig(norm="linf", epsilon=eps,
                                           step_size=eps, steps=1))
        assert np.array_equal(a, b2)
    report(2, "attack feasibility",
           f"{checked} randomized invocations in-ball and clamped; FGSM == PGD(1, eps) bitwise")


def test_criterion_03_pgd_monotonicity():
    rng = np.random.default_rng(777)
    cases = 0
    for _ in range(100):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        model = model_from_arrays(n, [(rng.normal(size=(n, k)), rng.normal(size=k))])
        x = rng.normal(size=n)
        y = int(rng.integers(0, k))
        eps = float(rng.uniform(0.05, 0.6))
        alpha = float(rng.uniform(0.01, 0.3))
        steps = int(rng.integers(1, 8))
        losses = []
        for s in range(steps + 1):
            cfg = AttackConfig(norm="linf", epsilon=eps, step_size=alpha, steps=s)
            xs = pgd(model, x, y, cfg)
            losses.append(float(ce_rows_value(forward_logits(model, xs)[None, :],
                                              np.array([y]))[0]))
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:])), losses
        cases += 1
    report(3, "pgd monotonicity", f"{cases} linear-model cases, per-step CE non-decreasing")


def test_criterion_04_reductions(bench_config, bench_data):
    cfg3 = replace(bench_config.train, epochs=3)
    spec = bench_config.model_spec(bench_data[0])
    runs = {}
    for method, eta, lam in (("at", 0.0, 0.0), ("edac", 0.0, 0.5), ("edac_reg", 0.1, 0.0)):
        cfg = replace(cfg3, method=method, edac_eta=eta, edac_reg_lambda=lam)
        runs[method] = train_run(cfg, bench_data, spec)
    at_last = runs["at"][0]
    for other in ("edac", "edac_reg"):
        assert runs[other][0].model.params.equals(at_last.model.params), other
        assert runs[other][0].optimizer_momentum.equals(at_last.optimizer_momentum)
        for ra, rb in zip(runs["at"][2], runs[other][2]):
            # ``method`` is the run's own name in history.csv; every other
            # field must reproduce the at run bitwise
            assert ra.method == "at" and rb.method == other
            da, db = ra.to_dict(), rb.to_dict()
            del da["method"], db["method"]
            assert da == db
    report(4, "reductions",
           "edac(eta=0) and edac_reg(lambda=0) reproduce at bitwise over 3 epochs")


def test_criterion_05_certainty_descent(seeded_runs, bench_config, bench_data):
    last = seeded_runs[("at", 0)][0]
    assert last.epoch + 1 >= 10
    train_set = bench_data[0]
    atk = bench_config.train.train_attack
    sample = (batches(train_set, bench_config.train.batch_size, epoch_seed=999)
              + batches(train_set, bench_config.train.batch_size, epoch_seed=1000))[:50]
    assert len(sample) == 50
    hits = 0
    for b in sample:
        eta, ac0, ac1 = certainty_descent_probe(last.model, b, atk,
                                                eta0=0.1, max_halvings=20)
        hits += eta is not None
    assert hits >= 0.95 * 50, f"descent found on only {hits}/50 batches"
    report(5, "certainty descent", f"half step lowered batch certainty on {hits}/50 batches")


def test_criterion_06_var_ac_algebra():
    rng = np.random.default_rng(5)
    for _ in range(200):
        u = rng.normal(size=int(rng.integers(1, 9))) * 10
        c = float(rng.normal() * 10)
        a = float(rng.normal() * 3)
        assert abs(var_functional(u + c) - var_functional(u)) <= 1e-12
        assert abs(var_functional(a * u) - abs(a) * var_functional(u)) <= 1e-9

    # constant-logit model: zero final layer on top of any features
    model = model_from_arrays(4, [(rng.normal(size=(4, 8)), rng.normal(size=8)),
                                  (np.zeros((8, 3)), np.zeros(3))])
    from advlab.objective import adversarial_certainty

    batch = Batch(rng.normal(size=(16, 4)), rng.integers(0, 3, 16))
    atk = AttackConfig(norm="linf", epsilon=0.2, step_size=0.05, steps=5)
    assert adversarial_certainty(model, batch, atk).mean == 0.0

    trained = init_model(ModelSpec(4, (8, 3), "relu", 3))
    ds_inputs = rng.normal(size=(60, 4))
    ds_labels = rng.integers(0, 3, 60)
    from advlab.data import Dataset

    hm = compute_heatmap(trained, Dataset(ds_inputs, ds_labels, 3), atk)
    sums = hm.matrix[hm.counts > 0].sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    report(6, "var/ac algebra",
           "shift invariance, homogeneity, zero certainty at constant logits, unit heatmap rows")


def test_criterion_07_directional_experiment(seeded_runs):
    at_last, at_gap = [], []
    ed_last, ed_gap = [], []
    for seed in SEEDS:
        _, _, hist_at = seeded_runs[("at", seed)]
        _, _, hist_ed = seeded_runs[("edac", seed)]
        b, l, g = overfitting_gap(hist_at)
        at_last.append(l)
        at_gap.append(g)
        b, l, g = overfitting_gap(hist_ed)
        ed_last.append(l)
        ed_gap.append(g)
    med = lambda v: float(np.median(v))
    wall = seeded_runs["wall_time_s"]
    assert wall < 900.0, f"ten benchmark runs took {wall:.0f}s"
    assert med(ed_last) >= med(at_last), (
        f"median last robust acc: edac {med(ed_last):.4f} < at {med(at_last):.4f}"
    )
    assert med(ed_gap) <= med(at_gap), (
        f"median overfitting gap: edac {med(ed_gap):.4f} > at {med(at_gap):.4f}"
    )
    report(7, "directional experiment",
           f"medians over {len(SEEDS)} seeds: last robust acc edac {med(ed_last):.4f} vs "
           f"at {med(at_last):.4f}; gap edac {med(ed_gap):.4f} vs at {med(at_gap):.4f}; "
           f"runtime {wall:.0f}s")


def test_criterion_08_heatmap_direction(seeded_runs, bench_config, bench_data):
    for seed in SEEDS:
        last, best, hist = seeded_runs[("at", seed)]
        if overfitting_gap(hist)[2] > 0:
            break
    else:
        pytest.fail("no AT run with a positive overfitting gap")
    train_set = bench_data[0]
    atk = bench_config.train.eval_attack
    v_best = label_level_variance(compute_heatmap(best.model, train_set, atk)).mean()
    v_last = label_level_variance(compute_heatmap(last.model, train_set, atk)).mean()
    cg = certainty_gap(best, last, train_set, atk)
    assert v_last > v_best, f"label-level variance: last {v_last:.4f} <= best {v_best:.4f}"
    assert cg > 0, f"certainty gap {cg:.4f} not positive"
    report(8, "heatmap/variance direction",
           f"seed {seed}: label variance last {v_last:.4f} > best {v_best:.4f}; "
           f"certainty gap {cg:.4f} > 0")


def test_criterion_09_sweep_shape(cli_at_run, tmp_path):
    etas = ",".join(f"{0.1 * i:.1f}" for i in range(21))
    code = main(["sweep", "--config", str(CONFIG_DIR / "benchmark_at.ini"),
                 "--checkpoint", str(cli_at_run / "best.ckpt"),
                 "--etas", etas, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 21
    rows = [line.split(",") for line in lines]
    assert all(r[3] == "true" for r in rows), "sweep rows failed"
    ac = [float(r[1]) for r in rows]
    racc = [float(r[2]) for r in rows]
    inversions = sum(1 for a, b in zip(ac, ac[1:]) if b > a + 1e-12)
    assert inversions <= 1, f"certainty column has {inversions} inversions: {ac}"
    imax = int(np.argmax(racc))
    assert 0 < imax < 20, f"robust accuracy max at grid edge (index {imax}): {racc}"
    report(9, "sweep shape",
           f"certainty non-increasing ({inversions} inversion(s)); robust accuracy peaks "
           f"interior at eta={0.1 * imax:.1f} ({racc[imax]:.4f} vs {racc[0]:.4f} at 0)")


def test_criterion_10_determinism_persistence(bench_config, bench_data, tmp_path):
    spec = bench_config.model_spec(bench_data[0])
    cfg = replace(bench_config.train, epochs=6)
    run1 = train_run(cfg, bench_data, spec)
    run2 = train_run(cfg, bench_data, spec)
    assert run1[0].model.params.equals(run2[0].model.params)
    assert [r.to_dict() for r in run1[2]] == [r.to_dict() for r in run2[2]]

    half, _, _ = train_run(replace(cfg, epochs=3), bench_data, spec)
    p = tmp_path / "half.ckpt"
    save_checkpoint(half, p)
    resumed = train_run(cfg, bench_data, spec, resume_from=load_checkpoint(p))
    assert resumed[0].model.params.equals(run1[0].model.params)
    assert resumed[0].optimizer_momentum.equals(run1[0].optimizer_momentum)
    assert [r.to_dict() for r in resumed[2]] == [r.to_dict() for r in run1[2][3:]]
    report(10, "determinism & persistence",
           "seeded reruns identical; save/load/resume reproduces the run bitwise")

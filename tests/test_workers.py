"""Forked workers: same results as in-process calls, the error contract on
every path, no child left behind, BLAS pinned only while children may run,
and no thread started or ended in the parent."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advlab import train as train_mod
from advlab import workers
from advlab.attack import AttackConfig
from advlab.data import make_gaussian_mixture
from advlab.diagnostics import attacked_stats
from advlab.errors import NumericError, ShapeError, TrainingAborted
from advlab.netcore import ModelSpec, init_model
from advlab.train import TrainConfig, stepsize_sweep, train_run

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="reads the process's threads and children from /proc")

SRC = Path(__file__).resolve().parent.parent / "src"


def children():
    """PIDs of this process's child processes, over all of its threads."""
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as f:
                pids += f.read().split()
        except FileNotFoundError:  # a thread that ended since the listing
            pass
    return pids


@pytest.fixture
def blas_count(worker_count):
    """Two workers and two BLAS threads; yields the BLAS thread count's
    getter and restores the count the process had."""
    worker_count(2)
    get, set_ = workers.blas_threads()
    original = get()
    set_(2)
    yield get
    set_(original)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert children() == []


def data():
    return (make_gaussian_mixture(3, 4, 40, 3.0, 0.8, seed=11),
            make_gaussian_mixture(3, 4, 20, 3.0, 0.8, seed=12))


ATTACK = AttackConfig(norm="linf", epsilon=0.2, step_size=0.08, steps=5)


def config(**kw):
    base = dict(epochs=3, batch_size=32, lr=0.05, train_attack=ATTACK, eval_attack=ATTACK,
                seed=0, method="edac", edac_eta=0.05)
    base.update(kw)
    return TrainConfig(**base)


SPEC = ModelSpec(4, (16, 3), "relu", 0)


def double(x):
    return 2 * x


def fail_with(exc):
    raise exc


def forks_made_by(fn, *args):
    """How many times ``fn(*args)`` calls ``os.fork``."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    os.fork = counted
    try:
        fn(*args)
    finally:
        os.fork = fork
    return len(forks)


class Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(a)


class TestWorkers:
    def test_one_cpu_calls_in_process(self, worker_count, monkeypatch):
        worker_count(1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        with workers.Workers() as w:
            assert w.count == 1
            assert w.start(double, 21).result() == 42

    def test_forked_call_returns_its_value(self, worker_count):
        worker_count(2)
        with workers.Workers() as w:
            assert w.count == 2
            calls = [w.start(double, k) for k in range(2)]
            assert len(children()) == 2
            assert [c.result() for c in calls] == [0, 2]
            assert children() == []

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("exc", [ShapeError("bad shape"), KeyError("k"),
                                     FloatingPointError("fp")])
    def test_exception_keeps_its_type(self, worker_count, n, exc):
        worker_count(n)
        with workers.Workers() as w:
            call = w.start(fail_with, exc)
            with pytest.raises(type(exc)) as err:
                call.result()
        assert str(err.value) == str(exc)

    def test_unpicklable_exception_becomes_runtime_error(self, worker_count):
        worker_count(2)
        with workers.Workers() as w:
            call = w.start(fail_with, Unpicklable("lost", 1))
            with pytest.raises(RuntimeError, match="Unpicklable: lost"):
                call.result()

    def test_cancel_kills_and_reaps(self, worker_count):
        worker_count(2)
        with workers.Workers() as w:
            call = w.start(time.sleep, 30)
            t0 = time.perf_counter()
            call.cancel()
            assert children() == []
            assert time.perf_counter() - t0 < 5

    def test_exit_reaps_on_keyboard_interrupt(self, worker_count):
        worker_count(2)
        with pytest.raises(KeyboardInterrupt):
            with workers.Workers() as w:
                w.start(time.sleep, 30)
                w.start(time.sleep, 30)
                raise KeyboardInterrupt
        assert children() == []

    def test_a_worker_never_forks(self, worker_count):
        worker_count(2)
        big = make_gaussian_mixture(3, 4, 200, 3.0, 0.8, seed=13)  # 600 rows, 3 slices
        model = init_model(SPEC)
        assert forks_made_by(attacked_stats, model, big, ATTACK) == 1
        with workers.Workers() as w:
            calls = [w.start(forks_made_by, attacked_stats, model, big, ATTACK),
                     w.start(forks_made_by, train_run, config(epochs=2), data(), SPEC)]
            assert [c.result() for c in calls] == [0, 0]

    @pytest.mark.parametrize("atk", [
        AttackConfig(norm="linf", epsilon=0.0, steps=0),
        AttackConfig(norm="l2", epsilon=0.5, steps=0, random_start=True),
    ], ids=["clean", "random_start"])
    def test_a_pass_without_gradient_steps_never_forks(self, worker_count, atk):
        # one forward per slice costs less than a fork
        big = make_gaussian_mixture(3, 4, 200, 3.0, 0.8, seed=13)  # 600 rows, 3 slices
        model = init_model(SPEC)
        outcomes = []
        for n in (1, 2):
            worker_count(n)
            rng = np.random.default_rng(4)
            assert forks_made_by(
                lambda: outcomes.append((*attacked_stats(model, big, atk, rng),
                                         rng.bit_generator.state))) == 0
        (racc1, ac1, preds1, state1), (racc2, ac2, preds2, state2) = outcomes
        assert (racc1, ac1, state1) == (racc2, ac2, state2)
        assert np.array_equal(preds1, preds2)
        # a gradient step still splits the pass
        assert forks_made_by(attacked_stats, model, big, replace(atk, steps=1, step_size=0.1),
                             np.random.default_rng(4)) == 1

    def test_blas_pinned_inside_and_restored(self, blas_count):
        with workers.Workers():
            assert blas_count() == 1
        assert blas_count() == 2


class TestTrainRun:
    @pytest.mark.parametrize("method", ["at", "edac"])
    def test_same_bits_at_one_and_two_workers(self, worker_count, method):
        runs = []
        for n in (1, 2):
            worker_count(n)
            runs.append(train_run(config(method=method), data(), SPEC))
        (last1, best1, hist1), (last2, best2, hist2) = runs
        assert last1.model.params.equals(last2.model.params)
        assert last1.optimizer_momentum.equals(last2.optimizer_momentum)
        assert best1.epoch == best2.epoch
        assert [r.to_dict() for r in hist1] == [r.to_dict() for r in hist2]

    def test_blas_thread_count_unchanged(self, blas_count):
        train_run(config(epochs=2), data(), SPEC)
        assert blas_count() == 2

    @pytest.mark.parametrize("next_epoch_fails", [False, True])
    def test_failed_evaluation_aborts_as_in_sequence(self, worker_count, monkeypatch,
                                                     next_epoch_fails):
        evaluate, update = train_mod.evaluate_epoch, train_mod.apply_update

        def failing_evaluate(model, data, cfg, epoch, *timing):
            if epoch == 1:
                raise NumericError("evaluation blew up")
            return evaluate(model, data, cfg, epoch, *timing)

        def failing_update(model, batch, cfg, opt_state):
            if next_epoch_fails and opt_state.epoch == 2:
                raise FloatingPointError("update blew up")
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "evaluate_epoch", failing_evaluate)
        monkeypatch.setattr(train_mod, "apply_update", failing_update)
        errors = []
        for n in (1, 2):
            worker_count(n)
            with pytest.raises(TrainingAborted) as err:
                train_run(config(epochs=4), data(), SPEC)
            errors.append(err.value)
        for e in errors:
            assert str(e) == "training failed during epoch 1: evaluation blew up"
            assert e.checkpoint.epoch == 0
        assert errors[0].checkpoint.model.params.equals(errors[1].checkpoint.model.params)
        assert errors[0].checkpoint.metrics_row.to_dict() == \
            errors[1].checkpoint.metrics_row.to_dict()

    def test_failed_update_after_good_evaluation_keeps_that_checkpoint(self, worker_count,
                                                                      monkeypatch):
        update = train_mod.apply_update

        def failing_update(model, batch, cfg, opt_state):
            if opt_state.epoch == 2:
                raise NumericError("update blew up")
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", failing_update)
        worker_count(2)
        with pytest.raises(TrainingAborted, match="during epoch 2") as err:
            train_run(config(epochs=4), data(), SPEC)
        assert err.value.checkpoint.epoch == 1

    def test_other_evaluation_error_keeps_its_type(self, worker_count, monkeypatch):
        def broken(*args):
            raise KeyError("not a numeric failure")

        monkeypatch.setattr(train_mod, "evaluate_epoch", broken)
        worker_count(2)
        with pytest.raises(KeyError, match="not a numeric failure"):
            train_run(config(epochs=3), data(), SPEC)

    def test_keyboard_interrupt_reaps_the_evaluation(self, blas_count, monkeypatch):
        update = train_mod.apply_update

        def interrupted(model, batch, cfg, opt_state):
            if opt_state.epoch == 1:
                assert len(children()) == 1  # epoch 0's evaluation is running
                raise KeyboardInterrupt
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train_run(config(epochs=3), data(), SPEC)
        assert blas_count() == 2


class TestSweep:
    def checkpoint(self):
        last, _, _ = train_run(config(epochs=2, method="at"), data(), SPEC)
        return last

    def test_blas_thread_count_unchanged(self, blas_count):
        ckpt = self.checkpoint()
        stepsize_sweep(ckpt, data(), [0.0, 0.05, 1e3, 2e3], config())
        assert blas_count() == 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("exc", [NumericError, FloatingPointError, OverflowError])
    def test_numeric_failure_in_a_row_marks_it_failed(self, worker_count, monkeypatch, n,
                                                      exc):
        ckpt = self.checkpoint()
        update = train_mod.apply_update

        def failing(model, batch, cfg, opt_state):
            if cfg.edac_eta == 0.05:
                raise exc("blew up")
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", failing)
        worker_count(n)
        rows = stepsize_sweep(ckpt, data(), [0.0, 0.05, 0.1], config())
        assert [r.ok for r in rows] == [True, False, True]
        assert np.isnan(rows[1].ac_train) and np.isnan(rows[1].robust_acc_test)

    @pytest.mark.parametrize("n", [1, 2])
    def test_numeric_failure_in_a_rows_evaluation_marks_it_failed(self, worker_count,
                                                                  monkeypatch, n):
        ckpt = self.checkpoint()
        evaluate = train_mod.evaluate_epoch

        def failing(model, data, cfg, *rest):
            if cfg.edac_eta == 0.05:
                raise NumericError("certainty blew up")
            return evaluate(model, data, cfg, *rest)

        monkeypatch.setattr(train_mod, "evaluate_epoch", failing)
        worker_count(n)
        rows = stepsize_sweep(ckpt, data(), [0.0, 0.05, 0.1], config())
        assert [r.ok for r in rows] == [True, False, True]
        assert np.isnan(rows[1].ac_train) and np.isnan(rows[1].robust_acc_test)

    def test_other_row_error_keeps_its_type(self, worker_count, monkeypatch):
        ckpt = self.checkpoint()
        update = train_mod.apply_update

        def broken(model, batch, cfg, opt_state):
            if cfg.edac_eta == 0.1:
                raise ShapeError("rows do not fit")
            time.sleep(0.5 if cfg.edac_eta else 0.0)
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", broken)
        worker_count(2)
        with pytest.raises(ShapeError, match="rows do not fit"):
            stepsize_sweep(ckpt, data(), [0.0, 0.1, 0.2, 0.3], config())


# 300 rows a split, so that every attack pass splits into two runs of slices
CLI_CONFIG = """
[dataset]
kind = gaussian_mixture
classes = 3
dim = 6
train_per_class = 100
test_per_class = 100
separation = 4.0
noise_std = 0.8
seed = 5

[model]
hidden = 16
activation = relu
init_seed = 1

[train]
method = edac
epochs = 2
batch_size = 32
lr = 0.05
edac_eta = 0.05
seed = 3

[train.attack]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 5

[train.eval_attack]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 5
random_start = {random_start}

[eval.pgd]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 3

[eval.pgd_random_start]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 3
random_start = true

[eval.l2_random_start]
norm = l2
epsilon = 0.5
step_size = 0.25
steps = 3
random_start = true

[eval.clean]
norm = linf
epsilon = 0
steps = 0

[output]
formats = csv,json
"""


def write_configs(out):
    """run.ini, and run_rs.ini whose evaluation attack has a random start."""
    for name, random_start in (("run.ini", "false"), ("run_rs.ini", "true")):
        (out / name).write_text(CLI_CONFIG.format(random_start=random_start),
                                encoding="utf-8")


# Every command through the CLI, run from the output directory: train, sweep,
# eval, and heatmap on both splits without and with a random start.
CLI_COMMANDS = """
from advlab.cli import main

def run_commands():
    codes = [main(["train", "--config", "run.ini", "--out", "train"]),
             main(["sweep", "--config", "run.ini", "--checkpoint", "train/best.ckpt",
                   "--etas", "0,0.05,1000,2000,0.1,3000", "--out", "sweep"]),
             main(["eval", "--config", "run.ini", "--checkpoint", "train/last.ckpt",
                   "--out", "eval"])]
    for cfg, out in (("run.ini", "heatmap"), ("run_rs.ini", "heatmap_rs")):
        for split in ("train", "test"):
            codes.append(main(["heatmap", "--config", cfg, "--checkpoint", "train/best.ckpt",
                               "--split", split, "--out", out]))
    return codes
"""

# The CLI commands on two workers while a SIGALRM handler lists the process's
# threads every 5 ms and opens each one's children file, as the benchmark's
# speed probe does.
THREADS_SCRIPT = """
import json, os, signal
from advlab import workers

workers.cpu_count = lambda: 2

def tasks():
    ids = sorted(os.listdir("/proc/self/task"))
    for t in ids:
        with open(f"/proc/self/task/{t}/children", encoding="ascii") as f:
            f.read()
    return ids

seen, errors = set(), []
def tick(signum, frame):
    try:
        seen.add(tuple(tasks()))
    except OSError as exc:
        errors.append(repr(exc))

before = tasks()
signal.signal(signal.SIGALRM, tick)
signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
codes = run_commands()
signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
print(json.dumps({"before": before, "during": sorted(seen), "after": tasks(),
                  "errors": errors, "codes": codes,
                  "blas": workers.blas_threads() is not None}))
"""


@pytest.mark.slow
def test_no_thread_starts_or_ends_in_the_parent(tmp_path):
    """At one BLAS thread, the benchmark's setting. At more, OpenBLAS's own
    fork handler stops its worker threads in the parent (module docstring)."""
    write_configs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CLI_COMMANDS + THREADS_SCRIPT], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          check=False)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["codes"] == [0] * 7
    if not out["blas"]:
        pytest.skip("numpy's OpenBLAS thread count cannot be pinned here")
    assert out["errors"] == []
    assert len(out["during"]) >= 1
    assert out["during"] == [out["before"]]
    assert out["after"] == out["before"]


# The CLI commands, counting forks; argv: "one" to run on one CPU of the
# affinity mask
CLI_SCRIPT = """
import json, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
fork = os.fork
def counted():
    forks.append(1)
    return fork()
os.fork = counted
from advlab.workers import blas_threads
codes = run_commands()
print(json.dumps({"codes": codes, "forks": len(forks), "cpus": len(os.sched_getaffinity(0)),
                  "blas": blas_threads() is not None}))
"""


@pytest.mark.slow
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
def test_one_cpu_forks_nothing_and_writes_the_same_bytes(tmp_path):
    runs = {}
    dirs = ("train", "sweep", "eval", "heatmap", "heatmap_rs")
    for name, cpus, blas in [("two_cpus", "all", None), ("one_cpu", "one", None),
                             ("one_blas_thread", "all", "1")]:
        out = tmp_path / name
        out.mkdir()
        write_configs(out)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if blas:
            env["OPENBLAS_NUM_THREADS"] = blas
        done = subprocess.run([sys.executable, "-c", CLI_COMMANDS + CLI_SCRIPT, cpus],
                              env=env, cwd=out, capture_output=True, text=True, timeout=300,
                              check=False)
        assert done.returncode == 0, done.stderr
        *stdout, last = done.stdout.strip().splitlines()
        info = json.loads(last)
        assert info["codes"] == [0] * 7
        files = {f"{d}/{p.name}": p.read_bytes()
                 for d in dirs for p in sorted((out / d).iterdir())}
        runs[name] = (info, stdout, files)
    assert runs["one_cpu"][0]["cpus"] == 1
    assert runs["one_cpu"][0]["forks"] == 0
    two = runs["two_cpus"][0]
    if two["cpus"] > 1 and two["blas"]:
        assert two["forks"] > 0
    assert sorted(runs["two_cpus"][2]) == [
        "eval/eval.json",
        *(f"{d}/{kind}_{split}.csv" for d in ("heatmap", "heatmap_rs")
          for kind in ("heatmap", "label_variance") for split in ("test", "train")),
        "sweep/sweep.csv", "train/best.ckpt", "train/history.csv", "train/history.json",
        "train/last.ckpt", "train/summary.json"]
    for name in ("one_cpu", "one_blas_thread"):
        assert runs[name][1] == runs["two_cpus"][1]
        assert runs[name][2] == runs["two_cpus"][2]

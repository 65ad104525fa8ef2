"""The three workloads: inputs derived from the seed, one round of commands
through ``advlab.cli.main``, and the checks of every command's outputs.

Each workload prepares its inputs before timing (derived configs and, for
``sweep`` and ``evaluate``, checkpoints made by the program's own
``advlab train``), then runs rounds of identical commands. Every command and
every check is one operation. Checks compare the outputs with ``reference``
and with properties of the formats in ``docs/formats.md``, never with stored
output.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref
from advlab import cli
from advlab.config import load_config

METHODS = ("at", "edac", "edac_reg")
# the acceptance suite's sweep grid, eta = 0.0, 0.1, ..., 2.0
SWEEP_ETAS = ",".join(f"{0.1 * i:.1f}" for i in range(21))
TRAIN_EPOCHS, TRAIN_DECAYS = 3, "1,2"  # three epochs that cross both lr decays
CKPT_EPOCHS = 2  # early checkpoints, before the first decay of the bundled schedule
AC_RTOL = 1e-9  # certainty is a float mean; the reference sums in another order


class Mismatch(Exception):
    """A program output disagrees with the reference or a format property."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def expect_close(got, want, what, rtol=AC_RTOL):
    expect(math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300),
           f"{what}: program {got!r}, reference {want!r}")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- inputs


def derive_config(root: Path, method: str, seed: int, path: Path, out_dir: Path,
                  epochs=None, decays=None) -> Path:
    """Copy ``configs/benchmark_<method>.ini``, changing only the output
    directory, the seeds and, if given, the epoch count and the decay epochs.

    The seeds are what ``advlab train --seed`` overrides: the training seed
    and ``init_seed``. ``eval``, ``heatmap`` and ``sweep`` have no ``--seed``,
    so their config must carry it: they reject a checkpoint whose
    ``init_seed`` differs from the config's, and ``sweep`` shuffles with the
    training seed."""
    text = (root / "configs" / f"benchmark_{method}.ini").read_text(encoding="utf-8")
    changes = {"dir": str(out_dir), "seed": seed, "init_seed": seed,
               "epochs": epochs, "lr_decay_epochs": decays}
    for key, value in changes.items():
        if value is None:
            continue
        text, n = re.subn(rf"(?m)^(\s*{key}\s*=).*$", rf"\g<1> {value}", text)
        if n != 1:
            raise RuntimeError(f"benchmark_{method}.ini has {n} '{key} =' lines, expected 1")
    path.write_text(text, encoding="utf-8")
    return path


def attack_params(config_path: Path) -> dict:
    """{attack name: (epsilon, step_size, steps)} read with configparser,
    apart from advlab's own parser; ``eval`` is ``[train.eval_attack]``."""
    cp = configparser.ConfigParser()
    cp.read(config_path, encoding="utf-8")
    out = {}
    for section in cp.sections():
        if section == "train.eval_attack":
            name = "eval"
        elif section.startswith("eval."):
            name = section[len("eval."):]
        else:
            continue
        s = cp[section]
        if (s.get("norm", "linf") != "linf" or s.getboolean("random_start", False)
                or s.get("clamp", "none") != "none"):
            raise RuntimeError(f"[{section}]: the reference covers linf attacks without "
                               "random start or clamp only")
        out[name] = (s.getfloat("epsilon"), s.getfloat("step_size", 1.0), s.getint("steps"))
    return out


def read_history(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return {k: [r[k] for r in rows] for k in rows[0]} if rows else {}


def read_grid(path: Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


# -- one benchmark run


class Run:
    """Operation counts and command timings of one run."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.tracer = None
        self.attempted = self.failed = self.checks_failed = 0
        self.failures = []
        self.probe = None  # speed.SpeedProbe
        self.round_times = defaultdict(float)  # command label -> seconds at reference speed
        self.round_raw = defaultdict(float)  # command label -> seconds as measured
        self._ref_cache = {}
        self.data = None  # {"train": (x, y), "test": (x, y)}

    def load_data(self, config_path: Path):
        train_set, test_set = load_config(config_path).build_datasets()
        self.data = {"train": (np.array(train_set.inputs), np.array(train_set.labels)),
                     "test": (np.array(test_set.inputs), np.array(test_set.labels))}

    def reference(self, ckpt_path: Path, split: str, attack):
        """(accuracy, certainty) of a checkpoint under a linf attack; cached
        by file digest, so a changed checkpoint is evaluated afresh."""
        key = (sha256(ckpt_path), split, attack)
        if key not in self._ref_cache:
            layers = ref.read_checkpoint(ckpt_path).layers
            x, y = self.data[split]
            self._ref_cache[key] = ref.attack_metrics(layers, x, y, *attack)
        return self._ref_cache[key]

    def command(self, label: str, argv) -> None:
        idx = self.tracer.enter(f"cli.{label}") if self.tracer else None
        mark = self.probe.mark()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            outcome = f"exit code {code}"
        except Exception:  # a crash is a failed operation; the run goes on
            code, outcome = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if idx is not None:
            self.tracer.leave(idx)
        program_s, at_ref_s = self.probe.measure(mark, dt)
        self.round_times[label] += at_ref_s
        self.round_raw[label] += program_s
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.failures.append(f"{label}: {outcome}")

    def check(self, label: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot read its input fails too
            self.failed += 1
            self.checks_failed += 1
            self.failures.append(f"check {label}: {type(exc).__name__}: {exc}")


def run_dir_digests(dirs) -> dict:
    return {f"{d.name}/{p.name}": sha256(p)
            for d in dirs for p in sorted(d.iterdir()) if p.is_file()}


def make_checkpoint(run: Run, method: str, epochs: int) -> Path:
    """A checkpoint from the program's own ``advlab train``, before timing."""
    name = f"ckpt_{method}{epochs}"
    out = run.work / name
    cfg = derive_config(run.root, method, run.seed, run.work / f"{name}.ini", out,
                        epochs=epochs)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--config", str(cfg), "--seed", str(run.seed)])
    if code != 0:
        raise RuntimeError(f"advlab train for the {name} checkpoint exited {code}")
    return out / "last.ckpt"


# -- train


class TrainWorkload:
    """``advlab train`` for ``at``, ``edac`` and ``edac_reg``, in order."""

    def prepare(self, run: Run):
        self.configs = {m: derive_config(run.root, m, run.seed, run.work / f"train_{m}.ini",
                                         run.work / f"train_{m}", TRAIN_EPOCHS, TRAIN_DECAYS)
                        for m in METHODS}
        self.attacks = attack_params(self.configs["at"])
        run.load_data(self.configs["at"])
        self.out_dirs = [run.work / f"train_{m}" for m in METHODS]
        return self.configs["at"], None

    def round(self, run: Run):
        for m in METHODS:
            run.command(f"train.{m}", ["train", "--config", str(self.configs[m]),
                                       "--seed", str(run.seed)])
            out = run.work / f"train_{m}"
            run.check(f"train.{m}.reference", self.check_reference, run, out)
            run.check(f"train.{m}.summary", self.check_summary, out)

    def check_reference(self, run: Run, out: Path):
        hist = read_history(out / "history.csv")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        last = out / "last.ckpt"
        clean, _ = run.reference(last, "test", (0.0, 1.0, 0))
        robust, ac = run.reference(last, "test", self.attacks["eval"])
        expect(float(hist["clean_acc_test"][-1]) == clean, "last clean_acc_test")
        expect(float(hist["robust_acc_test"][-1]) == robust, "last robust_acc_test")
        expect_close(float(hist["ac_test"][-1]), ac, "last ac_test")
        for name, got in summary["eval_attacks"].items():
            for which in ("best", "last"):
                want, _ = run.reference(out / f"{which}.ckpt", "test", self.attacks[name])
                expect(got[f"{which}_robust_acc"] == want,
                       f"summary {name} {which}_robust_acc {got[f'{which}_robust_acc']} != {want}")

    @staticmethod
    def check_summary(out: Path):
        hist = read_history(out / "history.csv")
        s = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        robust = [float(v) for v in hist["robust_acc_test"]]
        ac_train = [float(v) for v in hist["ac_train"]]
        best = robust.index(max(robust))  # the first argmax
        expect(s["epochs"] == len(robust), "epochs")
        expect(s["best_epoch"] == int(hist["epoch"][best]), "best_epoch is not the first argmax")
        expect(s["last_epoch"] == int(hist["epoch"][-1]), "last_epoch")
        expect(s["best_robust_acc_test"] == max(robust), "best_robust_acc_test")
        expect(s["last_robust_acc_test"] == robust[-1], "last_robust_acc_test")
        expect(s["overfitting_gap"] == max(robust) - robust[-1], "gap is not max - last")
        expect(s["clean_acc_test_last"] == float(hist["clean_acc_test"][-1]), "clean_acc_test_last")
        expect(s["ac_train_best"] == ac_train[best], "ac_train_best")
        expect(s["ac_train_last"] == ac_train[-1], "ac_train_last")
        expect(s["ac_train_curve"] == ac_train, "ac_train_curve")
        expect(s["ac_test_curve"] == [float(v) for v in hist["ac_test"]], "ac_test_curve")
        expect(s["robust_acc_test_curve"] == robust, "robust_acc_test_curve")


# -- sweep


class SweepWorkload:
    """``advlab sweep`` over the 21-point grid from an early ``at`` checkpoint."""

    def prepare(self, run: Run):
        self.ckpt = make_checkpoint(run, "at", CKPT_EPOCHS)
        # the same run one epoch longer: a plain at continuation of that checkpoint
        self.continuation = make_checkpoint(run, "at", CKPT_EPOCHS + 1)
        self.config = derive_config(run.root, "at", run.seed, run.work / "sweep.ini",
                                    run.work / "sweep")
        self.attack = attack_params(self.config)["eval"]
        run.load_data(self.config)
        self.out_dirs = [run.work / "sweep"]
        return self.config, self.ckpt

    def round(self, run: Run):
        run.command("sweep", ["sweep", "--config", str(self.config), "--checkpoint",
                              str(self.ckpt), "--etas", SWEEP_ETAS])
        run.check("sweep.rows", self.check_rows, run)
        run.check("sweep.eta0_is_at", self.check_reduction, run)

    def read_rows(self, run: Run):
        lines = (run.work / "sweep" / "sweep.csv").read_text(encoding="utf-8").splitlines()
        expect(lines[0] == "eta,ac_train,robust_acc_test,ok", f"sweep.csv header {lines[0]!r}")
        return [line.split(",") for line in lines[1:]]

    def check_rows(self, run: Run):
        rows = self.read_rows(run)
        etas = [float(e) for e in SWEEP_ETAS.split(",")]
        expect([float(r[0]) for r in rows] == etas, "rows are not one per eta in request order")
        for eta, ac, racc, ok in rows:
            expect(ok == "true", f"eta {eta}: row not ok")
            expect(math.isfinite(float(ac)) and 0.0 <= float(racc) <= 1.0,
                   f"eta {eta}: non-finite row {ac},{racc}")

    def check_reduction(self, run: Run):
        eta, ac, racc, _ = self.read_rows(run)[0]
        expect(float(eta) == 0.0, "first row is not eta 0")
        want_racc, _ = run.reference(self.continuation, "test", self.attack)
        _, want_ac = run.reference(self.continuation, "train", self.attack)
        expect(float(racc) == want_racc, f"eta 0 robust_acc_test {racc} != at's {want_racc}")
        expect_close(float(ac), want_ac, "eta 0 ac_train vs the at continuation")


# -- evaluate


class EvaluateWorkload:
    """``advlab eval`` and ``advlab heatmap`` on both splits, per checkpoint."""

    def prepare(self, run: Run):
        ckpts = [("at", make_checkpoint(run, "at", CKPT_EPOCHS)),
                 ("at", make_checkpoint(run, "at", CKPT_EPOCHS + 1)),
                 ("edac", make_checkpoint(run, "edac", CKPT_EPOCHS))]
        self.cases = []
        for k, (method, ckpt) in enumerate(ckpts):
            cfg = derive_config(run.root, method, run.seed, run.work / f"eval{k}.ini",
                                run.work / f"eval{k}")
            self.cases.append((cfg, ckpt, run.work / f"eval{k}"))
        self.attacks = attack_params(self.cases[0][0])
        run.load_data(self.cases[0][0])
        self.out_dirs = [out for _, _, out in self.cases]
        return self.cases[0][0], self.cases[0][1]

    def round(self, run: Run):
        for cfg, ckpt, out in self.cases:
            common = ["--config", str(cfg), "--checkpoint", str(ckpt)]
            run.command("eval", ["eval"] + common)
            run.check("eval.eps0", self.check_eps0, out)
            run.check("eval.reference", self.check_eval, run, ckpt, out)
            for split in ("train", "test"):
                run.command("heatmap", ["heatmap"] + common + ["--split", split])
                run.check(f"heatmap.{split}", self.check_heatmap, run, ckpt, out, split)
                run.check(f"label_variance.{split}", self.check_variance, out, split)

    def check_eps0(self, out: Path):
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        zero = [n for n, (eps, _, _) in self.attacks.items() if eps == 0.0 and n != "eval"]
        expect(zero, "no epsilon-0 attack in the config")
        for name in zero:
            expect(report["attacks"][name]["robust_acc"] == report["clean_acc_test"],
                   f"{name}: epsilon-0 robust accuracy differs from the clean accuracy")

    def check_eval(self, run: Run, ckpt: Path, out: Path):
        report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
        clean, _ = run.reference(ckpt, "test", (0.0, 1.0, 0))
        expect(report["clean_acc_test"] == clean, "clean_acc_test")
        expect(sorted(report["attacks"]) == sorted(n for n in self.attacks if n != "eval"),
               "eval.json does not hold every bundled attack")
        for name, got in report["attacks"].items():
            racc, ac = run.reference(ckpt, "test", self.attacks[name])
            expect(got["robust_acc"] == racc, f"{name} robust_acc {got['robust_acc']} != {racc}")
            expect_close(got["ac"], ac, f"{name} ac")

    def check_heatmap(self, run: Run, ckpt: Path, out: Path, split: str):
        hm = read_grid(out / f"heatmap_{split}.csv")
        counts = np.bincount(run.data[split][1], minlength=hm.shape[0])
        expect(hm.shape == (len(counts), len(counts)), f"heatmap shape {hm.shape}")
        expect(np.all(np.abs(hm[counts > 0].sum(axis=1) - 1.0) <= 1e-12), "rows do not sum to 1")
        racc, _ = run.reference(ckpt, split, self.attacks["eval"])
        diag = float((counts * np.diag(hm)).sum() / counts.sum())
        expect(abs(diag - racc) <= 1e-12, f"weighted diagonal {diag} != robust accuracy {racc}")

    @staticmethod
    def check_variance(out: Path, split: str):
        hm = read_grid(out / f"heatmap_{split}.csv")
        var = read_grid(out / f"label_variance_{split}.csv")
        expect(var.shape == (1, hm.shape[0]), f"label variance shape {var.shape}")
        expect(np.all(np.abs(var[0] - ref.row_std(hm)) <= 1e-15),
               "label variance is not the population std of its heatmap row")


WORKLOADS = {"train": TrainWorkload, "sweep": SweepWorkload, "evaluate": EvaluateWorkload}

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from advlab import cli, gradcheck
from advlab import train as train_mod
from advlab.cli import main
from advlab.config import load_config
from advlab.diagnostics import robust_accuracy
from advlab.errors import ShapeError
from advlab.objective import robust_grad
from advlab.train import load_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"

QUICK = """
[dataset]
kind = gaussian_mixture
classes = 3
dim = 6
train_per_class = 40
test_per_class = 20
separation = 4.0
noise_std = 0.8
seed = 5

[model]
hidden = 16
activation = relu
init_seed = 1

[train]
method = at
epochs = 2
batch_size = 32
lr = 0.05
seed = 3

[train.attack]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 5

[eval.pgd5]
norm = linf
epsilon = 0.25
step_size = 0.0625
steps = 5

[eval.clean]
norm = linf
epsilon = 0
steps = 0

[output]
dir = {out}
"""


# QUICK with random starts: [train.eval_attack] and its equal [eval.pgd5],
# plus an l2 attack that equals no other
RANDOM_START = {
    "[eval.pgd5]": "[train.eval_attack]\nnorm = linf\nepsilon = 0.25\nstep_size = 0.0625\n"
                   "steps = 5\nrandom_start = true\n\n[eval.pgd5]\nrandom_start = true",
    "[eval.clean]": "[eval.l2]\nnorm = l2\nepsilon = 0.5\nstep_size = 0.25\nsteps = 3\n"
                    "random_start = true\n\n[eval.clean]",
}


def history_column(out, name):
    lines = (out / "history.csv").read_text().splitlines()
    col = lines[0].split(",").index(name)
    return [float(line.split(",")[col]) for line in lines[1:]]


def rewrite_checkpoint(src, dst, edit_header=None, nan_at=None):
    """Copy a checkpoint, passing its header through ``edit_header`` or
    setting the payload float at index ``nan_at(payload size)`` to NaN; the
    payload holds the parameters, then the momentum."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    if edit_header is not None:
        header = edit_header(header)
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8").copy()
    if nan_at is not None:
        payload[nan_at(payload.size)] = np.nan
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + payload.tobytes())


def set_field(path, value):
    """A header edit that sets the field at ``path`` (keys and indices)."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


MALFORMED = {
    "json_list_header": dict(edit_header=lambda h: [h]),
    # QUICK's w0 is 6 x 16, so the negated shape keeps the payload length
    "negative_segment_shape": dict(edit_header=set_field(("segments", 0, 1), [-6, -16])),
    "nan_params": dict(nan_at=lambda n: 0),
    "nan_momentum": dict(nan_at=lambda n: n // 2),
    "nan_ac_train": dict(edit_header=set_field(("metrics", "ac_train"), float("nan"))),
    "repeated_segment_name": dict(edit_header=set_field(("segments", 1, 0), "w0")),
}


@pytest.fixture
def quick_config(tmp_path):
    def make(out_name="run", **replacements):
        text = QUICK.format(out=tmp_path / out_name)
        for old, new in replacements.items():
            text = text.replace(old, new)
        p = tmp_path / f"{out_name}.ini"
        p.write_text(text)
        return p, tmp_path / out_name
    return make


class TestTrainCommand:
    def test_artifacts_and_history_rows(self, quick_config):
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        for name in ("history.csv", "best.ckpt", "last.ckpt", "summary.json", "history.json"):
            assert (out / name).exists()
        lines = (out / "history.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 epochs
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["eval_attacks"]) == {"pgd5", "clean"}
        assert summary["last_epoch"] == 1

    def test_rerun_byte_identical(self, quick_config):
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        first = {n: (out / n).read_bytes()
                 for n in ("history.csv", "best.ckpt", "last.ckpt", "summary.json")}
        assert main(["train", "--config", str(cfg)]) == 0
        for n, blob in first.items():
            assert (out / n).read_bytes() == blob

    def test_seed_override_changes_results(self, quick_config):
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        h1 = (out / "history.csv").read_bytes()
        assert main(["train", "--config", str(cfg), "--seed", "77"]) == 0
        assert (out / "history.csv").read_bytes() != h1

    @pytest.mark.parametrize("seed,passes", [("3", 1), ("5", 2)])
    def test_summary_attacks_each_checkpoint_once(self, quick_config, monkeypatch,
                                                  seed, passes):
        # pgd5 equals [train.eval_attack] (the training attack by default), so
        # summary.json reads it from the history; clean takes one pass per
        # distinct checkpoint: best is last for seed 3, not for seed 5
        seen = []

        def spy(model, dataset, atk, rng=None):
            seen.append(atk)
            return robust_accuracy(model, dataset, atk, rng)

        monkeypatch.setattr(cli, "robust_accuracy", spy)
        cfg, out = quick_config(**{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(cfg), "--seed", seed]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["best_epoch"] == summary["last_epoch"]) == (passes == 1)
        assert seen == [load_config(cfg).eval_attacks["clean"]] * passes

    def test_summary_eval_attack_figures_are_the_history_rows(self, quick_config):
        cfg, out = quick_config(**{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(cfg), "--seed", "5"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        robust = history_column(out, "robust_acc_test")
        best, last = summary["best_epoch"], summary["last_epoch"]
        assert best != last
        assert summary["eval_attacks"]["pgd5"] == {
            "best_robust_acc": robust[best], "last_robust_acc": robust[last]}
        # and a fresh pass reads the same figures
        config = load_config(cfg)
        _, test_set = config.build_datasets()
        for name, epoch in (("best", best), ("last", last)):
            model = load_checkpoint(out / f"{name}.ckpt").model
            assert robust_accuracy(model, test_set, config.eval_attacks["pgd5"]) == robust[epoch]

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[dataset]\nkind = nope\n")
        assert main(["train", "--config", str(p)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_numeric_failure_exit_3_without_numpy_warning(self, quick_config):
        # the logits overflow on the second batch; the documented error is
        # the whole report, with no numpy RuntimeWarning printed before it
        cfg, _ = quick_config(**{"lr = 0.05": "lr = 1e300"})
        proc = subprocess.run([sys.executable, "-m", "advlab", "train", "--config", str(cfg)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("old,new", [
        ("seed = 3", "seed = 3\nedac_eta = nan"),
        ("noise_std = 0.8", "noise_std = nan"),
        ("[eval.pgd5]\nnorm = linf\nepsilon = 0.25", "[eval.pgd5]\nnorm = linf\nepsilon = nan"),
    ])
    def test_non_finite_config_number_exit_2(self, quick_config, old, new, capsys):
        cfg, out = quick_config(**{old: new})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["truncated", "missing"])
    def test_idx_file_error_exit_2(self, tmp_path, capsys, case):
        images = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        blob = b"\x00\x00\x08\x03" + struct.pack(">III", 4, 2, 2) + images.tobytes()
        if case == "truncated":
            ip.write_bytes(blob[:-3])
        lp.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", 4) + bytes([0, 1, 0, 1]))
        text = QUICK.format(out=tmp_path / "run")
        dataset = text[text.index("[dataset]"):text.index("[model]")]
        text = text.replace(dataset, f"[dataset]\nkind = idx\nimages = {ip}\nlabels = {lp}\n\n")
        cfg = tmp_path / "idx.ini"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {ip}")


class TestEvalCommand:
    def test_eval_writes_report(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(out / "best.ckpt")])
        assert code == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["attacks"]["clean"]["robust_acc"] == report["clean_acc_test"]
        assert 0.0 <= report["attacks"]["pgd5"]["robust_acc"] <= 1.0

    def test_best_at_least_last(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        main(["eval", "--config", str(cfg), "--checkpoint", str(out / "best.ckpt")])
        best = json.loads((out / "eval.json").read_text())
        main(["eval", "--config", str(cfg), "--checkpoint", str(out / "last.ckpt")])
        last = json.loads((out / "eval.json").read_text())
        assert best["attacks"]["pgd5"]["robust_acc"] >= last["attacks"]["pgd5"]["robust_acc"]

    def test_corrupt_checkpoint_exit_4(self, quick_config, tmp_path):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        bad = tmp_path / "corrupt.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 4

    def test_spec_mismatch_exit_4(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        cfg2, _ = quick_config(out_name="other", **{"hidden = 16": "hidden = 8"})
        assert main(["eval", "--config", str(cfg2),
                     "--checkpoint", str(out / "best.ckpt")]) == 4


    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_checkpoint_exit_4(self, quick_config, tmp_path, case):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(out / "last.ckpt", bad, **MALFORMED[case])
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 4

    def test_checkpoint_of_seed_override_accepted(self, quick_config, tmp_path):
        # --seed also sets init_seed; eval, heatmap and sweep compare only the
        # architecture and sweep continues with the checkpoint's own seed
        swaps = {"init_seed = 1": "init_seed = 0", "seed = 3": "seed = 0"}
        cfg, out = quick_config(**swaps)
        assert main(["train", "--config", str(cfg), "--seed", "3"]) == 0
        ckpt = str(out / "last.ckpt")
        assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        assert main(["heatmap", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        assert main(["sweep", "--config", str(cfg), "--checkpoint", ckpt,
                     "--etas", "0"]) == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        longer, longer_out = quick_config(out_name="longer",
                                          **swaps, **{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(longer), "--seed", "3"]) == 0
        hist = (longer_out / "history.csv").read_text().splitlines()[-1].split(",")
        assert (row[1], row[2]) == (hist[7], hist[6])  # ac_train, robust_acc_test
        other, _ = quick_config(out_name="other", **swaps,
                                **{"activation = relu": "activation = tanh"})
        for command in ("eval", "heatmap"):
            assert main([command, "--config", str(other), "--checkpoint", ckpt]) == 4
        assert main(["sweep", "--config", str(other), "--checkpoint", ckpt,
                     "--etas", "0"]) == 4

    def test_missing_base_seed_exit_4(self, quick_config, tmp_path):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        bad = tmp_path / "noseed.ckpt"

        def drop_seed(header):
            del header["rng"]["base_seed"]
            return header

        rewrite_checkpoint(out / "last.ckpt", bad, edit_header=drop_seed)
        for command in (["eval"], ["heatmap"], ["sweep", "--etas", "0"]):
            assert main(command + ["--config", str(cfg), "--checkpoint", str(bad)]) == 4


class TestHeatmapCommand:
    def test_rows_sum_to_one_in_emitted_file(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        assert main(["heatmap", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--split", "train"]) == 0
        lines = (out / "heatmap_train.csv").read_text().strip().splitlines()
        assert lines[0] == "class_0,class_1,class_2"
        for row in lines[1:]:
            vals = [float(v) for v in row.split(",")]
            assert sum(vals) == pytest.approx(1.0, abs=1e-12)
        var_lines = (out / "label_variance_train.csv").read_text().strip().splitlines()
        assert len(var_lines) == 2


class TestSweepCommand:
    def test_sweep_csv_columns(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        assert main(["sweep", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--etas", "0,0.05"]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "eta,ac_train,robust_acc_test,ok"
        assert len(lines) == 3
        assert all(line.endswith("true") for line in lines[1:])

    def test_reused_rows_named_on_stdout(self, quick_config, capsys):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--etas", "1000,2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("[ok]")
        assert lines[1].endswith("[ok, same as eta 1000: capped on every batch]")
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].split(",")[1:] == rows[1].split(",")[1:]

    def test_shape_error_in_a_row_exit_2(self, quick_config, monkeypatch, capsys):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        update = train_mod.apply_update

        def broken(model, batch, cfg, opt_state):
            if cfg.edac_eta == 0.05:
                raise ShapeError("rows do not fit")
            return update(model, batch, cfg, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", broken)
        assert main(["sweep", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--etas", "0,0.05"]) == 2
        assert capsys.readouterr().err == "data error: rows do not fit\n"

    def test_malformed_etas_exit_2(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        assert main(["sweep", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--etas", "0,banana"]) == 2
        assert main(["sweep", "--config", str(cfg), "--checkpoint",
                     str(out / "last.ckpt"), "--etas", "-1"]) == 2
        for etas in ("0,nan", "inf"):
            assert main(["sweep", "--config", str(cfg), "--checkpoint",
                         str(out / "last.ckpt"), "--etas", etas]) == 2
        assert not (out / "sweep.csv").exists()


class TestRandomStartEvaluation:
    """Every evaluation attack with a random start draws it from
    ``train.eval_rng``: (base seed, epoch, split)."""

    def test_every_command_exits_0(self, quick_config):
        cfg, out = quick_config(**RANDOM_START)
        assert main(["train", "--config", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["eval_attacks"]) == {"pgd5", "l2", "clean"}
        ckpt = str(out / "last.ckpt")
        assert main(["eval", "--config", str(cfg), "--checkpoint", ckpt]) == 0
        for split in ("train", "test"):
            assert main(["heatmap", "--config", str(cfg), "--checkpoint", ckpt,
                         "--split", split]) == 0
        assert main(["sweep", "--config", str(cfg), "--checkpoint", ckpt,
                     "--etas", "0,0.05"]) == 0
        # the eta = 0 row is the next epoch of the same run, random starts included
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        longer, longer_out = quick_config(out_name="longer", **RANDOM_START,
                                          **{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(longer)]) == 0
        assert [float(v) for v in row[1:3]] == [
            history_column(longer_out, "ac_train")[2],
            history_column(longer_out, "robust_acc_test")[2]]

    def test_eval_reproduces_the_history_row(self, quick_config):
        cfg, out = quick_config(**RANDOM_START)
        assert main(["train", "--config", str(cfg)]) == 0
        robust = history_column(out, "robust_acc_test")
        summary = json.loads((out / "summary.json").read_text())
        for name in ("best", "last"):
            assert main(["eval", "--config", str(cfg),
                         "--checkpoint", str(out / f"{name}.ckpt")]) == 0
            report = json.loads((out / "eval.json").read_text())
            assert report["attacks"]["pgd5"]["robust_acc"] == robust[report["epoch"]]
            assert (report["attacks"]["l2"]["robust_acc"]
                    == summary["eval_attacks"]["l2"][f"{name}_robust_acc"])


class TestGradcheckCommand:
    def test_passes_with_default_h(self, quick_config):
        cfg, _ = quick_config()
        assert main(["gradcheck", "--config", str(cfg), "--cases", "10"]) == 0

    def test_h_sweep_all_pass(self, quick_config):
        cfg, _ = quick_config()
        for h in ("1e-4", "1e-5", "1e-6"):
            assert main(["gradcheck", "--config", str(cfg), "--cases", "5", "--h", h]) == 0

    def test_fault_injection_exit_5(self, quick_config, monkeypatch, capsys):
        def wrong(*args, **kwargs):
            grad, ac = robust_grad(*args, **kwargs)
            return grad * 1.05, ac

        monkeypatch.setattr(gradcheck, "robust_grad", wrong)
        cfg, _ = quick_config()
        assert main(["gradcheck", "--config", str(cfg), "--cases", "3"]) == 5
        assert "gradient check failed for: grad_params, grad_params_trades" in \
            capsys.readouterr().err


class TestCheckpointCompat:
    def test_checkpoint_loads_standalone(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        ck = load_checkpoint(out / "last.ckpt")
        assert ck.epoch == 1
        assert np.isfinite(ck.model.params.flatten()).all()

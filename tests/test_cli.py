import base64
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from advlab import cli, gradcheck
from advlab import data as data_mod
from advlab import train as train_mod
from advlab.attack import AttackConfig
from advlab.cli import main
from advlab.config import load_config
from advlab.diagnostics import confusion_counts, robust_accuracy
from advlab.errors import ConfigError, DataFormatError, NumericError, ShapeError
from advlab.objective import robust_grad
from advlab.train import SPLITS, load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


def rewrite_checkpoint(src, dst, edit_header=None, nan_at=None, edit_bytes=None):
    """Copy a checkpoint, passing its header through ``edit_header``, setting
    the payload float at index ``nan_at(payload size)`` to NaN, or passing
    the file's bytes through ``edit_bytes``; the payload holds the
    parameters, then the momentum."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    if edit_header is not None:
        header = edit_header(header)
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8").copy()
    if nan_at is not None:
        payload[nan_at(payload.size)] = np.nan
    blob = json.dumps(header).encode()
    raw = raw[:8] + struct.pack("<I", len(blob)) + blob + payload.tobytes()
    dst.write_bytes(raw if edit_bytes is None else edit_bytes(raw))


def set_field(path, value):
    """A header edit that sets the field at ``path`` (keys and indices)."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


def edit_field(path, edit):
    """A header edit that passes the field at ``path`` through ``edit``."""
    def apply(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = edit(node[path[-1]])
        return header
    return apply


def compose(*edits):
    """A header edit that applies ``edits`` in order."""
    def apply(header):
        for edit in edits:
            header = edit(header)
        return header
    return apply


# the recorded passes of a QUICK run, in the order written: the history row's
# pass over each split, then [eval.clean]'s, the one pass made for
# summary.json ([eval.pgd5] is [train.eval_attack])
TRAIN_ROW, TEST_ROW, CLEAN = 0, 1, 2


def decode_preds(text):
    """A recorded pass's predicted labels: one byte per row, as QUICK's 3
    classes take."""
    return np.frombuffer(base64.b64decode(text), dtype=np.uint8).astype(np.int64)


def edit_preds(index, edit):
    """A header edit that passes the predicted labels of recorded pass
    ``index`` through ``edit`` and writes them back one byte per row."""
    def apply(text):
        return base64.b64encode(np.asarray(edit(decode_preds(text)), dtype=np.uint8)
                                .tobytes()).decode("ascii")
    return edit_field(("measured", "passes", index, "preds"), apply)


def edit_pass(key, edit):
    """A header edit that passes field ``key`` of the recorded ``[eval.clean]``
    pass through ``edit``."""
    return edit_field(("measured", "passes", CLEAN, key), edit)


def drop_field(*path):
    """A header edit that deletes the field at ``path``."""
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return header
    return edit


def set_class(row, label):
    """A prediction edit that sets row ``row``'s label."""
    def edit(preds):
        preds = preds.copy()
        preds[row] = label
        return preds
    return edit


def one_wrong(labels):
    """A prediction edit that moves the first correctly predicted row to the
    next class: the same number of rows, one fewer right."""
    def edit(preds):
        preds = preds.copy()
        row = np.flatnonzero(preds == labels)[0]
        preds[row] = (labels[row] + 1) % 3
        return preds
    return edit


MALFORMED = {
    "json_list_header": dict(edit_header=lambda h: [h]),
    # QUICK's w0 is 6 x 16, so the negated shape keeps the payload length
    "negative_segment_shape": dict(edit_header=set_field(("segments", 0, 1), [-6, -16])),
    "nan_params": dict(nan_at=lambda n: 0),
    "nan_momentum": dict(nan_at=lambda n: n // 2),
    "nan_ac_train": dict(edit_header=set_field(("metrics", "ac_train"), float("nan"))),
    "repeated_segment_name": dict(edit_header=set_field(("segments", 1, 0), "w0")),
    # the measured key: a wrong type, a missing or extra key, predictions that
    # are not base64 of classes below K, or that disagree with the split or
    # the metrics row
    "measured_list": dict(edit_header=set_field(("measured",), [])),
    "measured_null": dict(edit_header=set_field(("measured",), None)),
    "measured_without_train": dict(edit_header=drop_field("measured", "sha256", "train")),
    "measured_without_passes": dict(edit_header=drop_field("measured", "passes")),
    "measured_extra_key": dict(edit_header=set_field(("measured", "valid"), 1)),
    "measured_steps_text": dict(edit_header=set_field(("measured", "attack", "steps"), "5")),
    "measured_steps_float": dict(edit_header=set_field(("measured", "attack", "steps"), 5.0)),
    "measured_epsilon_int": dict(edit_header=set_field(("measured", "attack", "epsilon"), 0)),
    "measured_epsilon_nan": dict(edit_header=set_field(("measured", "attack", "epsilon"),
                                                       float("nan"))),
    "measured_random_start_int": dict(edit_header=set_field(
        ("measured", "attack", "random_start"), 0)),
    "measured_unknown_attack_field": dict(edit_header=set_field(
        ("measured", "attack", "restarts"), 2)),
    "measured_sha256_number": dict(edit_header=set_field(("measured", "sha256", "test"), 5)),
    "measured_sha256_list": dict(edit_header=edit_field(("measured", "sha256"),
                                                        lambda d: list(d.values()))),
    "measured_short_preds": dict(edit_header=edit_preds(TEST_ROW, lambda p: p[:-1])),
    "measured_preds_bad_padding": dict(edit_header=edit_field(
        ("measured", "passes", TRAIN_ROW, "preds"), lambda t: t[:-1])),
    "measured_preds_class_out_of_range": dict(edit_header=edit_preds(TEST_ROW,
                                                                     set_class(0, 3))),
    "measured_preds_list": dict(edit_header=edit_field(
        ("measured", "passes", TEST_ROW, "preds"), lambda t: decode_preds(t).tolist())),
    "measured_preds_not_base64": dict(edit_header=edit_field(
        ("measured", "passes", TRAIN_ROW, "preds"), lambda t: t[:-4] + "AA*=")),
    "measured_robust_acc_not_the_row": dict(edit_header=set_field(
        ("metrics", "robust_acc_test"), 0.123456)),
    "measured_ac_not_the_row": dict(edit_header=edit_field(
        ("measured", "passes", TEST_ROW, "ac"), lambda ac: ac / 2)),
    "measured_doubled_preds": dict(edit_header=edit_preds(TEST_ROW,
                                                          lambda p: np.repeat(p, 2))),
    "epoch_infinite": dict(edit_header=set_field(("epoch",), float("inf"))),
    # an epoch must be non-negative and the metrics row's (QUICK's last is 1)
    "epoch_negative": dict(edit_header=compose(set_field(("epoch",), -3),
                                               set_field(("metrics", "epoch"), -3))),
    "epoch_not_the_row": dict(edit_header=set_field(("epoch",), 7)),
    # the weights' digest and the passes made for summary.json
    "params_sha256_number": dict(edit_header=set_field(("measured", "params_sha256"), 5)),
    "params_sha256_null": dict(edit_header=set_field(("measured", "params_sha256"), None)),
    "params_sha256_missing": dict(edit_header=drop_field("measured", "params_sha256")),
    "passes_object": dict(edit_header=set_field(("measured", "passes"), {})),
    "pass_null": dict(edit_header=set_field(("measured", "passes", CLEAN), None)),
    "pass_without_ac": dict(edit_header=drop_field("measured", "passes", CLEAN, "ac")),
    # the key of the counts format that earlier versions wrote
    "pass_unknown_key": dict(edit_header=set_field(("measured", "passes", CLEAN, "confusion"),
                                                   [])),
    "pass_split_unknown": dict(edit_header=edit_pass("split", lambda _: "valid")),
    "pass_split_index": dict(edit_header=edit_pass("split", SPLITS.index)),
    "pass_steps_text": dict(edit_header=set_field(("measured", "passes", CLEAN, "attack",
                                                   "steps"), "0")),
    "pass_ac_int": dict(edit_header=edit_pass("ac", lambda ac: 1)),
    "pass_ac_text": dict(edit_header=edit_pass("ac", str)),
    "pass_ac_nan": dict(edit_header=edit_pass("ac", lambda ac: float("nan"))),
    "pass_ac_infinite": dict(edit_header=edit_pass("ac", lambda ac: float("inf"))),
    "pass_ac_negative": dict(edit_header=edit_pass("ac", lambda ac: -ac)),
    "pass_short_preds": dict(edit_header=edit_preds(CLEAN, lambda p: p[:-1])),
    "pass_preds_class_out_of_range": dict(edit_header=edit_preds(CLEAN, set_class(0, 255))),
    "pass_preds_number": dict(edit_header=edit_pass("preds", lambda _: 5.0)),
    "pass_doubled_preds": dict(edit_header=edit_preds(CLEAN, lambda p: np.repeat(p, 2))),
    # a length that disagrees with the header, found before anything a header
    # field sizes is read or allocated
    "trailing_payload_byte": dict(edit_bytes=lambda raw: raw + b"\0"),
    "header_length_all_ones": dict(edit_bytes=lambda raw: raw[:8]
                                   + struct.pack("<I", 0xFFFFFFFF) + b"{}"),
    "segment_1e9_by_1e9": dict(edit_header=set_field(("segments", 0, 1), [10**9, 10**9])),
    # a header that writing its checkpoint back does not give: a value of
    # another JSON type, a key extra or missing, a derived value not derived
    "epoch_fraction": dict(edit_header=compose(set_field(("epoch",), 2.7),
                                               set_field(("metrics", "epoch"), 2.2))),
    "epochs_float": dict(edit_header=compose(set_field(("epoch",), 1.0),
                                             set_field(("metrics", "epoch"), 1.0))),
    "next_epoch_not_epoch_plus_1": dict(edit_header=set_field(("rng", "next_epoch"), 99)),
    "rng_extra_key": dict(edit_header=set_field(("rng", "step"), 0)),
    "rng_base_seed_fraction": dict(edit_header=set_field(("rng", "base_seed"), 0.5)),
    "rng_without_base_seed": dict(edit_header=drop_field("rng", "base_seed")),
    "spec_input_dim_float": dict(edit_header=edit_field(("spec", "input_dim"), float)),
    "spec_init_seed_text": dict(edit_header=edit_field(("spec", "init_seed"), str)),
    "spec_layer_width_float": dict(edit_header=edit_field(("spec", "layer_widths", 0), float)),
    "metrics_lr_text": dict(edit_header=edit_field(("metrics", "lr"), str)),
    "metrics_method_number": dict(edit_header=set_field(("metrics", "method"), 0)),
    "metrics_clean_acc_text": dict(edit_header=edit_field(("metrics", "clean_acc_test"), str)),
    "metrics_wall_time_nonzero": dict(edit_header=set_field(("metrics", "wall_time_s"), 3.5)),
    "version_float": dict(edit_header=set_field(("version",), 1.0)),
    "segment_dimension_float": dict(edit_header=edit_field(("segments", 0, 1, 0), float)),
}
# the first field the header rule names for a case it refuses
NAMED = {"next_epoch_not_epoch_plus_1": "rng.next_epoch", "rng_extra_key": "rng.step",
         "spec_input_dim_float": "spec.input_dim", "epochs_float": "epoch",
         "metrics_wall_time_nonzero": "metrics.wall_time_s", "version_float": "version",
         "segment_dimension_float": "segments[0][1][0]"}
# the cases refused at lookup (``checkpoint_pass``), not at load: a recorded
# pass that disagrees with its split or with the metrics row
AT_LOOKUP = {"measured_short_preds", "measured_robust_acc_not_the_row",
             "measured_ac_not_the_row", "measured_doubled_preds", "pass_short_preds",
             "pass_doubled_preds"}


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
        stats = train_mod.attacked_stats

        def spy(model, dataset, atk, rng=None):
            seen.append(atk)
            return stats(model, dataset, atk, rng)

        monkeypatch.setattr(train_mod, "attacked_stats", spy)
        cfg, out = quick_config(**{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(cfg), "--seed", seed]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["best_epoch"] == summary["last_epoch"]) == (passes == 1)
        config = load_config(cfg)
        assert seen == [config.eval_attacks["clean"]] * passes
        # each checkpoint records its history row's passes, then the pass
        # made at its weights
        for name in ("best", "last"):
            assert [(p.split, p.attack)
                    for p in load_checkpoint(out / f"{name}.ckpt").measured.passes] == [
                ("train", config.train.eval_attack), ("test", config.train.eval_attack),
                ("test", config.eval_attacks["clean"])]

    def test_checkpoints_written_when_a_summary_pass_fails(self, quick_config, monkeypatch,
                                                           capsys):
        def broken(*args):
            raise NumericError("attack blew up")

        monkeypatch.setattr(train_mod, "attacked_stats", broken)
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "numeric error: attack blew up\n"
        for name in ("best", "last"):
            assert [p.split for p in load_checkpoint(out / f"{name}.ckpt").measured.passes] \
                == list(SPLITS)
        assert not (out / "summary.json").exists()

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

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_bytes(b"[dataset]\nkind = benchmark\n\xff\n")
        assert main(["train", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {p}: ")

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

    @pytest.mark.parametrize("error,code,message", [
        (ShapeError("rows do not fit"), 2, "data error: rows do not fit"),
        (DataFormatError("bad rows"), 2, "data error: bad rows"),
        (ConfigError("bad knob"), 2, "config error: bad knob"),
        (NumericError("blew up"), 3, "numeric failure: training failed during epoch 1: "
                                     "blew up (last completed epoch: 0)"),
    ])
    def test_error_during_training_keeps_its_exit_code(self, quick_config, monkeypatch,
                                                       capsys, error, code, message):
        cfg, out = quick_config()
        update = train_mod.apply_update

        def broken(model, batch, config, opt_state):
            if opt_state.epoch == 1:
                raise error
            return update(model, batch, config, opt_state)

        monkeypatch.setattr(train_mod, "apply_update", broken)
        assert main(["train", "--config", str(cfg)]) == code
        assert capsys.readouterr().err == message + "\n"
        assert load_checkpoint(out / "aborted.ckpt").epoch == 0

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

    def test_negative_lr_decay_epoch_exit_2(self, quick_config, capsys):
        # it would decay the rate from epoch 0: lr 0.05 trained at 0.005
        cfg, out = quick_config(**{"seed = 3": "seed = 3\nlr_decay_epochs = 1,-1"})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "config error: lr_decay_epochs must be non-negative, got (1, -1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [
        # numpy refuses both before it allocates anything
        ("hidden = 16", "hidden = 99999999999999999999"),
        ("train_per_class = 40", "train_per_class = 99999999999999999999"),
    ])
    def test_absurd_size_exit_2(self, quick_config, old, new, capsys):
        cfg, _ = quick_config(**{old: new})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("case", ["truncated", "missing", "huge_dims"])
    def test_idx_file_error_exit_2(self, tmp_path, capsys, case):
        images = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        blob = b"\x00\x00\x08\x03" + struct.pack(">III", 4, 2, 2) + images.tobytes()
        if case == "truncated":
            ip.write_bytes(blob[:-3])
        elif case == "huge_dims":  # 109 bytes whose header promises 255 x 65535 x 65535
            ip.write_bytes((b"\x00\x00\x08\x03" + struct.pack(">III", 255, 65535, 65535)
                            + bytes(109))[:109])
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
    def test_malformed_checkpoint_exit_4(self, quick_config, tmp_path, capsys, case):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(out / "last.ckpt", bad, **MALFORMED[case])
        capsys.readouterr()
        commands = [["eval"]] + ([] if case in AT_LOOKUP else [["sweep", "--etas", "0"]])
        for command in commands:
            assert main(command + ["--config", str(cfg), "--checkpoint", str(bad)]) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"checkpoint error: {bad}: ")
            if case in NAMED:
                assert err.endswith(f"gives another header at {NAMED[case]}\n")

    @pytest.mark.parametrize("command", [["eval"], ["heatmap"], ["sweep", "--etas", "0"]])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_checkpoint_exit_4(self, quick_config, tmp_path, capsys, command, where):
        cfg, _ = quick_config()
        path = tmp_path / "absent.ckpt" if where == "missing" else tmp_path
        assert main(command + ["--config", str(cfg), "--checkpoint", str(path)]) == 4
        assert capsys.readouterr().err.startswith(
            f"checkpoint error: {path}: cannot read checkpoint: ")

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

    @pytest.mark.slow
    def test_verbose_log_names_each_computed_row_once(self, quick_config):
        # 2000 is copied from the capped 1000 row; at two workers it may start
        # before 1000 comes back and then be dropped, which must add no line
        cfg, out = quick_config(**{"method = at": "method = edac"})
        assert main(["train", "--config", str(cfg)]) == 0
        script = ("import sys\nfrom advlab import cli, workers\n"
                  "workers.cpu_count = lambda: int(sys.argv[1])\n"
                  "sys.exit(cli.main(sys.argv[2:]))\n")
        logs = []
        for n in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script, n, "-v", "sweep", "--config", str(cfg),
                 "--checkpoint", str(out / "last.ckpt"), "--etas", "0,0.5,1000,2000",
                 "--out", str(out / f"sweep{n}")],
                capture_output=True, text=True, timeout=300, check=False,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            assert done.returncode == 0, done.stderr
            # the update time at the end of each line is the one timed figure
            logs.append([re.sub(r" \([0-9.]+s\)$", "", line)
                         for line in done.stderr.splitlines()])
        assert logs[0] == logs[1]
        assert [line.split(" lr=")[0] for line in logs[0]] == [
            f"epoch 2 [edac] eta={eta}" for eta in ("0", "0.5", "1000")]
        assert logs[0][2].endswith("capped=4/4")

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
        # without its record, so that eval attacks as it did before the record
        cfg, out = quick_config(**RANDOM_START)
        assert main(["train", "--config", str(cfg)]) == 0
        robust = history_column(out, "robust_acc_test")
        summary = json.loads((out / "summary.json").read_text())
        for name in ("best", "last"):
            strip_measured(out / f"{name}.ckpt")
            assert main(["eval", "--config", str(cfg),
                         "--checkpoint", str(out / f"{name}.ckpt")]) == 0
            report = json.loads((out / "eval.json").read_text())
            assert report["attacks"]["pgd5"]["robust_acc"] == robust[report["epoch"]]
            assert (report["attacks"]["l2"]["robust_acc"]
                    == summary["eval_attacks"]["l2"][f"{name}_robust_acc"])


def strip_measured(path):
    """Rewrite a checkpoint in place without the ``measured`` key, as
    checkpoints were written before it was kept."""
    def drop(header):
        header.pop("measured", None)
        return header

    rewrite_checkpoint(path, path, edit_header=drop)


def strip_summary_passes(path):
    """Rewrite a checkpoint in place with only its history row's passes
    recorded, as if ``summary.json`` had made none."""
    def drop(header):
        measured = header["measured"]
        measured["passes"] = [e for e in measured["passes"]
                              if e["attack"] == measured["attack"]]
        return header

    rewrite_checkpoint(path, path, edit_header=drop)


def eval_outputs(cfg, ckpt, out):
    """``advlab eval`` and ``advlab heatmap`` on both splits of ``ckpt``:
    {file name: bytes} of what they write to ``out``."""
    common = ["--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out)]
    assert main(["eval", *common]) == 0
    for split in SPLITS:
        assert main(["heatmap", *common, "--split", split]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture
def passes(monkeypatch):
    """The passes that eval and heatmap make, as (function, attack) in call
    order: an attack pass is ``train.attacked_stats``, which
    ``checkpoint_pass`` calls, and a clean-accuracy pass is
    ``cli.clean_accuracy``, with attack None."""
    seen = []

    def spy(owner, name):
        fn = getattr(owner, name)

        def counted(model, dataset, *rest):
            seen.append((name, rest[0] if rest else None))
            return fn(model, dataset, *rest)

        monkeypatch.setattr(owner, name, counted)

    spy(train_mod, "attacked_stats")
    spy(cli, "clean_accuracy")
    return seen


# an [eval.*] attack with gradient steps that equals no other attack
PGD3 = {"[eval.clean]": "[eval.pgd3]\nnorm = linf\nepsilon = 0.25\nstep_size = 0.1\n"
                        "steps = 3\n\n[eval.clean]"}
EDAC = {"method = at": "method = edac\nedac_eta = 0.05"}
RECORD_CASES = {
    "at": PGD3,
    "at_trades": {**PGD3, "method = at": "method = at\nobjective = trades"},
    "edac": {**PGD3, **EDAC},
    "edac_trades": {**PGD3, "method = at": "method = edac\nedac_eta = 0.05\nobjective = trades"},
    "edac_reg_trades": {**PGD3, "method = at": "method = edac_reg\nobjective = trades"},
    "edac_reg": {**PGD3, "method = at": "method = edac_reg"},
    # random starts on [train.eval_attack], [eval.pgd5] (equal to it) and [eval.l2]
    "random_start_tanh": {**RANDOM_START, **EDAC, "activation = relu": "activation = tanh"},
}
# with three epochs, best is last for seed 3 and not for seed 5 (method at)
SEEDS = {"3": True, "5": False}


class TestRecordedEvaluation:
    """A checkpoint's ``measured`` record stands in for every pass of
    ``advlab eval`` and ``advlab heatmap`` that ``advlab train`` made at its
    weights, with the same bytes out; anything else is attacked as before."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", sorted(SEEDS))
    @pytest.mark.parametrize("case", sorted(RECORD_CASES))
    def test_record_writes_the_bytes_of_the_passes(self, quick_config, passes,
                                                   worker_count, case, seed, n):
        worker_count(n)
        cfg, out = quick_config(**RECORD_CASES[case], **{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(cfg), "--seed", seed]) == 0
        summary = json.loads((out / "summary.json").read_text())
        if case == "at":
            assert (summary["best_epoch"] == summary["last_epoch"]) == SEEDS[seed]
        config = load_config(cfg)
        attacks = [atk for _, atk in sorted(config.eval_attacks.items())]
        other_attacks = [atk for atk in attacks if atk != config.train.eval_attack]
        assert len(other_attacks) < len(attacks)
        assert any(atk.steps > 0 for atk in other_attacks)
        for name in ("best", "last"):
            ckpt = out / f"{name}.ckpt"
            passes.clear()
            recorded = eval_outputs(cfg, ckpt, out / f"recorded_{name}")
            assert passes == []
            assert sorted(recorded) == ["eval.json", "heatmap_test.csv", "heatmap_train.csv",
                                        "label_variance_test.csv",
                                        "label_variance_train.csv"]
            report = json.loads(recorded["eval.json"])
            assert {k: report["attacks"][k]["robust_acc"] for k in config.eval_attacks} == {
                k: summary["eval_attacks"][k][f"{name}_robust_acc"] for k in config.eval_attacks}
            # without the passes made for summary.json, they are made again
            strip_summary_passes(ckpt)
            assert eval_outputs(cfg, ckpt, out / f"no_passes_{name}") == recorded
            assert passes == [("attacked_stats", atk) for atk in other_attacks]
            strip_measured(ckpt)
            passes.clear()
            attacked = eval_outputs(cfg, ckpt, out / f"attacked_{name}")
            assert passes == [("clean_accuracy", None),
                              *(("attacked_stats", atk) for atk in attacks),
                              *[("attacked_stats", config.train.eval_attack)] * 2]
            assert recorded == attacked

    def fallback(self, cfg, ckpt, out, passes, attacked):
        """eval and heatmap of ``ckpt`` under ``cfg``, which differs from the
        run's: assert that the passes made are a clean-accuracy pass or not,
        then one of each attack named in ``attacked`` and both heatmaps, and
        that the bytes equal those of the checkpoint without its record.
        Returns whether the clean accuracy was computed."""
        passes.clear()
        recorded = eval_outputs(cfg, ckpt, out / "recorded")
        made = list(passes)
        strip_measured(ckpt)
        passes.clear()
        assert eval_outputs(cfg, ckpt, out / "attacked") == recorded
        config = load_config(cfg)
        heatmaps = [("attacked_stats", config.train.eval_attack)] * 2
        assert passes == [("clean_accuracy", None),
                          *(("attacked_stats", atk)
                            for _, atk in sorted(config.eval_attacks.items())), *heatmaps]
        clean = made[:1] == [("clean_accuracy", None)]
        assert made[clean:] == [*(("attacked_stats", config.eval_attacks[name])
                                  for name in sorted(attacked)), *heatmaps]
        return clean

    def test_other_step_size(self, quick_config, passes):
        cfg, out = quick_config(**PGD3)
        assert main(["train", "--config", str(cfg)]) == 0
        other, other_out = quick_config(out_name="other", **PGD3,
                                        **{"step_size = 0.0625": "step_size = 0.05"})
        # the data and weights are the run's: the clean accuracy and the
        # unchanged pgd3 and clean attacks are read
        assert not self.fallback(other, out / "last.ckpt", other_out, passes, ["pgd5"])

    def test_other_data_seed(self, quick_config, passes):
        cfg, out = quick_config(**PGD3)
        assert main(["train", "--config", str(cfg)]) == 0
        other, other_out = quick_config(out_name="other", **PGD3, **{"seed = 5": "seed = 6"})
        assert self.fallback(other, out / "last.ckpt", other_out, passes,
                             ["clean", "pgd3", "pgd5"])

    def test_idx_file_changed_on_disk(self, tmp_path, passes):
        rng = np.random.default_rng(0)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        images = rng.integers(0, 256, size=(80, 4, 4), dtype=np.uint8)
        ip.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", 80, 4, 4)
                       + images.tobytes())
        lp.write_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", 80)
                       + bytes(i % 3 for i in range(80)))
        text = QUICK.format(out=tmp_path / "run")
        dataset = text[text.index("[dataset]"):text.index("[model]")]
        cfg = tmp_path / "idx.ini"
        cfg.write_text(text.replace(dataset, f"[dataset]\nkind = idx\nimages = {ip}\n"
                                             f"labels = {lp}\ntrain_fraction = 0.75\n\n"))
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "last.ckpt"
        passes.clear()
        eval_outputs(cfg, ckpt, tmp_path / "unchanged")
        assert passes == []
        images[:, 0, 0] ^= 1  # one bit in each image, so both splits change
        ip.write_bytes(ip.read_bytes()[:16] + images.tobytes())
        assert self.fallback(cfg, ckpt, tmp_path, passes, ["clean", "pgd5"])

    def test_checkpoint_without_record(self, quick_config, passes):
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        strip_measured(out / "last.ckpt")
        assert load_checkpoint(out / "last.ckpt").measured is None
        assert self.fallback(cfg, out / "last.ckpt", out, passes, ["clean", "pgd5"])

    @pytest.mark.parametrize("with_passes", [False, True])
    def test_counts_format_record_is_not_read(self, quick_config, passes, with_passes):
        # the record as earlier versions wrote it: K x K confusion counts per
        # split, and with or without the weights' digest and the passes made
        # for summary.json, built here from the predictions
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        datasets = load_config(cfg).build_datasets()

        def counts_format(header):
            measured = header["measured"]

            def confusion(entry):
                labels = datasets[SPLITS.index(entry["split"])].labels
                return confusion_counts(labels, decode_preds(entry["preds"]), 3).tolist()

            row = [e for e in measured["passes"] if e["attack"] == measured["attack"]]
            record = {"attack": measured["attack"]}
            for entry in row:
                record[entry["split"]] = {"sha256": measured["sha256"][entry["split"]],
                                          "confusion": confusion(entry)}
            if with_passes:
                record["params_sha256"] = measured["params_sha256"]
                record["passes"] = [{"attack": e["attack"], "confusion": confusion(e),
                                     "ac": e["ac"]}
                                    for e in measured["passes"] if e not in row]
            header["measured"] = record
            return header

        ckpt = out / "last.ckpt"
        rewrite_checkpoint(ckpt, ckpt, edit_header=counts_format)
        assert load_checkpoint(ckpt).measured is None
        sweep = ["sweep", "--config", str(cfg), "--checkpoint", str(ckpt), "--etas", "0,0.05"]
        assert main(sweep + ["--out", str(out / "sweep_counts")]) == 0
        assert self.fallback(cfg, ckpt, out, passes, ["clean", "pgd5"])
        assert main(sweep + ["--out", str(out / "sweep_stripped")]) == 0
        assert ((out / "sweep_counts" / "sweep.csv").read_bytes()
                == (out / "sweep_stripped" / "sweep.csv").read_bytes())

    def test_false_clean_pass_is_refused(self, quick_config, tmp_path):
        # [eval.clean] moves no input, so its accuracy must be the row's
        # clean accuracy
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        bad = tmp_path / "false.ckpt"
        labels = load_config(cfg).build_datasets()[1].labels
        rewrite_checkpoint(out / "last.ckpt", bad, edit_header=edit_preds(CLEAN,
                                                                          one_wrong(labels)))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 4

    @pytest.mark.parametrize("edit", ["one_wrong", "short"])
    def test_false_history_pass_is_refused(self, quick_config, tmp_path, edit):
        # the train-split pass of the history row must give its
        # robust_acc_train and have a prediction per row; the test split's
        # pass is still read
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        bad = tmp_path / "false.ckpt"
        labels = load_config(cfg).build_datasets()[0].labels
        rewrite_checkpoint(out / "last.ckpt", bad, edit_header=edit_preds(
            TRAIN_ROW, one_wrong(labels) if edit == "one_wrong" else lambda p: p[:-1]))
        common = ["--config", str(cfg), "--checkpoint", str(bad)]
        assert main(["heatmap", *common, "--split", "test"]) == 0
        assert main(["heatmap", *common, "--split", "train"]) == 4

    def test_lookup_error_names_the_checkpoint(self, quick_config, capsys):
        # the test pass of the history row is one row short: eval and the
        # test heatmap refuse it, as load_checkpoint refuses a bad header
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = out / "last.ckpt"
        rewrite_checkpoint(ckpt, ckpt, edit_header=edit_preds(TEST_ROW, lambda p: p[:-1]))
        capsys.readouterr()
        common = ["--config", str(cfg), "--checkpoint", str(ckpt)]
        for command in (["eval", *common], ["heatmap", *common, "--split", "test"]):
            assert main(command) == 4
            assert capsys.readouterr().err == (
                f"checkpoint error: {ckpt}: a recorded test pass has 59 predictions "
                "for 60 rows\n")

    def test_passes_are_read_on_the_test_split_only(self, quick_config, passes):
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        config = load_config(cfg)
        train_set, test_set = config.build_datasets()
        ckpt = load_checkpoint(out / "last.ckpt")
        clean = config.eval_attacks["clean"]
        passes.clear()
        read, confusion, ac = train_mod.checkpoint_pass(ckpt, 1, test_set, clean)
        assert read is ckpt and passes == []
        recorded = ckpt.measured.passes[CLEAN]
        assert (recorded.split, recorded.attack) == ("test", clean)
        assert (confusion.tolist(), ac) == (
            confusion_counts(test_set.labels, recorded.preds, 3).tolist(), recorded.ac)
        # the train split's pass of [eval.clean] is made, and recorded
        made, _, _ = train_mod.checkpoint_pass(ckpt, 0, train_set, clean)
        assert passes == [("attacked_stats", clean)]
        assert [(p.split, p.attack) for p in made.measured.passes] == [
            (p.split, p.attack) for p in ckpt.measured.passes] + [("train", clean)]

    def test_record_on_other_weights_is_not_read(self, quick_config, passes, tmp_path):
        # best.ckpt's header on last.ckpt's payload gives last's figures
        cfg, out = quick_config(**PGD3, **{"epochs = 2": "epochs = 3"})
        assert main(["train", "--config", str(cfg), "--seed", "5"]) == 0
        raw = {}
        for name in ("best", "last"):
            blob = (out / f"{name}.ckpt").read_bytes()
            (hlen,) = struct.unpack("<I", blob[8:12])
            raw[name] = (blob[:12 + hlen], blob[12 + hlen:])
        spliced = tmp_path / "spliced.ckpt"
        spliced.write_bytes(raw["best"][0] + raw["last"][1])
        passes.clear()
        got = eval_outputs(cfg, spliced, tmp_path / "spliced")
        config = load_config(cfg)
        assert passes == [("clean_accuracy", None),
                          *(("attacked_stats", atk)
                            for _, atk in sorted(config.eval_attacks.items())),
                          *[("attacked_stats", config.train.eval_attack)] * 2]
        want = eval_outputs(cfg, out / "last.ckpt", tmp_path / "last")
        report, want_report = (json.loads(files.pop("eval.json")) for files in (got, want))
        assert report.pop("epoch") == load_checkpoint(out / "best.ckpt").epoch
        assert want_report.pop("epoch") == load_checkpoint(out / "last.ckpt").epoch
        del report["checkpoint"], want_report["checkpoint"]
        assert report == want_report
        assert got == want


class TestGradcheckCommand:
    def test_passes_with_default_h(self, quick_config):
        cfg, _ = quick_config()
        assert main(["gradcheck", "--config", str(cfg), "--cases", "10"]) == 0

    def test_h_sweep_all_pass(self, quick_config):
        cfg, _ = quick_config()
        for h in ("1e-4", "1e-5", "1e-6"):
            assert main(["gradcheck", "--config", str(cfg), "--cases", "5", "--h", h]) == 0

    @pytest.mark.parametrize("flags", [["--cases", "0"], ["--cases", "-3"],
                                       ["--tolerance", "inf"], ["--tolerance", "nan"],
                                       ["--tolerance", "0"], ["--tolerance=-1e-4"]])
    def test_gate_that_checks_nothing_exit_2(self, quick_config, capsys, flags):
        # no case checked, or a tolerance that every error, or none, is below
        cfg, _ = quick_config()
        assert main(["gradcheck", "--config", str(cfg)] + flags) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_fault_injection_exit_5(self, quick_config, monkeypatch, capsys):
        def wrong(*args, **kwargs):
            grad, ac = robust_grad(*args, **kwargs)
            return grad * 1.05, ac

        monkeypatch.setattr(gradcheck, "robust_grad", wrong)
        cfg, _ = quick_config()
        assert main(["gradcheck", "--config", str(cfg), "--cases", "3"]) == 5
        assert "gradient check failed for: grad_params, grad_params_trades" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cases", [8, 100])
    def test_trades_gate_checks_the_cases_it_reports(self, monkeypatch, cases):
        # the TRADES gate is the first to look twice at one model (its draw,
        # then its perturbed batch); the first such second look is refused
        clear, last, refused, compared = gradcheck._clear_of_kinks, [None], [], []

        def refuse_once(model, x):
            if model is last[0] and not refused:
                refused.append(model)
                return False
            last[0] = model
            return clear(model, x)

        def spy(model, adv, objective):
            compared.append(objective.kind)
            return robust_grad(model, adv, objective)

        monkeypatch.setattr(gradcheck, "_clear_of_kinks", refuse_once)
        monkeypatch.setattr(gradcheck, "robust_grad", spy)
        results = gradcheck.run_all(cases=cases)
        assert len(refused) == 1
        assert results[1].name == "grad_params_trades"
        assert results[1].cases == compared.count("trades") == max(5, cases // 4)
        assert compared.count("at_ce") == cases


class TestCheckpointCompat:
    def test_checkpoint_loads_standalone(self, quick_config):
        cfg, out = quick_config()
        main(["train", "--config", str(cfg)])
        ck = load_checkpoint(out / "last.ckpt")
        assert ck.epoch == 1
        assert np.isfinite(ck.model.params.flatten()).all()

    def test_load_holds_one_copy_of_the_payload(self, quick_config):
        # a hidden layer wide enough that the payload, not the header's
        # passes, sets the peak
        cfg, out = quick_config(**{"hidden = 16": "hidden = 1024"})
        assert main(["train", "--config", str(cfg)]) == 0
        path = out / "last.ckpt"
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        payload = len(raw) - 12 - hlen
        load_checkpoint(path)  # first-call allocations are not the reader's
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload

    def test_documented_header_keys_are_the_written_ones(self, quick_config):
        doc = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        block = doc.split("Header keys:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        documented = re.findall(r'(?m)^  "(\w+)":', block)
        cfg, out = quick_config()
        assert main(["train", "--config", str(cfg)]) == 0
        raw = (out / "last.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        written = json.loads(raw[12:12 + hlen])
        assert sorted(documented) == sorted(written)
        measured = block.split('"measured": {', 1)[1]
        assert sorted(re.findall(r'(?m)^    "(\w+)":', measured)) == sorted(written["measured"])
        digests = re.search(r'(?m)^    "sha256": (\{.*\}),?$', measured).group(1)
        assert sorted(re.findall(r'"(\w+)":', digests)) == sorted(written["measured"]["sha256"])
        entries = re.findall(r'(?m)^      (\{.*\}),?$', measured)
        assert len(entries) == len(written["measured"]["passes"])
        for entry, pass_written in zip(entries, written["measured"]["passes"]):
            assert sorted(re.findall(r'"(\w+)":', entry)) == sorted(pass_written)
        # each record names every field of its attack, or a new field could
        # let another attack read it
        fields = sorted(f.name for f in dataclasses.fields(AttackConfig))
        assert sorted(written["measured"]["attack"]) == fields
        for pass_written in written["measured"]["passes"]:
            assert sorted(pass_written["attack"]) == fields


class TestSplitsBuilt:
    def test_each_command_generates_only_the_splits_it_reads(self, quick_config,
                                                             monkeypatch):
        cfg, out = quick_config()
        made = []
        real = data_mod.make_gaussian_mixture

        def spy(*args, **kwargs):
            made.append(kwargs["name"])
            return real(*args, **kwargs)

        monkeypatch.setattr(data_mod, "make_gaussian_mixture", spy)
        both = ["mixture/train", "mixture/test"]
        base = ["--config", str(cfg), "--checkpoint", str(out / "last.ckpt")]
        for command, want in [(["train", "--config", str(cfg)], both),
                              (["eval", *base], ["mixture/test"]),
                              (["heatmap", *base, "--split", "train"], ["mixture/train"]),
                              (["heatmap", *base, "--split", "test"], ["mixture/test"]),
                              (["sweep", *base, "--etas", "0"], both)]:
            made.clear()
            assert main(command) == 0
            assert made == want, command


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["train", "eval", "heatmap", "sweep"])
    def test_output_directory_that_cannot_be_made_exit_2_before_any_work(
            self, quick_config, tmp_path, monkeypatch, capsys, command):
        cfg, out = quick_config()
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [command, "--config", str(cfg), "--out", str(blocker / "sub")]
        if command != "train":
            assert main(["train", "--config", str(cfg)]) == 0
            argv += ["--checkpoint", str(out / "last.ckpt")]
        if command == "sweep":
            argv += ["--etas", "0"]
        ran = []
        for name in ("train_run", "checkpoint_pass", "clean_accuracy", "stepsize_sweep"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {blocker / 'sub'}: Not a directory\n")
        assert ran == []

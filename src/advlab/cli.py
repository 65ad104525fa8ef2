"""Command-line entry points: train, eval, heatmap, sweep, gradcheck.

Exit codes are a published contract: 0 success, 2 configuration or data
error, 3 numeric failure, 4 checkpoint error, 5 gradient check failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import gradcheck as gradcheck_mod
from .config import ExperimentConfig, load_config
from .data import Dataset
from .diagnostics import (
    CSV_COLUMNS,
    clean_accuracy,
    confusion_accuracy,
    heatmap_from_confusion,
    label_level_variance,
    overfitting_gap,
    stepsize_sweep,
)
# bench/tracing.py patches these
from .diagnostics import compute_heatmap, dataset_certainty, robust_accuracy  # noqa: F401
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    NumericError,
    ShapeError,
    TrainingAborted,
)
from .train import (
    SPLITS,
    Checkpoint,
    checkpoint_pass,
    load_checkpoint,
    record_fits,
    save_checkpoint,
    train_run,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECKPOINT = 4
EXIT_GRADCHECK = 5

log = logging.getLogger("advlab")


def _fmt(value) -> str:
    """Shortest round-trip decimal text; stable across runs."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_history_csv(path, history) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in history:
        d = row.to_dict()
        lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_history_json(path, history) -> None:
    rows = [row.to_dict() for row in history]
    Path(path).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_heatmap_csv(path, heatmap) -> None:
    names = [f"class_{k}" for k in range(heatmap.num_classes)]
    lines = [",".join(names)]
    for row in heatmap.matrix:
        lines.append(",".join(_fmt(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_variance_csv(path, variances) -> None:
    names = [f"class_{k}" for k in range(len(variances))]
    lines = [",".join(names), ",".join(_fmt(float(v)) for v in variances)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(path, rows) -> None:
    lines = ["eta,ac_train,robust_acc_test,ok"]
    for r in rows:
        lines.append(
            f"{_fmt(r.eta)},{_fmt(r.ac_train)},{_fmt(r.robust_acc_test)},{str(r.ok).lower()}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary(config: ExperimentConfig, history, best: Checkpoint, last: Checkpoint,
             test_set: Dataset):
    """(the run's figures, best, last). Each ``[eval.*]`` attack's robust
    accuracy at a checkpoint comes from ``checkpoint_pass``: the history
    row's pass, or a pass made here, one per checkpoint and one in all when
    the best checkpoint is the last, which the checkpoint returned records."""
    best_r, last_r, gap = overfitting_gap(history)
    ckpts = [best] if best is last else [best, last]
    per_attack = {}
    for name, atk in sorted(config.eval_attacks.items()):
        accs = []
        for i, ckpt in enumerate(ckpts):
            ckpts[i], confusion, _ = checkpoint_pass(ckpt, 1, test_set, atk)
            accs.append(confusion_accuracy(confusion))
        per_attack[name] = {"best_robust_acc": accs[0], "last_robust_acc": accs[-1]}
    best, last = ckpts[0], ckpts[-1]
    summary = {
        "method": config.train.method,
        "seed": config.train.seed,
        "epochs": config.train.epochs,
        "best_epoch": best.epoch,
        "last_epoch": last.epoch,
        "best_robust_acc_test": best_r,
        "last_robust_acc_test": last_r,
        "overfitting_gap": gap,
        "clean_acc_test_last": history[-1].clean_acc_test,
        "ac_train_best": best.metrics_row.ac_train,
        "ac_train_last": last.metrics_row.ac_train,
        "ac_train_curve": [row.ac_train for row in history],
        "ac_test_curve": [row.ac_test for row in history],
        "robust_acc_test_curve": [row.robust_acc_test for row in history],
        "eval_attacks": per_attack,
    }
    return summary, best, last


def _make_out_dir(config: ExperimentConfig) -> Path:
    """The config's output directory, made if missing, before a command does
    any work; one that cannot be made is a config error."""
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


def cmd_train(args) -> int:
    config = load_config(args.config).with_overrides(seed=args.seed, out_dir=args.out)
    out_dir = _make_out_dir(config)
    train_set, test_set = config.build_datasets()
    spec = config.model_spec(train_set)
    try:
        last, best, history = train_run(config.train, (train_set, test_set), spec)
    except TrainingAborted as exc:
        if exc.checkpoint is not None:
            save_checkpoint(exc.checkpoint, out_dir / "aborted.ckpt")
        # a config or data error keeps its own exit code and message
        if isinstance(exc.__cause__, (ConfigError, DataFormatError, ShapeError)):
            raise exc.__cause__
        epoch = exc.checkpoint.epoch if exc.checkpoint else "none completed"
        print(f"numeric failure: {exc} (last completed epoch: {epoch})", file=sys.stderr)
        return EXIT_NUMERIC
    write_history_csv(out_dir / "history.csv", history)
    if "json" in config.formats:
        write_history_json(out_dir / "history.json", history)
    try:
        summary, best, last = _summary(config, history, best, last, test_set)
    finally:
        # with the passes of summary.json recorded, or as trained if one failed
        save_checkpoint(best, out_dir / "best.ckpt")
        save_checkpoint(last, out_dir / "last.ckpt")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"trained method={summary['method']} seed={summary['seed']}: "
        f"best robust {summary['best_robust_acc_test']:.4f} (epoch {summary['best_epoch']}), "
        f"last robust {summary['last_robust_acc_test']:.4f}, gap {summary['overfitting_gap']:.4f}"
    )
    return EXIT_OK


def _load_checkpoint_for(config: ExperimentConfig, path, dataset: Dataset) -> Checkpoint:
    """Load a checkpoint whose architecture fits the config, with the model
    spec taken from ``dataset``: whichever split the command built, since
    every split of a config has the same input width and class count.

    Only the architecture is compared, not ``init_seed``: a checkpoint made
    by ``advlab train --seed N`` fits its config whatever seed that names.
    """
    ckpt = load_checkpoint(path)
    want = config.model_spec(dataset)
    if replace(ckpt.model.spec, init_seed=want.init_seed) != want:
        raise CheckpointError(
            f"{path}: checkpoint spec {ckpt.model.spec} does not match the config"
        )
    return ckpt


def _checkpoint_pass(path, checkpoint: Checkpoint, split, dataset: Dataset, attack):
    """``checkpoint_pass`` of the checkpoint loaded from ``path``; a
    ``CheckpointError`` names the path, as ``load_checkpoint``'s do."""
    try:
        return checkpoint_pass(checkpoint, split, dataset, attack)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def cmd_eval(args) -> int:
    """Clean accuracy and each attack's figures on the test split, the only
    split it builds. The clean accuracy is the history row's when the
    checkpoint's record fits the split (``record_fits``); each attack's
    figures come from ``checkpoint_pass``, which reads a recorded pass or
    makes one."""
    config = load_config(args.config).with_overrides(out_dir=args.out)
    (test_set,) = config.build_datasets(("test",))
    ckpt = _load_checkpoint_for(config, args.checkpoint, test_set)
    out_dir = _make_out_dir(config)
    attacks = dict(config.eval_attacks) or {"eval": config.train.eval_attack}
    report = {
        "checkpoint": str(args.checkpoint),
        "epoch": ckpt.epoch,
        "clean_acc_test": (ckpt.metrics_row.clean_acc_test if record_fits(ckpt, 1, test_set)
                           else clean_accuracy(ckpt.model, test_set)),
        "attacks": {},
    }
    print(f"checkpoint epoch {ckpt.epoch}: clean accuracy {report['clean_acc_test']:.4f}")
    for name, atk in sorted(attacks.items()):
        _, confusion, ac = _checkpoint_pass(args.checkpoint, ckpt, 1, test_set, atk)
        racc = confusion_accuracy(confusion)
        report["attacks"][name] = {"robust_acc": racc, "ac": ac}
        print(f"  {name}: robust accuracy {racc:.4f}, certainty {ac:.4f}")
    (out_dir / "eval.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def cmd_heatmap(args) -> int:
    """The heatmap and label-level variance of ``[train.eval_attack]`` on the
    ``--split`` split, the only split it builds, from the counts of
    ``checkpoint_pass``."""
    config = load_config(args.config).with_overrides(out_dir=args.out)
    (dataset,) = config.build_datasets((args.split,))
    ckpt = _load_checkpoint_for(config, args.checkpoint, dataset)
    out_dir = _make_out_dir(config)
    _, confusion, _ = _checkpoint_pass(args.checkpoint, ckpt, SPLITS.index(args.split), dataset,
                                       config.train.eval_attack)
    hm = heatmap_from_confusion(confusion)
    variances = label_level_variance(hm)
    write_heatmap_csv(out_dir / f"heatmap_{args.split}.csv", hm)
    write_variance_csv(out_dir / f"label_variance_{args.split}.csv", variances)
    print(f"heatmap over {args.split}: mean label-level variance {variances.mean():.4f}")
    return EXIT_OK


def _parse_etas(raw) -> list:
    try:
        etas = [float(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid eta list {raw!r}: {exc}") from exc
    if not etas or not all(0.0 <= e < float("inf") for e in etas):
        raise ConfigError(f"eta list must be non-empty, finite and non-negative, got {raw!r}")
    return etas


def cmd_sweep(args) -> int:
    config = load_config(args.config).with_overrides(out_dir=args.out)
    etas = _parse_etas(args.etas)
    train_set, test_set = config.build_datasets()
    ckpt = _load_checkpoint_for(config, args.checkpoint, train_set)
    # continue with the checkpoint's own training seed, so eta = 0 reproduces
    # the run that wrote it
    train_cfg = replace(config.train, seed=ckpt.base_seed)
    out_dir = _make_out_dir(config)
    rows = stepsize_sweep(ckpt, (train_set, test_set), etas, train_cfg)
    write_sweep_csv(out_dir / "sweep.csv", rows)
    for r in rows:
        status = "ok" if r.ok else "failed"
        if r.same_as is not None:
            status += f", same as eta {r.same_as:g}: capped on every batch"
        print(f"eta {r.eta:g}: ac_train {r.ac_train:.4f} robust_acc_test "
              f"{r.robust_acc_test:.4f} [{status}]")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not 0 < args.tolerance < float("inf"):
        raise ConfigError(f"tolerance must be finite and positive, got {args.tolerance}")
    config = load_config(args.config)
    results = gradcheck_mod.run_all(
        cases=args.cases, h=args.h, attack=config.train.train_attack,
    )
    failed = [r for r in results if not r.ok(args.tolerance)]
    for r in results:
        status = "ok" if r.ok(args.tolerance) else "FAIL"
        print(f"{r.name}: {r.cases} cases, max relative error {r.max_rel_err:.3e} [{status}]")
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"gradient check failed for: {names}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advlab",
        description="Desk-scale adversarial training laboratory",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-epoch metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a full training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="override the output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override the training seed")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint under the named attacks")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_hm = sub.add_parser("heatmap", help="predicted-label heatmap of a checkpoint")
    p_hm.add_argument("--config", required=True)
    p_hm.add_argument("--checkpoint", required=True)
    p_hm.add_argument("--split", choices=SPLITS, default="train")
    p_hm.add_argument("--out", default=None)
    p_hm.set_defaults(fn=cmd_heatmap)

    p_sw = sub.add_parser("sweep", help="one-epoch continuation per certainty step size")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--checkpoint", required=True)
    p_sw.add_argument("--etas", required=True, help="comma-separated step sizes")
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(fn=cmd_sweep)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient gate")
    p_gc.add_argument("--config", required=True)
    p_gc.add_argument("--cases", type=int, default=100)
    p_gc.add_argument("--h", type=float, default=1e-5)
    p_gc.add_argument("--tolerance", type=float, default=gradcheck_mod.DEFAULT_TOLERANCE)
    p_gc.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, ShapeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

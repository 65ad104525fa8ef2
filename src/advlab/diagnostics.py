"""Measurement instruments: accuracy under attack, predicted-label heatmaps,
label-level variance, overfitting and certainty gaps, and the extragradient
step-size sweep."""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .attack import AttackConfig, draw_start, generate_batch
from .autodiff import row_std_value
from .data import Dataset, slices
from .errors import CheckpointError, ConfigError, NumericError, ShapeError, TrainingAborted
from .netcore import ModelState, forward_logits, predict_label

CSV_COLUMNS = (
    "epoch", "method", "lr",
    "clean_acc_train", "clean_acc_test",
    "robust_acc_train", "robust_acc_test",
    "ac_train", "ac_test",
)


@dataclass(frozen=True)
class MetricsRecord:
    """One epoch's measurements.

    ``wall_time_s`` (the update phase's seconds) and ``capped_batches`` (how
    many of the epoch's batches had their certainty half step cut by the
    Polyak cap) are kept in memory for the log and the sweep. Neither is
    persisted: every artifact writes ``wall_time_s`` as 0.0 and omits
    ``capped_batches``, so reruns with identical seeds stay byte-identical.
    """

    epoch: int
    method: str
    lr: float
    clean_acc_train: float
    clean_acc_test: float
    robust_acc_train: float
    robust_acc_test: float
    ac_train: float
    ac_test: float
    wall_time_s: float = 0.0
    capped_batches: int = 0

    def __post_init__(self):
        for field in ("clean_acc_train", "clean_acc_test", "robust_acc_train",
                      "robust_acc_test"):
            v = getattr(self, field)
            if not 0.0 <= v <= 1.0:
                raise NumericError(f"{field}={v} outside [0, 1]")
        for field in ("ac_train", "ac_test"):
            v = getattr(self, field)
            if not 0.0 <= v < float("inf"):
                raise NumericError(f"{field}={v} must be finite and non-negative")

    def to_dict(self):
        d = {name: getattr(self, name) for name in CSV_COLUMNS}
        d["wall_time_s"] = 0.0
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(
            epoch=int(d["epoch"]), method=str(d["method"]), lr=float(d["lr"]),
            clean_acc_train=float(d["clean_acc_train"]),
            clean_acc_test=float(d["clean_acc_test"]),
            robust_acc_train=float(d["robust_acc_train"]),
            robust_acc_test=float(d["robust_acc_test"]),
            ac_train=float(d["ac_train"]), ac_test=float(d["ac_test"]),
            wall_time_s=float(d.get("wall_time_s", 0.0)),
        )


@dataclass(frozen=True)
class Heatmap:
    """Predicted-class frequencies conditioned on ground truth.

    Row j holds the distribution of predicted labels for attacked inputs of
    true class j; ``counts[j]`` is that class's example count. Classes absent
    from the dataset get an all-zero row and a zero count instead of NaNs.
    """

    matrix: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "counts", c)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or c.shape != (m.shape[0],):
            raise ShapeError("heatmap must be (K,K) with (K,) counts")
        if (m < 0).any() or (m > 1).any():
            raise NumericError("heatmap entries must lie in [0, 1]")
        filled = c > 0
        if filled.any():
            sums = m[filled].sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-12:
                raise NumericError("non-empty heatmap rows must sum to 1")

    @property
    def num_classes(self):
        return self.matrix.shape[0]

    @property
    def empty_classes(self):
        return tuple(int(j) for j in np.flatnonzero(self.counts == 0))


def _ensure_rng(rng):
    if rng is None or isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def clean_accuracy(model: ModelState, dataset: Dataset) -> float:
    correct = 0
    for piece in slices(dataset):
        correct += int((predict_label(model, piece.inputs) == piece.labels).sum())
    return correct / len(dataset)


def attacked_stats(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                   rng=None):
    """One attack pass per example: (robust accuracy, mean certainty, preds).

    The 256-row slices are split into ``Workers.count`` contiguous runs: the
    caller attacks the first, a forked worker each other one. The random
    starts are drawn here first, slice by slice in order, so ``rng`` is
    consumed as by one pass in sequence. The runs' figures are folded in
    slice order, so every result is the sequential one, bit for bit.
    """
    from .workers import Workers  # imported here: not on the command-line start-up path

    rng = _ensure_rng(rng)
    pieces = [(piece, draw_start(attack_config, rng, piece.inputs.shape))
              for piece in slices(dataset)]
    with Workers() as workers:
        runs = _contiguous_runs(pieces, workers.count)
        started = [workers.start(_attack_run, model, run, attack_config) for run in runs[1:]]
        outcomes = _attack_run(model, runs[0], attack_config)
        for call in started:
            outcomes += call.result()
    correct = 0
    spread_sum = 0.0  # added in order: sum() of floats compensates since Python 3.12
    for c, spread, _ in outcomes:
        correct += c
        spread_sum += spread
    n = len(dataset)
    return correct / n, spread_sum / n, np.concatenate([preds for _, _, preds in outcomes])


def _contiguous_runs(items, count):
    """``items`` cut into ``min(count, len(items))`` contiguous runs, none
    empty, whose lengths differ by at most one."""
    count = min(count, len(items))
    bounds = [len(items) * i // count for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _attack_run(model: ModelState, run, attack_config: AttackConfig):
    """(correct, spread sum, preds) of each (slice, random start) of a run."""
    out = []
    for piece, start in run:
        adv = generate_batch(model, piece, attack_config, start=start)
        logits = forward_logits(model, adv.perturbed)
        preds = np.argmax(logits, axis=-1)
        out.append((int((preds == piece.labels).sum()), float(row_std_value(logits).sum()),
                    preds))
    return out


def robust_accuracy(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                    rng=None) -> float:
    """Share of examples still classified correctly at the attack's output.

    The exhaustive inner maximisation is approximated by the configured
    attack; with epsilon 0 this equals the clean accuracy exactly.
    """
    return attacked_stats(model, dataset, attack_config, rng)[0]


def dataset_certainty(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                      rng=None) -> float:
    """Mean per-example logit spread on self-generated attacks."""
    return attacked_stats(model, dataset, attack_config, rng)[1]


def split_metrics(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                  rng=None):
    """(clean accuracy, robust accuracy, certainty) with a single attack pass."""
    robust, spread, _ = attacked_stats(model, dataset, attack_config, rng)
    return clean_accuracy(model, dataset), robust, spread


def compute_heatmap(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                    rng=None) -> Heatmap:
    """Exact predicted-class frequencies per ground-truth class on attacked
    inputs. Classes with no examples are flagged through a zero count."""
    k = model.spec.num_classes
    if dataset.num_classes > k:
        raise ShapeError(
            f"dataset has {dataset.num_classes} classes but model only {k}"
        )
    _, _, preds = attacked_stats(model, dataset, attack_config, rng)
    counts = np.bincount(dataset.labels, minlength=k).astype(np.int64)
    matrix = np.zeros((k, k))
    np.add.at(matrix, (dataset.labels, preds), 1.0)
    filled = counts > 0
    matrix[filled] /= counts[filled, None]
    return Heatmap(matrix, counts)


def label_level_variance(heatmap: Heatmap) -> np.ndarray:
    """Per-class population standard deviation of the heatmap rows."""
    return row_std_value(heatmap.matrix)


def overfitting_gap(history):
    """(best, last, best - last) of held-out robust accuracy over a history."""
    if not history:
        raise ShapeError("history must not be empty")
    robust = [row.robust_acc_test for row in history]
    best = max(robust)
    last = robust[-1]
    return best, last, best - last


def certainty_gap(best, last, dataset: Dataset, attack_config: AttackConfig,
                  rng=None) -> float:
    """Certainty of the last checkpoint minus certainty of the best one. Both
    passes start from the same random starts, so a checkpoint against itself
    gives 0."""
    if best.model.spec != last.model.spec:
        raise CheckpointError("checkpoints were trained from different model specs")
    rng = _ensure_rng(rng)
    ac_best = dataset_certainty(best.model, dataset, attack_config, copy.deepcopy(rng))
    ac_last = dataset_certainty(last.model, dataset, attack_config, rng)
    return ac_last - ac_best


@dataclass(frozen=True)
class SweepRow:
    """One sweep result. ``same_as`` is the step size of the earlier row
    whose result this row reuses, or None when the row was computed."""

    eta: float
    ac_train: float
    robust_acc_test: float
    ok: bool = True
    same_as: Optional[float] = None


def stepsize_sweep(checkpoint, data, etas, config) -> list:
    """Continue one extragradient epoch from a checkpoint for each step size.

    Every row is ``train_run`` resumed from the checkpoint for one epoch with
    the given certainty step size; it records that epoch's history-row
    training-split certainty and held-out robust accuracy. Rows whose
    training blows up are kept with NaNs and ``ok=False``. Rows come back in
    request order.

    A row is reused instead of trained when an earlier computed row proves
    its result. On each batch the half step is ``min(eta * f, cap_b)``, with
    ``f`` the epoch's decay factor and ``cap_b`` the Polyak step of that
    batch at the current weights. If row r ran to the end with the cap
    cutting every half step (``eta_r * f > cap_b`` on every batch), then
    any later row with ``eta >= eta_r`` also has ``eta * f > cap_b`` on the
    first batch, so it takes the same step from the same weights; by
    induction over the batches its weights, and so its metrics, are equal
    to row r's bit for bit. Such a row copies row r's numbers under its own
    eta and skips the continuation epoch and its evaluation. The eta = 0
    row, failed rows and rows with any uncut batch (including a zero
    certainty gradient) are never reused.

    Rows run in forked workers, as many at a time as ``Workers.count``, in
    request order. A row started before an earlier row came back capped is
    dropped and copied once that row covers it, so the rows and their
    ``same_as`` labels are the ones the rule above gives in sequence.
    """
    from .workers import Workers  # imported here: not on the command-line start-up path

    etas = [float(eta) for eta in etas]
    if not etas:
        raise ConfigError("etas must not be empty")
    for eta in etas:
        if eta < 0:
            raise ConfigError(f"step sizes must be non-negative, got {eta}")
    rows = []
    capped_rows = []  # computed rows whose half step the cap cut on every batch
    running = {}  # request index -> started row
    ahead = 0  # the next request index that may be started

    def source(eta):
        return next((r for r in capped_rows if eta >= r.eta), None)

    with Workers() as workers:
        for i, eta in enumerate(etas):
            copied = source(eta)
            if copied is not None:
                started = running.pop(i, None)
                if started is not None:
                    started.cancel()
                rows.append(replace(copied, eta=eta, same_as=copied.eta))
                continue
            # start this row, then later rows that no capped row covers yet
            while ahead < len(etas) and len(running) < workers.count:
                if source(etas[ahead]) is None:
                    cfg = replace(config, method="edac", edac_eta=etas[ahead],
                                  epochs=checkpoint.epoch + 2)
                    running[ahead] = workers.start(_sweep_row, checkpoint, data, cfg)
                ahead += 1
            row, capped = running.pop(i).result()
            rows.append(row)
            if capped:
                capped_rows.append(row)
    return rows


def _sweep_row(checkpoint, data, config):
    """One computed sweep row and whether the cap cut every half step."""
    # imported here to avoid a circular dependency with train
    from .train import batches_per_epoch, train_run

    try:
        _, _, (record,) = train_run(config, data, checkpoint.model, resume_from=checkpoint)
    except TrainingAborted as exc:
        if isinstance(exc.__cause__, (NumericError, FloatingPointError, OverflowError)):
            return SweepRow(config.edac_eta, float("nan"), float("nan"), False), False
        raise exc.__cause__
    capped = record.capped_batches == batches_per_epoch(data[0], config)
    return SweepRow(config.edac_eta, record.ac_train, record.robust_acc_test, True), capped

"""Measurement instruments: accuracy under attack, predicted-label heatmaps,
label-level variance, and overfitting and certainty gaps."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, draw_start, generate_batch
from .autodiff import row_std_value
from .data import SPLITS, Dataset, slices
from .errors import CheckpointError, NumericError, ShapeError
from .netcore import ModelState, forward_logits, predict_label

# the figures measured on each split, in the order ``split_metrics`` gives them
FIGURES = ("clean_acc", "robust_acc", "ac")
CSV_COLUMNS = ("epoch", "method", "lr",
               *(f"{figure}_{split}" for figure in FIGURES for split in SPLITS))


@dataclass(frozen=True)
class MetricsRecord:
    """One epoch's measurements: each of ``FIGURES`` on each split of
    ``SPLITS``, in fields named ``<figure>_<split>``.

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
        for field in CSV_COLUMNS[3:]:
            v = getattr(self, field)
            if field.startswith("ac_"):
                if not 0.0 <= v < float("inf"):
                    raise NumericError(f"{field}={v} must be finite and non-negative")
            elif not 0.0 <= v <= 1.0:
                raise NumericError(f"{field}={v} outside [0, 1]")

    def to_dict(self):
        d = {name: getattr(self, name) for name in CSV_COLUMNS}
        d["wall_time_s"] = 0.0
        return d

    @classmethod
    def from_dict(cls, d):
        """``to_dict``'s row; ``wall_time_s`` is not read: it is written as 0.0."""
        return cls(epoch=int(d["epoch"]), method=str(d["method"]),
                   **{name: float(d[name]) for name in CSV_COLUMNS[2:]})


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
    slice order, so every result is the sequential one, bit for bit. A pass
    without a gradient step (``as_pgd`` of 0 steps) is one forward per slice,
    cheaper than a fork, so it runs whole in the caller.
    """
    from .workers import Workers  # imported here: not on the command-line start-up path

    rng = _ensure_rng(rng)
    pieces = [(piece, draw_start(attack_config, rng, piece.inputs.shape))
              for piece in slices(dataset)]
    if attack_config.as_pgd().steps == 0:
        outcomes = _attack_run(model, pieces, attack_config)
    else:
        with Workers() as workers:
            runs = _contiguous_runs(pieces, workers.count)
            started = [workers.start(_attack_run, model, run, attack_config)
                       for run in runs[1:]]
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
    """(clean accuracy, robust accuracy, certainty, predicted labels) with a
    single attack pass; see ``attacked_stats``."""
    return (clean_accuracy(model, dataset),
            *attacked_stats(model, dataset, attack_config, rng))


def confusion_counts(labels, preds, num_classes) -> np.ndarray:
    """K x K int64 counts: entry (j, k) is how many examples of true class j
    were predicted as k."""
    k = num_classes
    return np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)


def confusion_accuracy(confusion) -> float:
    """The diagonal's share of the counts: the robust accuracy of the pass
    that made them, by the division that ``attacked_stats`` makes."""
    return int(np.trace(confusion)) / int(confusion.sum())


def heatmap_from_confusion(confusion) -> Heatmap:
    """The heatmap of K x K confusion counts: each filled row divided by its
    class's count."""
    counts = confusion.sum(axis=1)
    matrix = confusion.astype(np.float64)
    filled = counts > 0
    matrix[filled] /= counts[filled, None]
    return Heatmap(matrix, counts)


def compute_heatmap(model: ModelState, dataset: Dataset, attack_config: AttackConfig,
                    rng=None) -> Heatmap:
    """Exact predicted-class frequencies per ground-truth class on attacked
    inputs. Classes with no examples are flagged through a zero count."""
    k = model.spec.num_classes
    if dataset.num_classes > k:
        raise ShapeError(
            f"dataset has {dataset.num_classes} classes but model only {k}"
        )
    preds = attacked_stats(model, dataset, attack_config, rng)[2]
    return heatmap_from_confusion(confusion_counts(dataset.labels, preds, k))


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

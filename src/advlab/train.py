"""Optimizers, training loops and the step-size sweep.

Three per-batch update rules share one robust step: attack the batch at the
given weights, then one momentum SGD step on the surrogate loss over the
attacked inputs, plus an optional weight times their frozen certainty.

* ``at_update``: the robust step at the current weights.
* ``edac_update``: first a plain (momentum-free) descent step on the batch
  certainty with the attacks held frozen, then the robust step from the
  half-step weights. The half-step size is ``edac_eta`` decayed on the
  learning-rate schedule (``eta_at_epoch``), so both extragradient steps
  share one step-size sequence, and it is capped at the Polyak step
  ``ac / |g_ac|^2`` so that it never carries the linearised certainty past
  zero.
* ``edac_reg_update``: the robust step with certainty weight
  ``edac_reg_lambda``.

Every rule returns (model, optimizer state, ``StepReport``). With a zero
certainty step size (or zero lambda) the two variants compute ``at_update``'s
update and report and no other, so their trajectories match bitwise.

All randomness is derived statelessly from (config.seed, step index, stream
tag), which makes checkpoint resumption reproduce an uninterrupted run
bit for bit.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import os
import struct
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .attack import AttackConfig, generate_batch
from .data import SPLITS, Batch, Dataset, batches
from .diagnostics import (
    FIGURES,
    MetricsRecord,
    attacked_stats,
    confusion_accuracy,
    confusion_counts,
    split_metrics,
)
from .errors import (
    AdvlabError,
    CheckpointError,
    ConfigError,
    NumericError,
    ShapeError,
    TrainingAborted,
)
from .netcore import ModelSpec, ModelState, ParamVector, init_model
from .netcore import backward  # noqa: F401 (bench/tracing.py patches it)
from .objective import ObjectiveKind, certainty_value, grad_certainty_frozen, robust_grad

log = logging.getLogger(__name__)

METHODS = ("at", "edac", "edac_reg")

# stream tags for stateless seed derivation
STREAM_AC = 0
STREAM_ROB = 1
STREAM_EVAL = 2
STREAM_SHUFFLE = 3

_U64 = (1 << 64) - 1


def child_seed(*parts) -> int:
    """Stable 32-bit seed derived from integer parts via SeedSequence."""
    entropy = [int(p) & _U64 for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    train_attack: AttackConfig
    eval_attack: AttackConfig
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    lr_decay_epochs: tuple = ()
    lr_decay_factor: float = 0.1
    edac_eta: float = 0.1
    edac_reg_lambda: float = 0.5
    objective: ObjectiveKind = ObjectiveKind("at_ce")
    seed: int = 0
    method: str = "at"

    def __post_init__(self):
        object.__setattr__(self, "lr_decay_epochs",
                           tuple(int(e) for e in self.lr_decay_epochs))
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if any(e < 0 for e in self.lr_decay_epochs):
            raise ConfigError(f"lr_decay_epochs must be non-negative, got {self.lr_decay_epochs}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")
        if not self.edac_eta >= 0:
            raise ConfigError(f"edac_eta must be non-negative, got {self.edac_eta}")
        if not self.edac_reg_lambda >= 0:
            raise ConfigError(f"edac_reg_lambda must be non-negative, got {self.edac_reg_lambda}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class OptState:
    """Optimizer state: momentum buffer plus the deterministic step cursor."""

    momentum: ParamVector
    epoch: int = 0
    step: int = 0


@dataclass(frozen=True)
class StepReport:
    """An update's attacked-batch certainty before the half step and at the
    robust step, the half-step size used and whether the Polyak cap cut it;
    without a half step, ``ac_before == ac_after`` and ``eta`` is 0.0."""

    ac_before: float
    ac_after: float
    eta: float = 0.0
    capped: bool = False


@dataclass(frozen=True)
class Pass:
    """One attack pass over a split (a name in ``SPLITS``): the attack, each
    row's predicted label on the attacked inputs and their mean certainty
    ``ac``."""

    split: str
    attack: AttackConfig
    preds: np.ndarray
    ac: float


@dataclass(frozen=True)
class Measured:
    """The attack passes made at a checkpoint's weights. ``attack`` is the
    evaluation attack behind its history row, whose pass over each split is
    among ``passes``; the others are the test-split passes of other attacks
    that ``advlab train`` made for ``summary.json``. ``sha256`` maps each
    name in ``SPLITS`` to the sha256 of that split's data (``Dataset.sha256``)
    and ``params_sha256`` is that of the weights (``ParamVector.sha256``)."""

    attack: AttackConfig
    sha256: dict
    params_sha256: str
    passes: tuple


@dataclass(frozen=True)
class Checkpoint:
    """The weights after epoch ``epoch`` of the run seeded ``base_seed``,
    with their history row and, when ``train_run`` made them, the record of
    their attack passes. A run resumed from it continues at epoch
    ``epoch + 1``."""

    model: ModelState
    epoch: int
    optimizer_momentum: ParamVector
    base_seed: int
    metrics_row: MetricsRecord
    measured: Optional[Measured] = None


def _moves_no_input(attack: AttackConfig) -> bool:
    """Whether every input leaves ``attack`` unchanged, so that its pass
    gives the clean accuracy: a radius of 0, or an ``as_pgd`` of 0 steps
    with no random start, and no domain box to clip into."""
    pgd = attack.as_pgd()
    return attack.domain_clamp is None and (
        attack.epsilon == 0 or (pgd.steps == 0 and not pgd.random_start))


def record_fits(checkpoint: Checkpoint, split, dataset: Dataset) -> bool:
    """Whether the checkpoint's record was made at its weights over
    ``dataset`` as split ``split`` (a name in ``SPLITS``), so that its
    history row's figures on that split are ``dataset``'s."""
    measured = checkpoint.measured
    return (measured is not None and measured.sha256[split] == dataset.sha256
            and measured.params_sha256 == checkpoint.model.params.sha256())


def checkpoint_pass(checkpoint: Checkpoint, split, dataset: Dataset, attack: AttackConfig):
    """(checkpoint, confusion counts, mean certainty) of the pass of
    ``attack`` over ``dataset`` as split ``split`` (a name in ``SPLITS``) at
    the checkpoint's weights, seeded by ``eval_rng``.

    When the record fits (``record_fits``) and holds a pass of ``attack``
    over that split, the pass is read: made again, it would repeat that one
    bit for bit. Otherwise it is made, and when the record fits, the
    checkpoint returned records it. The counts are ``confusion_counts`` of
    the predictions. A pass read that has not one prediction per row, that
    does not give the row's robust accuracy and certainty when it is the
    row's pass, or that does not give the row's clean accuracy when its
    attack moves no input (``_moves_no_input``) raises ``CheckpointError``.
    """
    measured = checkpoint.measured
    fits = record_fits(checkpoint, split, dataset)
    found = next((p for p in measured.passes if p.split == split and p.attack == attack),
                 None) if fits else None
    num_classes = checkpoint.model.spec.num_classes
    if found is None:
        rng = eval_rng(attack, checkpoint.base_seed, checkpoint.epoch, split)
        _, ac, preds = attacked_stats(checkpoint.model, dataset, attack, rng)
        if fits:
            checkpoint = replace(checkpoint, measured=replace(
                measured, passes=measured.passes + (Pass(split, attack, preds, ac),)))
        return checkpoint, confusion_counts(dataset.labels, preds, num_classes), ac
    if len(found.preds) != len(dataset):
        raise CheckpointError(f"a recorded {split} pass has {len(found.preds)} predictions "
                              f"for {len(dataset)} rows")
    confusion = confusion_counts(dataset.labels, found.preds, num_classes)
    accuracy = confusion_accuracy(confusion)
    row = checkpoint.metrics_row
    if attack == measured.attack and (accuracy, found.ac) != (
            getattr(row, f"robust_acc_{split}"), getattr(row, f"ac_{split}")):
        raise CheckpointError(f"the recorded {split} pass of the history row's attack does not "
                              f"give robust_acc_{split} and ac_{split}")
    if _moves_no_input(attack) and accuracy != getattr(row, f"clean_acc_{split}"):
        raise CheckpointError(f"a recorded {split} pass that moves no input does not give "
                              f"clean_acc_{split}")
    return checkpoint, confusion, found.ac


def _descend(params: ParamVector, direction: ParamVector, size) -> ParamVector:
    """``params - direction * size``, computed into one fresh flat array."""
    params._check_layout(direction)
    step = direction.flatten() * float(size)
    return ParamVector.views(np.subtract(params.flatten(), step, out=step), params.layout())


def sgd_step(params: ParamVector, grad: ParamVector, lr, momentum, momentum_buffer):
    """Classical momentum update: v <- m*v + g, theta <- theta - lr*v."""
    momentum_buffer._check_layout(grad)
    v = momentum_buffer.flatten() * float(momentum)
    v += grad.flatten()
    v = ParamVector.views(v, momentum_buffer.layout())
    return _descend(params, v, lr), v


def _decay(config: TrainConfig, epoch) -> float:
    """The decay factor raised to the number of decay epochs reached."""
    if epoch < 0:
        raise ConfigError(f"epoch must be non-negative, got {epoch}")
    n = sum(1 for d in config.lr_decay_epochs if d <= epoch)
    return config.lr_decay_factor ** n


def lr_at_epoch(config: TrainConfig, epoch) -> float:
    """Base rate times the decay factor once per decay epoch reached."""
    return config.lr * _decay(config, epoch)


def eta_at_epoch(config: TrainConfig, epoch) -> float:
    """Certainty half-step size: ``edac_eta`` on the same decay schedule as lr."""
    return config.edac_eta * _decay(config, epoch)


def _train_rng(config: TrainConfig, opt: OptState, stream):
    if not config.train_attack.random_start:
        return None
    return np.random.default_rng(child_seed(config.seed, opt.step, stream))


def _apply_sgd(model: ModelState, grad: ParamVector, config: TrainConfig, opt: OptState):
    lr = lr_at_epoch(config, opt.epoch)
    new_params, new_buf = sgd_step(model.params, grad, lr, config.momentum, opt.momentum)
    if not new_params.allfinite():
        raise NumericError(f"non-finite parameters after update at epoch {opt.epoch}")
    return ModelState(model.spec, new_params), OptState(new_buf, opt.epoch, opt.step + 1)


def _robust_step(model: ModelState, batch: Batch, config: TrainConfig, opt_state: OptState,
                 certainty_weight=0.0):
    """Attack at ``model``, then one SGD step on the robust surrogate plus
    ``certainty_weight`` times the attacked batch's frozen certainty."""
    adv = generate_batch(model, batch, config.train_attack,
                         rng=_train_rng(config, opt_state, STREAM_ROB))
    grad, ac = robust_grad(model, adv, config.objective, certainty_weight)
    return (*_apply_sgd(model, grad, config, opt_state), StepReport(ac, ac))


def at_update(model: ModelState, batch: Batch, config: TrainConfig, opt_state: OptState):
    """Attack at the current weights, one SGD step on the robust surrogate."""
    return _robust_step(model, batch, config, opt_state)


def edac_update(model: ModelState, batch: Batch, config: TrainConfig, opt_state: OptState):
    """Two-step update: certainty descent, then the robust step from there.

    The half step is plain gradient descent with the freshly generated
    attacks frozen; the robust step regenerates the attacks against the
    half-step weights, and the momentum buffer is updated only by the
    robustness gradient. A zero step size skips the half step; what is left
    is ``at_update``'s computation, so the reduction is bitwise.

    The half-step size is ``eta_at_epoch``: ``edac_eta`` times the same decay
    factor, at the same epochs, as the learning rate, because an
    extragradient method uses one step-size sequence for both of its steps.
    With a fixed ``edac_eta`` the half step is negligible next to the
    robustness step before the first lr decay and dominates it after the
    second. Before the first decay the factor is exactly 1, so the step is
    bitwise ``edac_eta``.

    The size is further capped at the Polyak step ``ac / |g_ac|^2``, the step
    at which the linearised batch certainty reaches zero, its least value.
    The certainty is a mean of row standard deviations, whose gradient keeps
    its length as the spread shrinks, so a longer fixed step overshoots the
    zero-spread point and raises the certainty again. The cap binds only on
    such steps; below it the half step is the plain ``theta - eta * g_ac``.

    The paper's abstract states no step-size rule, so the schedule and the
    cap are this implementation's choices, not ones checked against the
    paper's text. ``StepReport.eta`` carries the size actually used and
    ``StepReport.capped`` whether the cap cut it.
    """
    eta = eta_at_epoch(config, opt_state.epoch)
    if eta == 0.0:
        return _robust_step(model, batch, config, opt_state)
    adv0 = generate_batch(model, batch, config.train_attack,
                          rng=_train_rng(config, opt_state, STREAM_AC))
    g_ac, ac_before = grad_certainty_frozen(model, adv0.perturbed)
    flat = g_ac.flatten()
    # numpy's pairwise sum: a BLAS dot splits the sum by thread count
    g_sq = float(np.multiply(flat, flat).sum())
    capped = g_sq > 0.0 and ac_before / g_sq < eta
    if capped:
        eta = ac_before / g_sq
    half_params = _descend(model.params, g_ac, eta)
    if not half_params.allfinite():
        raise NumericError("non-finite parameters after the certainty half step")
    new_model, new_opt, report = _robust_step(ModelState(model.spec, half_params), batch,
                                              config, opt_state)
    return new_model, new_opt, StepReport(ac_before, report.ac_after, eta, capped)


def edac_reg_update(model: ModelState, batch: Batch, config: TrainConfig,
                    opt_state: OptState):
    """One SGD step on robust loss plus lambda times the frozen certainty."""
    return _robust_step(model, batch, config, opt_state, config.edac_reg_lambda)


def apply_update(model, batch, config, opt_state):
    """Dispatch on ``config.method``; returns (model, opt, StepReport)."""
    if config.method == "at":
        return at_update(model, batch, config, opt_state)
    if config.method == "edac":
        return edac_update(model, batch, config, opt_state)
    return edac_reg_update(model, batch, config, opt_state)


def certainty_descent_probe(model: ModelState, batch: Batch, attack_config: AttackConfig,
                            eta0=0.1, max_halvings=20, seed=0):
    """Search a step size whose half step strictly lowers the regenerated
    batch certainty, halving from ``eta0`` at most ``max_halvings`` times.

    Both certainty evaluations regenerate attacks from the same seed so that
    a random start, if configured, is identical on both sides. Returns
    (eta or None, certainty before, certainty after the last try).
    """
    def attacked(m):
        rng = np.random.default_rng(seed) if attack_config.random_start else None
        return generate_batch(m, batch, attack_config, rng=rng)

    g, ac0 = grad_certainty_frozen(model, attacked(model).perturbed)
    eta = float(eta0)
    ac1 = float("nan")
    for _ in range(max_halvings + 1):
        half_params = _descend(model.params, g, eta)
        if half_params.allfinite():
            half_model = ModelState(model.spec, half_params)
            ac1 = certainty_value(half_model, attacked(half_model).perturbed)
            if ac1 < ac0:
                return eta, ac0, ac1
        eta /= 2.0
    return None, ac0, ac1


def epoch_batches(train_set: Dataset, config: TrainConfig, epoch):
    """The deterministic batch order used by epoch ``epoch``."""
    return batches(train_set, config.batch_size, child_seed(config.seed, epoch, STREAM_SHUFFLE))


def batches_per_epoch(train_set: Dataset, config: TrainConfig) -> int:
    return -(-len(train_set) // config.batch_size)


def eval_rng(attack: AttackConfig, base_seed, epoch, split):
    """The rng of an evaluation attack, or None without a random start.

    ``split`` is a name in ``SPLITS``, whose index there seeds the draw.
    Every evaluation of the weights after epoch ``epoch`` of the run seeded
    ``base_seed`` draws from here: the per-epoch metrics (the sweep's rows
    among them), ``summary.json``, ``advlab eval`` and ``advlab heatmap``.
    So one (weights, split, attack) always gets one random start, and its
    figures repeat across commands.
    """
    if not attack.random_start:
        return None
    return np.random.default_rng(child_seed(base_seed, epoch, STREAM_EVAL, SPLITS.index(split)))


def evaluate_epoch(model: ModelState, data, config: TrainConfig, epoch, wall_time_s=0.0,
                   capped_batches=0):
    """The epoch's history row and its attack passes (``Pass``): one
    ``split_metrics`` pass over each dataset of ``data``, the splits of
    ``SPLITS`` in that order."""
    atk = config.eval_attack
    figures, passes = {}, []
    for split, dataset in zip(SPLITS, data):
        rng = eval_rng(atk, config.seed, epoch, split)
        *values, preds = split_metrics(model, dataset, atk, rng)
        figures.update((f"{figure}_{split}", v) for figure, v in zip(FIGURES, values))
        passes.append(Pass(split, atk, preds, figures[f"ac_{split}"]))
    row = MetricsRecord(epoch=epoch, method=config.method, lr=lr_at_epoch(config, epoch),
                        wall_time_s=wall_time_s, capped_batches=capped_batches, **figures)
    return row, tuple(passes)


def log_epoch(row: MetricsRecord, batches, label=""):
    """The ``-v`` line of one epoch's history row; ``label`` names its sweep row."""
    log.info(
        "epoch %d [%s]%s lr=%g clean=%.4f/%.4f robust=%.4f/%.4f ac=%.4f/%.4f "
        "capped=%d/%d (%.2fs)",
        row.epoch, row.method, label, row.lr, row.clean_acc_train, row.clean_acc_test,
        row.robust_acc_train, row.robust_acc_test, row.ac_train, row.ac_test,
        row.capped_batches, batches, row.wall_time_s,
    )


def train_run(config: TrainConfig, data, model, resume_from: Optional[Checkpoint] = None):
    """Full training loop; returns (final, best, history).

    ``data`` holds the datasets of ``SPLITS``, in that order, and ``model``
    is a ModelSpec (fresh initialisation) or an explicit ModelState. Per
    epoch the loop shuffles the train split with a seeded permutation,
    applies the configured per-batch update, then measures every split
    under the evaluation attack (``evaluate_epoch``). With a second CPU that
    measurement runs in a forked worker beside the next epoch's updates
    (``Workers``); the last epoch's runs in the caller, where its attack
    passes split over the CPUs. The best checkpoint is the earliest one
    maximising held-out robust accuracy. Each history row counts the epoch's
    batches whose half step the Polyak cap cut (``capped_batches``). Each
    checkpoint keeps its evaluation's passes (``Measured``), so that
    a later pass of the same attack over the same data can be read instead
    of made (``checkpoint_pass``). With ``resume_from``, training
    continues after that checkpoint's epoch and reproduces the uninterrupted
    run bitwise; the resumed checkpoint starts as the incumbent best. Its
    ``base_seed`` must equal ``config.seed``, or the two halves would come from
    different runs.
    """
    datasets = dict(zip(SPLITS, data))
    train_set = datasets["train"]
    if isinstance(model, ModelSpec):
        model = init_model(model)
    if model.spec.input_dim != train_set.dim or model.spec.num_classes < train_set.num_classes:
        raise ConfigError("model spec does not fit the dataset dimensions")
    opt = OptState(model.params.zeros_like(), 0, 0)
    start_epoch = 0
    best: Optional[Checkpoint] = None
    last: Optional[Checkpoint] = None
    if resume_from is not None:
        if resume_from.base_seed != config.seed:
            raise CheckpointError(f"checkpoint base_seed {resume_from.base_seed} does not "
                                  f"match the config seed {config.seed}")
        model = resume_from.model
        start_epoch = resume_from.epoch + 1
        opt = OptState(resume_from.optimizer_momentum, start_epoch, 0)
        best = last = resume_from
    if start_epoch >= config.epochs:
        raise ConfigError(
            f"resume epoch {start_epoch} is already past the configured {config.epochs} epochs"
        )
    nb = batches_per_epoch(train_set, config)
    history = []

    def aborted(epoch, exc):
        return TrainingAborted(f"training failed during epoch {epoch}: {exc}", checkpoint=last)

    def collect(epoch, model, momentum, evaluation):
        nonlocal last, best
        try:
            row, passes = evaluation()
        except (AdvlabError, ArithmeticError) as exc:
            raise aborted(epoch, exc) from exc
        history.append(row)
        measured = Measured(config.eval_attack, {n: d.sha256 for n, d in datasets.items()},
                            model.params.sha256(), passes)
        last = Checkpoint(model, epoch, momentum, config.seed, row, measured)
        if best is None or row.robust_acc_test > best.metrics_row.robust_acc_test:
            best = last
        log_epoch(row, nb)

    from .workers import Workers  # imported here: not on the command-line start-up path

    # epoch e's evaluation is collected before anything of epoch e + 1 is
    # reported, so every outcome, a failure included, is the sequential one.
    # The last epoch's evaluation runs here, with no worker beside it, so that
    # its attack passes can split over the CPUs.
    pending = None
    with Workers() as workers:
        for epoch in range(start_epoch, config.epochs):
            t0 = time.perf_counter()
            opt = OptState(opt.momentum, epoch, epoch * nb)
            capped = 0
            try:
                for batch in epoch_batches(train_set, config, epoch):
                    model, opt, report = apply_update(model, batch, config, opt)
                    capped += report.capped
            except (AdvlabError, ArithmeticError) as exc:
                if pending is not None:
                    collect(*pending)
                raise aborted(epoch, exc) from exc
            if pending is not None:
                collect(*pending)
            args = (model, data, config, epoch, time.perf_counter() - t0, capped)
            if epoch + 1 < config.epochs:
                pending = (epoch, model, opt.momentum,
                           workers.start(evaluate_epoch, *args).result)
            else:
                collect(epoch, model, opt.momentum, lambda: evaluate_epoch(*args))
    return last, best, history


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
    ``same_as`` labels are the ones the rule above gives in sequence. Each
    computed row logs its epoch line here, in request order.
    """
    from .workers import Workers  # imported here: not on the command-line start-up path

    etas = [float(eta) for eta in etas]
    if not etas or min(etas) < 0:
        raise ConfigError(f"step sizes must be non-empty and non-negative, got {etas}")
    nb = batches_per_epoch(data[0], config)
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
            record = running.pop(i).result()
            if record is None:
                log.info("sweep eta=%g failed", eta)
                rows.append(SweepRow(eta, float("nan"), float("nan"), False))
                continue
            log_epoch(record, nb, f" eta={eta:g}")
            rows.append(SweepRow(eta, record.ac_train, record.robust_acc_test))
            if record.capped_batches == nb:
                capped_rows.append(rows[-1])
    return rows


def _sweep_row(checkpoint, data, config):
    """The history row of one computed sweep row's epoch, or None when its
    training failed numerically. It logs nothing: the sweep logs its rows
    in request order, so a row started ahead and then dropped adds no line."""
    level = log.level
    log.setLevel(logging.WARNING)
    try:
        _, _, (record,) = train_run(config, data, checkpoint.model, resume_from=checkpoint)
    except TrainingAborted as exc:
        if isinstance(exc.__cause__, (NumericError, FloatingPointError, OverflowError)):
            return None
        raise exc.__cause__
    finally:
        log.setLevel(level)
    return record


# ---------------------------------------------------------------------------
# checkpoint persistence (byte layout documented in docs/formats.md)

CKPT_MAGIC = b"ADVCKPT1"


def _attack_record(attack: AttackConfig) -> dict:
    clamp = attack.domain_clamp
    return {"norm": attack.norm, "epsilon": float(attack.epsilon),
            "step_size": float(attack.step_size), "steps": int(attack.steps),
            "kind": attack.kind, "random_start": bool(attack.random_start),
            "domain_clamp": None if clamp is None else [float(v) for v in clamp]}


def _preds_dtype(num_classes) -> np.dtype:
    """The little-endian unsigned integer type of a recorded prediction: the
    narrowest that holds ``num_classes - 1``."""
    return np.dtype(np.min_scalar_type(num_classes - 1)).newbyteorder("<")


def _measured_record(measured: Measured, num_classes) -> dict:
    return {"attack": _attack_record(measured.attack),
            "sha256": {name: str(digest) for name, digest in measured.sha256.items()},
            "params_sha256": str(measured.params_sha256),
            "passes": [{"split": p.split, "attack": _attack_record(p.attack),
                        "preds": base64.b64encode(p.preds.astype(_preds_dtype(num_classes))
                                                  .tobytes()).decode("ascii"),
                        "ac": float(p.ac)} for p in measured.passes]}


def _attack_from(record) -> AttackConfig:
    """An attack record read back (``_attack_record``)."""
    clamp = record["domain_clamp"]
    return AttackConfig(**{**record, "domain_clamp": tuple(clamp)
                           if isinstance(clamp, list) else clamp})


def _pass_from(entry, num_classes) -> Pass:
    """A ``passes`` entry read back (``_measured_record``); ValueError unless
    its split is a name in ``SPLITS``, its ``ac`` is finite and non-negative
    and its predictions are base64 of classes below ``num_classes``."""
    if entry["split"] not in SPLITS:
        raise ValueError(f"measured pass split {entry['split']!r} is not one of {SPLITS}")
    ac = entry["ac"]
    if not 0.0 <= ac < float("inf"):
        raise ValueError(f"measured pass ac {ac!r} is not finite and non-negative")
    preds = np.frombuffer(base64.b64decode(entry["preds"], validate=True),
                          dtype=_preds_dtype(num_classes))
    if preds.size and preds.max() >= num_classes:
        raise ValueError(f"measured pass preds hold a class >= {num_classes}")
    return Pass(entry["split"], _attack_from(entry["attack"]), preds, ac)


def _measured_from(record, num_classes) -> Measured:
    """The ``measured`` header key read back (``_measured_record``)."""
    return Measured(_attack_from(record["attack"]),
                    {name: record["sha256"][name] for name in SPLITS}, record["params_sha256"],
                    tuple(_pass_from(entry, num_classes) for entry in record["passes"]))


def _header(checkpoint: Checkpoint) -> dict:
    """The JSON header ``save_checkpoint`` writes for ``checkpoint``, each
    value cast to the type it is written as; ``next_epoch`` is ``epoch + 1``.
    ``_read_checkpoint`` loads a header only if this gives it back."""
    spec = checkpoint.model.spec
    epoch = int(checkpoint.epoch)
    header = {
        "version": 1,
        "spec": {
            "input_dim": int(spec.input_dim),
            "layer_widths": list(spec.layer_widths),
            "activation": spec.activation,
            "init_seed": int(spec.init_seed),
        },
        "epoch": epoch,
        "rng": {"base_seed": int(checkpoint.base_seed), "next_epoch": epoch + 1},
        "metrics": checkpoint.metrics_row.to_dict(),
        "segments": [[name, list(arr.shape)] for name, arr in checkpoint.model.params.items()],
    }
    if checkpoint.measured is not None:
        header["measured"] = _measured_record(checkpoint.measured, spec.num_classes)
    return header


def _same(a, b) -> bool:
    """Whether two JSON values are equal with the same types throughout:
    ``1``, ``1.0`` and ``true`` differ, and NaN equals nothing."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(map(_same, a.values(), map(b.get, a)))
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _difference(a, b, path=""):
    """The key path, as ``rng.next_epoch`` or ``segments[0][1]``, of the
    first place where two JSON values that ``_same`` refuses differ."""
    if type(a) is type(b) is dict:
        if a.keys() != b.keys():
            return f"{path}.{min(a.keys() ^ b.keys())}".lstrip(".")
        pairs = [(f"{path}.{k}".lstrip("."), a[k], b[k]) for k in a]
    elif type(a) is type(b) is list and len(a) == len(b):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return path
    return next(_difference(x, y, at) for at, x, y in pairs if not _same(x, y))


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    blob = json.dumps(_header(checkpoint), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for vector in (checkpoint.model.params, checkpoint.optimizer_momentum):
            f.write(vector.flatten().astype("<f8", copy=False))


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; a ``CheckpointError`` naming the path
    unless it is a readable file in the layout of docs/formats.md."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f, path)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror or exc}") from exc


def _read_checkpoint(f, path) -> Checkpoint:
    """The checkpoint in the open file ``f`` at ``path``. Its header loads
    only if ``_header`` of the checkpoint built from it is the same JSON
    (``_same``); beside that rule stand the checks of meaning (version,
    sizes, epoch, finite payload, ``_pass_from``'s)."""
    size = os.fstat(f.fileno()).st_size
    start = len(CKPT_MAGIC) + 4
    head = f.read(start)
    if len(head) < start or head[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: missing checkpoint magic {CKPT_MAGIC!r}")
    (hlen,) = struct.unpack("<I", head[len(CKPT_MAGIC) :])
    if size < start + hlen:
        raise CheckpointError(f"{path}: truncated header (wanted {hlen} bytes)")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")
    try:
        spec = ModelSpec(**header["spec"])
        segments = [(str(n), tuple(int(d) for d in shape)) for n, shape in header["segments"]]
        if any(d < 0 for _, shape in segments for d in shape):
            raise ValueError(f"negative segment dimension in {header['segments']}")
        metrics = MetricsRecord.from_dict(header["metrics"])
        epoch = header["epoch"]
        if not 0 <= epoch == metrics.epoch:
            raise ValueError(f"epoch {epoch} must be non-negative and equal its metrics "
                             f"row's epoch {metrics.epoch}")
        base_seed = header["rng"]["base_seed"]
        measured = (_measured_from(header["measured"], spec.num_classes)
                    if "measured" in header else None)
    except (KeyError, OverflowError, TypeError, ValueError, ConfigError, NumericError) as exc:
        raise CheckpointError(f"{path}: malformed header fields: {exc}") from exc
    count = sum(math.prod(shape) for _, shape in segments)
    want, found = 2 * 8 * count, size - start - hlen
    if found == want:
        # one array, read in place: aligned, which a view of the file's bytes
        # at the payload's offset may not be, and that can keep a matmul off
        # its BLAS path; the parameters and the momentum are views of it
        flat = np.empty(2 * count, dtype="<f8")
        found = f.readinto(flat)
    if found != want:
        raise CheckpointError(f"{path}: expected {want} payload bytes, found {found}")
    flat = flat.astype(np.float64, copy=False)
    try:
        params = ParamVector.views(flat[:count], segments)
        buf = ParamVector.views(flat[count:], segments)
        model = ModelState(spec, params)
    except (ConfigError, ShapeError) as exc:
        raise CheckpointError(f"{path}: parameters do not match spec: {exc}") from exc
    if not (params.allfinite() and buf.allfinite()):
        raise CheckpointError(f"{path}: non-finite parameters or momentum")
    checkpoint = Checkpoint(model, epoch, buf, base_seed, metrics, measured)
    try:
        written = _header(checkpoint)
        if not _same(written, header):
            raise ValueError("writing the checkpoint back gives another header at "
                             + _difference(written, header))
    except (OverflowError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header fields: {exc}") from exc
    return checkpoint

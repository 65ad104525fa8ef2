"""Optimizers and training loops.

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

import json
import logging
import struct
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attack import AttackConfig, generate_batch
from .data import Batch, Dataset, batches
from .diagnostics import MetricsRecord, split_metrics
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

SPLITS = ("train", "test")  # the split index of evaluation seeds

_U64 = (1 << 64) - 1


def child_seed(*parts) -> int:
    """Stable 32-bit seed derived from integer parts via SeedSequence."""
    entropy = [int(p) & _U64 for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    train_attack: AttackConfig
    eval_attack: AttackConfig
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
class Checkpoint:
    model: ModelState
    epoch: int
    optimizer_momentum: ParamVector
    rng_state: dict
    metrics_row: MetricsRecord


def sgd_step(params: ParamVector, grad: ParamVector, lr, momentum, momentum_buffer):
    """Classical momentum update: v <- m*v + g, theta <- theta - lr*v."""
    v = momentum_buffer * momentum + grad
    return params - v * lr, v


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
    g_sq = float((flat * flat).sum())
    capped = g_sq > 0.0 and ac_before / g_sq < eta
    if capped:
        eta = ac_before / g_sq
    half_params = model.params - g_ac * eta
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
        half_params = model.params - g * eta
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

    ``split`` indexes ``SPLITS``. Every evaluation of the weights after epoch
    ``epoch`` of the run seeded ``base_seed`` draws from here: the per-epoch
    metrics (the sweep's rows among them), ``summary.json``, ``advlab eval``
    and ``advlab heatmap``. So one (weights, split, attack) always gets one
    random start, and its figures repeat across commands.
    """
    if not attack.random_start:
        return None
    return np.random.default_rng(child_seed(base_seed, epoch, STREAM_EVAL, split))


def evaluate_epoch(model: ModelState, train_set: Dataset, test_set: Dataset,
                   config: TrainConfig, epoch, wall_time_s=0.0,
                   capped_batches=0) -> MetricsRecord:
    atk = config.eval_attack
    clean_tr, rob_tr, ac_tr = split_metrics(model, train_set, atk,
                                            eval_rng(atk, config.seed, epoch, 0))
    clean_te, rob_te, ac_te = split_metrics(model, test_set, atk,
                                            eval_rng(atk, config.seed, epoch, 1))
    return MetricsRecord(
        epoch=epoch, method=config.method, lr=lr_at_epoch(config, epoch),
        clean_acc_train=clean_tr, clean_acc_test=clean_te,
        robust_acc_train=rob_tr, robust_acc_test=rob_te,
        ac_train=ac_tr, ac_test=ac_te, wall_time_s=wall_time_s,
        capped_batches=capped_batches,
    )


def _rng_record(config: TrainConfig, next_epoch) -> dict:
    return {"base_seed": int(config.seed), "next_epoch": int(next_epoch)}


def train_run(config: TrainConfig, data, model, resume_from: Optional[Checkpoint] = None):
    """Full training loop; returns (final, best, history).

    ``data`` is a (train, test) dataset pair and ``model`` a ModelSpec (fresh
    initialisation) or an explicit ModelState. Per epoch the loop shuffles
    with a seeded permutation, applies the configured per-batch update, then
    measures both splits under the evaluation attack. With a second CPU that
    measurement runs in a forked worker beside the next epoch's updates
    (``Workers``); the last epoch's runs in the caller, where its attack
    passes split over the CPUs. The best checkpoint is the earliest one
    maximising held-out robust accuracy. Each history row counts the epoch's
    batches whose half step the Polyak cap cut (``capped_batches``). With
    ``resume_from``, training
    continues after that checkpoint's epoch and reproduces the uninterrupted
    run bitwise; the resumed checkpoint starts as the incumbent best. Its
    ``base_seed`` must equal ``config.seed``, or the two halves would come from
    different runs.
    """
    train_set, test_set = data
    if isinstance(model, ModelSpec):
        model = init_model(model)
    if model.spec.input_dim != train_set.dim or model.spec.num_classes < train_set.num_classes:
        raise ConfigError("model spec does not fit the dataset dimensions")
    opt = OptState(model.params.zeros_like(), 0, 0)
    start_epoch = 0
    best: Optional[Checkpoint] = None
    last: Optional[Checkpoint] = None
    if resume_from is not None:
        if resume_from.rng_state.get("base_seed") != config.seed:
            raise CheckpointError(
                f"checkpoint base_seed {resume_from.rng_state.get('base_seed')} "
                f"does not match the config seed {config.seed}"
            )
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
            row = evaluation()
        except (AdvlabError, ArithmeticError) as exc:
            raise aborted(epoch, exc) from exc
        history.append(row)
        last = Checkpoint(model, epoch, momentum, _rng_record(config, epoch + 1), row)
        if best is None or row.robust_acc_test > best.metrics_row.robust_acc_test:
            best = last
        log.info(
            "epoch %d [%s] lr=%g clean=%.4f/%.4f robust=%.4f/%.4f ac=%.4f/%.4f "
            "capped=%d/%d (%.2fs)",
            epoch, config.method, row.lr, row.clean_acc_train, row.clean_acc_test,
            row.robust_acc_train, row.robust_acc_test, row.ac_train, row.ac_test,
            row.capped_batches, nb, row.wall_time_s,
        )

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
            args = (model, train_set, test_set, config, epoch, time.perf_counter() - t0,
                    capped)
            if epoch + 1 < config.epochs:
                pending = (epoch, model, opt.momentum,
                           workers.start(evaluate_epoch, *args).result)
            else:
                collect(epoch, model, opt.momentum, lambda: evaluate_epoch(*args))
    return last, best, history


# ---------------------------------------------------------------------------
# checkpoint persistence (byte layout documented in docs/formats.md)

CKPT_MAGIC = b"ADVCKPT1"


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    spec = checkpoint.model.spec
    header = {
        "version": 1,
        "spec": {
            "input_dim": spec.input_dim,
            "layer_widths": list(spec.layer_widths),
            "activation": spec.activation,
            "init_seed": int(spec.init_seed),
        },
        "epoch": int(checkpoint.epoch),
        "rng": {k: int(v) for k, v in checkpoint.rng_state.items()},
        "metrics": checkpoint.metrics_row.to_dict(),
        "segments": [[name, list(arr.shape)] for name, arr in checkpoint.model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    params = checkpoint.model.params.flatten().astype("<f8")
    buf = checkpoint.optimizer_momentum.flatten().astype("<f8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(params.tobytes())
        f.write(buf.tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(CKPT_MAGIC) + 4 or raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: missing checkpoint magic {CKPT_MAGIC!r}")
    (hlen,) = struct.unpack("<I", raw[len(CKPT_MAGIC) : len(CKPT_MAGIC) + 4])
    start = len(CKPT_MAGIC) + 4
    if len(raw) < start + hlen:
        raise CheckpointError(f"{path}: truncated header (wanted {hlen} bytes)")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')}")
    try:
        spec = ModelSpec(
            input_dim=int(header["spec"]["input_dim"]),
            layer_widths=tuple(header["spec"]["layer_widths"]),
            activation=str(header["spec"]["activation"]),
            init_seed=int(header["spec"]["init_seed"]),
        )
        segments = [(str(n), tuple(int(d) for d in shape)) for n, shape in header["segments"]]
        if any(d < 0 for _, shape in segments for d in shape):
            raise ValueError(f"negative segment dimension in {header['segments']}")
        metrics = MetricsRecord.from_dict(header["metrics"])
        epoch = int(header["epoch"])
        rng_state = {str(k): int(v) for k, v in header["rng"].items()}
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError,
            NumericError) as exc:
        raise CheckpointError(f"{path}: malformed header fields: {exc}") from exc
    count = sum(int(np.prod(shape)) for _, shape in segments)
    body = raw[start + hlen :]
    if len(body) != 2 * 8 * count:
        raise CheckpointError(
            f"{path}: expected {2 * 8 * count} payload bytes, found {len(body)}"
        )
    flat = np.frombuffer(body, dtype="<f8")
    try:
        template = ParamVector((name, np.zeros(shape)) for name, shape in segments)
        params = template.unflatten(flat[:count])
        buf = template.unflatten(flat[count:])
        model = ModelState(spec, params)
    except (ConfigError, ShapeError) as exc:
        raise CheckpointError(f"{path}: parameters do not match spec: {exc}") from exc
    if not (params.allfinite() and buf.allfinite()):
        raise CheckpointError(f"{path}: non-finite parameters or momentum")
    return Checkpoint(model, epoch, buf, rng_state, metrics)

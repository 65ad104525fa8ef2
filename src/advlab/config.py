"""Experiment configuration: a strict sectioned key=value text format.

Unknown sections or keys fail fast with their file location; the config file
is the reproducibility record for a run, so silent typos are not tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .attack import KINDS, NORMS, AttackConfig
from .data import SPLITS, Dataset, default_benchmark, gaussian_mixture_splits, idx_splits
from .errors import ConfigError
from .netcore import ACTIVATIONS, ModelSpec
from .objective import OBJECTIVE_KINDS, ObjectiveKind
from .train import METHODS, TrainConfig


class _Section(dict):
    """Maps key -> (raw value, line number)."""


def parse_sectioned(text, source="<config>"):
    """Parse ``[section]`` / ``key = value`` lines; comments start with # or ;."""
    sections: dict[str, _Section] = {}
    current: Optional[_Section] = None
    current_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: unterminated section header {line!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            current = _Section()
            current_name = name
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside of any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = (value.strip(), lineno)
    return sections


_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


class SectionView:
    """Typed accessors over one parsed section, with used-key tracking."""

    def __init__(self, name, section: _Section, source):
        self.name = name
        self.section = section
        self.source = source
        self.used = set()

    def _raw(self, key, default=None, required=False):
        if key in self.section:
            self.used.add(key)
            return self.section[key][0]
        if required:
            raise ConfigError(f"{self.source}: [{self.name}] is missing required key {key!r}")
        return default

    def _fail(self, key, message):
        lineno = self.section[key][1]
        raise ConfigError(f"{self.source}:{lineno}: [{self.name}] {key}: {message}")

    def get_str(self, key, default=None, required=False, choices=None):
        v = self._raw(key, default, required)
        if v is not None and choices is not None and v not in choices:
            self._fail(key, f"must be one of {choices}, got {v!r}")
        return v

    def _parse(self, key, default, required, parse, expected):
        """``parse`` of the key's raw text, or ``default`` if it is absent; a
        ``ConfigError`` "expected ``expected``" where ``parse`` raises
        ``KeyError`` or ``ValueError``."""
        v = self._raw(key, None, required)
        if v is None:
            return default
        try:
            return parse(v)
        except (KeyError, ValueError):
            self._fail(key, f"expected {expected}, got {v!r}")

    def get_int(self, key, default=None, required=False):
        return self._parse(key, default, required, int, "an integer")

    def get_float(self, key, default=None, required=False):
        f = self._parse(key, default, required, float, "a number")
        if f is not None and not np.isfinite(f):
            self._fail(key, f"expected a finite number, got {self.section[key][0]!r}")
        return f

    def get_bool(self, key, default=None, required=False):
        return self._parse(key, default, required, lambda v: _BOOLS[v.lower()], "a boolean")

    def get_int_list(self, key, default=()):
        return self._parse(key, tuple(default), False,
                           lambda v: tuple(int(p) for p in v.split(",")) if v else (),
                           "comma-separated integers")

    def get_clamp(self, key, default=None):
        v = self._raw(key)
        if v is None:
            return default
        if v.lower() in ("none", "off"):
            return None
        parts = v.split(",")
        if len(parts) != 2:
            self._fail(key, f"expected 'none' or 'lo,hi', got {v!r}")
        try:
            bounds = (float(parts[0]), float(parts[1]))
        except ValueError:
            self._fail(key, f"expected numeric bounds, got {v!r}")
        if not np.isfinite(bounds).all():
            self._fail(key, f"expected finite bounds, got {v!r}")
        return bounds

    def reject_unknown(self):
        unknown = set(self.section) - self.used
        if unknown:
            key = min(unknown, key=lambda k: self.section[k][1])
            lineno = self.section[key][1]
            raise ConfigError(f"{self.source}:{lineno}: unknown key {key!r} in [{self.name}]")


def _attack_from(view: SectionView) -> AttackConfig:
    cfg = AttackConfig(
        norm=view.get_str("norm", "linf", choices=NORMS),
        epsilon=view.get_float("epsilon", required=True),
        step_size=view.get_float("step_size", 1.0),
        steps=view.get_int("steps", 0),
        kind=view.get_str("kind", "pgd", choices=KINDS),
        random_start=view.get_bool("random_start", False),
        domain_clamp=view.get_clamp("clamp", None),
    )
    view.reject_unknown()
    return cfg


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: partial  # the [dataset] kind's split builder, all but ``splits`` bound
    hidden: tuple
    activation: str
    init_seed: int
    train: TrainConfig
    eval_attacks: dict
    out_dir: str
    formats: tuple

    def build_datasets(self, splits=SPLITS):
        """The datasets of the splits a command reads, named in ``splits``, in
        that order; by default (train, test). A synthetic split not named is
        never generated; an IDX file pair is read whole and then split."""
        return self.dataset(splits=splits)

    def model_spec(self, dataset: Dataset) -> ModelSpec:
        return ModelSpec(
            input_dim=dataset.dim,
            layer_widths=self.hidden + (dataset.num_classes,),
            activation=self.activation,
            init_seed=self.init_seed,
        )

    def with_overrides(self, seed=None, out_dir=None) -> "ExperimentConfig":
        """``seed`` reseeds the whole experiment: training stream and model init."""
        cfg = self
        if seed is not None:
            cfg = replace(cfg, train=replace(cfg.train, seed=int(seed)),
                          init_seed=int(seed))
        if out_dir is not None:
            cfg = replace(cfg, out_dir=str(out_dir))
        return cfg


_KNOWN_SECTIONS = ("dataset", "model", "train", "train.attack", "train.eval_attack", "output")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text: {exc}") from exc
    return parse_config(text, source=str(path))


def parse_config(text, source="<config>") -> ExperimentConfig:
    sections = parse_sectioned(text, source)

    def take(name, required=True) -> Optional[SectionView]:
        if name not in sections:
            if required:
                raise ConfigError(f"{source}: missing required section [{name}]")
            return None
        return SectionView(name, sections[name], source)

    for name in sections:
        if name not in _KNOWN_SECTIONS and not name.startswith("eval."):
            raise ConfigError(f"{source}: unknown section [{name}]")

    ds = take("dataset")
    kind = ds.get_str("kind", required=True,
                      choices=("benchmark", "gaussian_mixture", "idx"))
    if kind == "benchmark":
        dataset = partial(default_benchmark, seed=ds.get_int("seed"))
    elif kind == "gaussian_mixture":
        dataset = partial(
            gaussian_mixture_splits,
            num_classes=ds.get_int("classes", required=True),
            dim=ds.get_int("dim", required=True),
            train_per_class=ds.get_int("train_per_class", required=True),
            test_per_class=ds.get_int("test_per_class", required=True),
            class_separation=ds.get_float("separation", required=True),
            noise_std=ds.get_float("noise_std", required=True),
            seed=ds.get_int("seed", 0),
            name="mixture",
        )
    else:
        dataset = partial(
            idx_splits,
            images=ds.get_str("images", required=True),
            labels=ds.get_str("labels", required=True),
            downsample_to=ds.get_int("downsample_to"),
            train_fraction=ds.get_float("train_fraction", 0.8),
            shuffle_seed=ds.get_int("shuffle_seed", 0),
        )
    for key in ("seed", "shuffle_seed"):
        if (dataset.keywords.get(key) or 0) < 0:
            ds._fail(key, f"must be non-negative, got {dataset.keywords[key]}")
    ds.reject_unknown()

    model = take("model")
    hidden = model.get_int_list("hidden", (64, 64))
    activation = model.get_str("activation", "relu", choices=ACTIVATIONS)
    init_seed = model.get_int("init_seed", 0)
    model.reject_unknown()

    train_attack = _attack_from(take("train.attack"))
    eval_attack_view = take("train.eval_attack", required=False)
    eval_attack = _attack_from(eval_attack_view) if eval_attack_view else train_attack

    tr = take("train")
    objective = ObjectiveKind(
        kind=tr.get_str("objective", "at_ce", choices=OBJECTIVE_KINDS),
        trades_beta=tr.get_float("trades_beta", 6.0),
    )
    train_cfg = TrainConfig(
        epochs=tr.get_int("epochs", required=True),
        batch_size=tr.get_int("batch_size", 128),
        lr=tr.get_float("lr", 0.1),
        momentum=tr.get_float("momentum", 0.9),
        lr_decay_epochs=tr.get_int_list("lr_decay_epochs", ()),
        lr_decay_factor=tr.get_float("lr_decay_factor", 0.1),
        edac_eta=tr.get_float("edac_eta", 0.1),
        edac_reg_lambda=tr.get_float("edac_reg_lambda", 0.5),
        objective=objective,
        train_attack=train_attack,
        eval_attack=eval_attack,
        seed=tr.get_int("seed", 0),
        method=tr.get_str("method", "at", choices=METHODS),
    )
    tr.reject_unknown()

    eval_attacks = {}
    for name in sections:
        if name.startswith("eval."):
            attack_name = name[len("eval."):]
            if not attack_name:
                raise ConfigError(f"{source}: eval attack section needs a name, e.g. [eval.pgd10]")
            eval_attacks[attack_name] = _attack_from(SectionView(name, sections[name], source))

    out = take("output", required=False)
    out_dir = "runs/experiment"
    formats = ("csv", "json")
    if out is not None:
        out_dir = out.get_str("dir", out_dir)
        raw = out.get_str("formats")
        if raw is not None:
            formats = tuple(p.strip() for p in raw.split(",") if p.strip())
            bad = [f for f in formats if f not in ("csv", "json")]
            if bad:
                raise ConfigError(f"{source}: unsupported output formats {bad}")
        out.reject_unknown()

    return ExperimentConfig(
        dataset=dataset,
        hidden=tuple(hidden),
        activation=activation,
        init_seed=init_seed,
        train=train_cfg,
        eval_attacks=eval_attacks,
        out_dir=out_dir,
        formats=formats,
    )

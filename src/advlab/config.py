"""Experiment configuration: a strict sectioned key=value text format.

Unknown sections or keys fail fast with their file location; the config file
is the reproducibility record for a run, so silent typos are not tolerated.
The keys of ``[train]`` and of each attack section go straight to the type
that holds them (``TrainConfig``, ``ObjectiveKind``, ``AttackConfig``), which
alone holds their defaults, choices and range checks; a value one refuses is
reported at its key's line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .attack import AttackConfig
from .data import SPLITS, Dataset, default_benchmark, gaussian_mixture_splits, idx_splits
from .errors import ConfigError
from .netcore import ACTIVATIONS, ModelSpec
from .objective import ObjectiveKind
from .train import TrainConfig


class _Section(dict):
    """Maps key -> (raw value, line number); ``lineno`` is its header's line."""

    def __init__(self, lineno):
        super().__init__()
        self.lineno = lineno


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
            current = _Section(lineno)
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


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def _bounds(text):
    if text.lower() in ("none", "off"):
        return None
    lo, hi = (_finite(part) for part in text.split(","))
    return lo, hi


def _formats(text):
    formats = tuple(p.strip() for p in text.split(",") if p.strip())
    if not set(formats) <= {"csv", "json"}:
        raise ValueError(text)
    return formats


def _one_of(choices):
    def read(text):
        if text not in choices:
            raise ValueError(text)
        return text
    return read, f"one of {choices}"


_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}

# a key's reader of its raw text, and what a text it refuses should have been
TEXT = (str, "text")
INTEGER = (int, "an integer")
NUMBER = (_finite, "a finite number")
BOOLEAN = (lambda v: _BOOLS[v.lower()], "a boolean")
INTEGERS = (lambda v: tuple(int(p) for p in v.split(",")) if v else (), "comma-separated integers")
BOUNDS = (_bounds, "'none' or finite bounds 'lo,hi'")
FORMATS = (_formats, "comma-separated formats from csv and json")

# the field a key is passed as, where its name differs
_FIELD = {"classes": "num_classes", "separation": "class_separation", "objective": "kind",
          "clamp": "domain_clamp"}

# each [dataset] kind: its split builder, its keys' readers, and the values of
# the keys a config may leave out; a key with none is required
_DATASETS = {
    "benchmark": (default_benchmark, {"seed": INTEGER}, {"seed": None}),
    "gaussian_mixture": (
        partial(gaussian_mixture_splits, name="mixture"),
        {"classes": INTEGER, "dim": INTEGER, "train_per_class": INTEGER,
         "test_per_class": INTEGER, "separation": NUMBER, "noise_std": NUMBER, "seed": INTEGER},
        {"seed": 0}),
    "idx": (
        idx_splits,
        {"images": TEXT, "labels": TEXT, "downsample_to": INTEGER, "train_fraction": NUMBER,
         "shuffle_seed": INTEGER},
        {"downsample_to": None, "train_fraction": 0.8, "shuffle_seed": 0}),
}
_OBJECTIVE_KEYS = {"objective": TEXT, "trades_beta": NUMBER}
_TRAIN_KEYS = {"epochs": INTEGER, "batch_size": INTEGER, "lr": NUMBER, "momentum": NUMBER,
               "lr_decay_epochs": INTEGERS, "lr_decay_factor": NUMBER, "edac_eta": NUMBER,
               "edac_reg_lambda": NUMBER, "seed": INTEGER, "method": TEXT, **_OBJECTIVE_KEYS}
_ATTACK_KEYS = {"norm": TEXT, "epsilon": NUMBER, "step_size": NUMBER, "steps": INTEGER,
                "kind": TEXT, "random_start": BOOLEAN, "clamp": BOUNDS}


class SectionView:
    """One parsed section, read against a table of its keys' readers."""

    def __init__(self, name, section: _Section, source):
        self.name = name
        self.section = section
        self.source = source

    def _at(self, key):
        """``PATH:LINE: [name]`` at ``key``'s line, or at the header's line
        when the section does not hold ``key``."""
        lineno = self.section[key][1] if key in self.section else self.section.lineno
        return f"{self.source}:{lineno}: [{self.name}]"

    def _fail(self, key, message):
        raise ConfigError(f"{self._at(key)} {key}: {message}")

    def read(self, readers, required=()) -> dict:
        """Each key of ``readers`` the section holds, parsed by its reader. A
        key of ``required`` it lacks, a text a reader refuses, or a key not in
        ``readers`` is a ``ConfigError`` at its line."""
        for key in required:
            if key not in self.section:
                raise ConfigError(f"{self._at(key)} is missing required key {key!r}")
        values = {}
        for key, (parse, expected) in readers.items():
            if key in self.section:
                raw = self.section[key][0]
                try:
                    values[key] = parse(raw)
                except (KeyError, ValueError):
                    self._fail(key, f"expected {expected}, got {raw!r}")
        for key, (_, lineno) in self.section.items():
            if key not in readers:
                raise ConfigError(f"{self.source}:{lineno}: unknown key {key!r} in [{self.name}]")
        return values

    def build(self, cls, values, **objects):
        """``cls`` of the parsed ``values``, each passed as its ``_FIELD``, and
        of ``objects``. A ``ConfigError`` it raises is located at the key its
        message starts with, or at the section header when that is no key."""
        fields = {_FIELD.get(key, key): key for key in values}
        try:
            return cls(**{field: values[key] for field, key in fields.items()}, **objects)
        except ConfigError as exc:
            first = str(exc).split(" ", 1)[0]
            raise ConfigError(f"{self._at(fields.get(first, first))} {exc}") from exc


def _attack_from(view: SectionView) -> AttackConfig:
    return view.build(AttackConfig, view.read(_ATTACK_KEYS, required=("epsilon",)))


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
    kind = ds.section.get("kind", ("",))[0]  # it decides which keys the section holds
    builder, readers, optional = _DATASETS.get(kind, (None, {}, {}))
    values = ds.read({"kind": _one_of(tuple(_DATASETS)), **readers},
                     required=("kind", *(key for key in readers if key not in optional)))
    del values["kind"]
    keywords = {_FIELD.get(key, key): value for key, value in {**optional, **values}.items()}
    dataset = partial(builder, **keywords)
    if kind == "idx":
        if not 0.0 < keywords["train_fraction"] < 1.0:
            ds._fail("train_fraction", f"must be in (0,1), got {keywords['train_fraction']}")
        if keywords["downsample_to"] is not None and keywords["downsample_to"] < 1:
            ds._fail("downsample_to", f"must be at least 1, got {keywords['downsample_to']}")
    for key in ("seed", "shuffle_seed"):
        if (keywords.get(key) or 0) < 0:
            ds._fail(key, f"must be non-negative, got {keywords[key]}")

    model = take("model").read(
        {"hidden": INTEGERS, "activation": _one_of(ACTIVATIONS), "init_seed": INTEGER})

    train_attack = _attack_from(take("train.attack"))
    eval_attack_view = take("train.eval_attack", required=False)
    eval_attack = _attack_from(eval_attack_view) if eval_attack_view else train_attack

    tr = take("train")
    values = tr.read(_TRAIN_KEYS, required=("epochs",))
    objective = {key: values.pop(key) for key in _OBJECTIVE_KEYS if key in values}
    train_cfg = tr.build(TrainConfig, values, objective=tr.build(ObjectiveKind, objective),
                         train_attack=train_attack, eval_attack=eval_attack)

    eval_attacks = {}
    for name in sections:
        if name.startswith("eval."):
            attack_name = name[len("eval."):]
            if not attack_name:
                raise ConfigError(f"{source}: eval attack section needs a name, e.g. [eval.pgd10]")
            eval_attacks[attack_name] = _attack_from(SectionView(name, sections[name], source))

    out = take("output", required=False)
    output = out.read({"dir": TEXT, "formats": FORMATS}) if out is not None else {}

    return ExperimentConfig(
        dataset=dataset,
        hidden=model.get("hidden", (64, 64)),
        activation=model.get("activation", "relu"),
        init_seed=model.get("init_seed", 0),
        train=train_cfg,
        eval_attacks=eval_attacks,
        out_dir=output.get("dir", "runs/experiment"),
        formats=output.get("formats", ("csv", "json")),
    )

"""Spans and counts around the calls into advlab's layers, for traced runs.

Each layer function is patched where it is called: ``generate_batch`` as
imported by ``train`` and by ``diagnostics``, ``backward`` as imported by
``attack``, ``train``, ``objective`` and ``netcore``, and so on (``PATCHES``).
A span records (name, parent, start, end); spans stay in memory and are
written out when the run ends. A layer's self time is its spans' time minus
the time of their child spans. Counts are kept beside the spans, at the same
boundaries. Every metric is reported per traced round.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict

import numpy as np

from advlab import attack, cli, config, diagnostics, netcore, objective, train


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = defaultdict(float)
        self.round_passes = set()  # (parameters, data, attack) keys seen this round
        self.round_rows = []  # sweep rows seen this round
        self._saved = []

    # -- spans

    def span(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 0.0])
            self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[idx][2:] = (t0, t1)
            if hook is not None:
                hook(self, t1 - t0, args, out)
            return out

        return traced

    def enter(self, name):
        """Open a span by hand (the runner's command spans)."""
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def leave(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    # -- patching

    def install(self):
        for owner, attr, name, hook in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def new_round(self):
        self.round_passes = set()
        self.round_rows = []

    # -- summaries

    def totals(self):
        """{name: [calls, inclusive seconds, self seconds]} over every span."""
        child = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, _, t0, t1) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - child[idx]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for idx, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(json.dumps([idx, parent, name, round(t0, 7), round(t1, 7)]) + "\n")


# -- hooks: counts at the same boundaries as the spans


def _attack_hook(tr, dur, args, out):
    cfg = args[2]
    steps = cfg.steps if cfg.kind == "pgd" else 1
    rows = len(args[1])
    tr.counts["attack.passes"] += 1
    tr.counts["attack.pgd_steps"] += steps
    if rows in (64, 256) and steps:
        tr.counts[f"attack.b{rows}.steps"] += steps
        tr.counts[f"attack.b{rows}.s"] += dur


def _forward_hook(tr, dur, args, out):
    rows = np.asarray(args[1])
    tr.counts["netcore.forward_logits.rows"] += 1 if rows.ndim == 1 else rows.shape[0]


def _edac_hook(tr, dur, args, out):
    config, opt_state = args[2], args[3]
    scheduled = train.eta_at_epoch(config, opt_state.epoch)
    if scheduled > 0.0:
        tr.counts["train.half_step.batches"] += 1
        if out[2].eta < scheduled:
            tr.counts["train.half_step.cap_bound"] += 1


def _pass_hook(tr, dur, args, out):
    model, dataset, attack_config = args[0], args[1], args[2]
    tr.counts["diagnostics.attack_passes"] += 1
    key = (_digest(*(a for _, a in model.params.items())),
           _digest(dataset.inputs, dataset.labels), repr(attack_config))
    if key not in tr.round_passes:
        tr.round_passes.add(key)
        tr.counts["diagnostics.attack_passes.distinct"] += 1


def _sweep_hook(tr, dur, args, out):
    for row in out:
        tr.counts["diagnostics.sweep.rows"] += 1
        value = (repr(row.ac_train), repr(row.robust_acc_test), row.ok)
        if value not in tr.round_rows:
            tr.counts["diagnostics.sweep.rows.distinct"] += 1
        tr.round_rows.append(value)


PATCHES = [
    # attack
    (train, "generate_batch", "attack.generate_batch", _attack_hook),
    (diagnostics, "generate_batch", "attack.generate_batch", _attack_hook),
    (objective, "generate_batch", "attack.generate_batch", _attack_hook),
    # autodiff
    (attack, "backward", "autodiff.backward", None),
    (train, "backward", "autodiff.backward", None),
    (objective, "backward", "autodiff.backward", None),
    (netcore, "backward", "autodiff.backward", None),
    # netcore
    (netcore, "forward_logits", "netcore.forward_logits", _forward_hook),
    (diagnostics, "forward_logits", "netcore.forward_logits", _forward_hook),
    (objective, "forward_logits", "netcore.forward_logits", _forward_hook),
    (netcore.DiffModel, "logits", "netcore.diff_logits", None),
    # objective
    (train, "certainty_value", "objective.certainty_value", None),
    (train, "grad_certainty_frozen", "objective.grad_certainty_frozen", None),
    # train
    (train, "at_update", "train.update.at", None),
    (train, "edac_update", "train.update.edac", _edac_hook),
    (train, "edac_reg_update", "train.update.edac_reg", None),
    (train, "sgd_step", "train.sgd_step", None),
    (train, "evaluate_epoch", "train.evaluate_epoch", None),
    (cli, "save_checkpoint", "train.checkpoint_io", None),
    (cli, "load_checkpoint", "train.checkpoint_io", None),
    # diagnostics: every call below is one attack pass over a dataset
    (train, "split_metrics", "diagnostics.split_metrics", _pass_hook),
    (cli, "robust_accuracy", "diagnostics.robust_accuracy", _pass_hook),
    (cli, "dataset_certainty", "diagnostics.dataset_certainty", _pass_hook),
    (cli, "compute_heatmap", "diagnostics.compute_heatmap", _pass_hook),
    (diagnostics, "robust_accuracy", "diagnostics.robust_accuracy", _pass_hook),
    (diagnostics, "dataset_certainty", "diagnostics.dataset_certainty", _pass_hook),
    (cli, "clean_accuracy", "diagnostics.clean_accuracy", None),
    (cli, "stepsize_sweep", "diagnostics.stepsize_sweep", _sweep_hook),
    # config and data
    (cli, "load_config", "config.load_config", None),
    (config.ExperimentConfig, "build_datasets", "data.build_datasets", None),
    # cli artifact writers
    (cli, "write_history_csv", "cli.artifacts", None),
    (cli, "write_history_json", "cli.artifacts", None),
    (cli, "write_heatmap_csv", "cli.artifacts", None),
    (cli, "write_variance_csv", "cli.artifacts", None),
    (cli, "write_sweep_csv", "cli.artifacts", None),
]

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "attack.passes": "count",
    "attack.pgd_steps": "count",
    "attack.self_s": "s",
    "attack.pgd_step_ms.b64": "ms",
    "attack.pgd_step_ms.b256": "ms",
    "autodiff.backward.calls": "count",
    "autodiff.backward.self_s": "s",
    "netcore.forward_logits.calls": "count",
    "netcore.forward_logits.rows": "count",
    "netcore.forward_logits.self_s": "s",
    "netcore.diff_logits.calls": "count",
    "objective.certainty_value.calls": "count",
    "objective.grad_certainty_frozen.ms": "ms",
    "train.update_ms.at": "ms",
    "train.update_ms.edac": "ms",
    "train.update_ms.edac_reg": "ms",
    "train.sgd_step.self_s": "s",
    "train.evaluate_epoch.s": "s",
    "train.half_step.batches": "count",
    "train.half_step.cap_bound": "count",
    "diagnostics.sweep.rows": "count",
    "diagnostics.sweep.rows.distinct": "count",
    "diagnostics.attack_passes": "count",
    "diagnostics.attack_passes.distinct": "count",
    "diagnostics.self_s": "s",
    "config.load_s": "s",
    "data.build_s": "s",
    "train.checkpoint_io.s": "s",
    "cli.artifacts_s": "s",
    "cli.train_s.at": "s",
    "cli.train_s.edac": "s",
    "cli.train_s.edac_reg": "s",
    "cli.sweep_s": "s",
    "cli.eval_s": "s",
    "cli.heatmap_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float):
    """Per-round values of every ``PER_LAYER`` metric from the traced rounds."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot[name][0] if name in tot else 0

    def incl(name):
        return tot[name][1] if name in tot else 0.0

    def self_s(prefix):
        return sum(rec[2] for name, rec in tot.items() if name.startswith(prefix))

    def mean_ms(name):
        n = calls(name)
        return 1000.0 * incl(name) / n if n else 0.0

    def step_ms(rows):
        steps = c[f"attack.b{rows}.steps"]
        return 1000.0 * c[f"attack.b{rows}.s"] / steps if steps else 0.0

    per_round = {
        "attack.passes": c["attack.passes"],
        "attack.pgd_steps": c["attack.pgd_steps"],
        "attack.self_s": self_s("attack."),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.self_s": self_s("autodiff."),
        "netcore.forward_logits.calls": calls("netcore.forward_logits"),
        "netcore.forward_logits.rows": c["netcore.forward_logits.rows"],
        "netcore.forward_logits.self_s": self_s("netcore.forward_logits"),
        "netcore.diff_logits.calls": calls("netcore.diff_logits"),
        "objective.certainty_value.calls": calls("objective.certainty_value"),
        "train.sgd_step.self_s": self_s("train.sgd_step"),
        "train.evaluate_epoch.s": incl("train.evaluate_epoch"),
        "train.half_step.batches": c["train.half_step.batches"],
        "train.half_step.cap_bound": c["train.half_step.cap_bound"],
        "diagnostics.sweep.rows": c["diagnostics.sweep.rows"],
        "diagnostics.sweep.rows.distinct": c["diagnostics.sweep.rows.distinct"],
        "diagnostics.attack_passes": c["diagnostics.attack_passes"],
        "diagnostics.attack_passes.distinct": c["diagnostics.attack_passes.distinct"],
        "diagnostics.self_s": self_s("diagnostics."),
        "config.load_s": incl("config.load_config"),
        "data.build_s": incl("data.build_datasets"),
        "train.checkpoint_io.s": incl("train.checkpoint_io"),
        "cli.artifacts_s": incl("cli.artifacts"),
        "cli.train_s.at": incl("cli.train.at"),
        "cli.train_s.edac": incl("cli.train.edac"),
        "cli.train_s.edac_reg": incl("cli.train.edac_reg"),
        "cli.sweep_s": incl("cli.sweep"),
        "cli.eval_s": incl("cli.eval"),
        "cli.heatmap_s": incl("cli.heatmap"),
        "trace.spans": len(tracer.spans),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update({
        "attack.pgd_step_ms.b64": step_ms(64),
        "attack.pgd_step_ms.b256": step_ms(256),
        "objective.grad_certainty_frozen.ms": mean_ms("objective.grad_certainty_frozen"),
        "train.update_ms.at": mean_ms("train.update.at"),
        "train.update_ms.edac": mean_ms("train.update.edac"),
        "train.update_ms.edac_reg": mean_ms("train.update.edac_reg"),
        "trace.overhead_pct": overhead_pct,
    })
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

"""Independent reference for the benchmark's correctness checks.

Written from ``docs/formats.md`` and the README's definitions; it imports
nothing from ``advlab``. It has three parts:

* ``read_checkpoint``: the ``ADVCKPT1`` byte layout, including the rule that
  the file is exactly ``12 + H + 16 * P`` bytes long;
* ``forward``: a plain ReLU MLP, ``z = x @ W + b`` per layer, ReLU between;
* ``pgd_linf``: signed-gradient ascent on the summed cross-entropy with a
  hand-derived input gradient (softmax minus one-hot, back through the
  layers), projected onto the linf ball around the clean input.

``attack_metrics`` turns these into the numbers advlab reports: the accuracy
of the attacked predictions and the certainty, the mean over examples of the
population standard deviation of the logits at the attack's output.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"ADVCKPT1"


@dataclass(frozen=True)
class RefCheckpoint:
    header: dict
    layers: tuple  # ((W, b), ...) in forward order
    momentum: np.ndarray


def read_checkpoint(path) -> RefCheckpoint:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:8]!r}")
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    shapes = [tuple(shape) for _, shape in header["segments"]]
    count = sum(int(np.prod(s)) for s in shapes)
    if len(raw) != 12 + hlen + 16 * count:
        raise ValueError(
            f"{path}: {len(raw)} bytes, the layout needs 12 + {hlen} + 16*{count}"
        )
    flat = np.frombuffer(raw, dtype="<f8", count=2 * count, offset=12 + hlen)
    arrays, pos = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[pos : pos + size].reshape(shape))
        pos += size
    names = [name for name, _ in header["segments"]]
    if names != [f"{p}{i}" for i in range(len(names) // 2) for p in ("w", "b")]:
        raise ValueError(f"{path}: unexpected segment order {names}")
    layers = tuple(zip(arrays[0::2], arrays[1::2]))
    return RefCheckpoint(header, layers, flat[count:].copy())


def forward(layers, x, keep=False):
    """Logits of the rows of ``x``; with ``keep`` also each layer's input."""
    inputs = []
    z = x
    for i, (w, b) in enumerate(layers):
        if i:
            z = np.maximum(z, 0.0)
        inputs.append(z)
        z = z @ w + b
    return (z, inputs) if keep else z


def ce_input_grad(layers, x, y):
    """Gradient of the summed cross-entropy with respect to each input row."""
    logits, inputs = forward(layers, x, keep=True)
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    g = p
    g[np.arange(len(y)), y] -= 1.0
    for i in range(len(layers) - 1, -1, -1):
        g = g @ layers[i][0].T
        if i:
            g = g * (inputs[i] > 0.0)
    return g


def pgd_linf(layers, x, y, epsilon, step_size, steps):
    """linf PGD from the clean point without random start or domain clamp."""
    delta = np.zeros_like(x)
    for _ in range(steps):
        g = ce_input_grad(layers, x + delta, y)
        delta = np.clip(delta + step_size * np.sign(g), -epsilon, epsilon)
    return x + delta


def row_std(u):
    centered = u - u.mean(axis=1, keepdims=True)
    return np.sqrt((centered * centered).mean(axis=1))


def attack_metrics(layers, x, y, epsilon, step_size, steps, chunk=256):
    """(accuracy, certainty) at the output of a linf PGD attack. Rows are
    independent; chunks only bound the memory the reference adds to a run."""
    correct, spread = 0, 0.0
    for i in range(0, len(x), chunk):
        xs, ys = x[i : i + chunk], y[i : i + chunk]
        logits = forward(layers, pgd_linf(layers, xs, ys, epsilon, step_size, steps))
        correct += int((logits.argmax(axis=1) == ys).sum())
        spread += float(row_std(logits).sum())
    return correct / len(x), spread / len(x)

"""Checks of the benchmark's reference on cases worked out by hand or by
central finite differences. Run with ``python3 -m pytest bench``."""

import json
import struct

import numpy as np
import pytest

from reference import attack_metrics, ce_input_grad, forward, pgd_linf, read_checkpoint


def write_checkpoint(path, layers, momentum_scale=0.5):
    """A checkpoint assembled byte by byte from docs/formats.md."""
    segments = []
    for i, (w, b) in enumerate(layers):
        segments += [[f"w{i}", list(w.shape)], [f"b{i}", list(b.shape)]]
    header = json.dumps({"version": 1, "segments": segments}).encode()
    params = np.concatenate([a.ravel() for wb in layers for a in wb])
    blob = b"ADVCKPT1" + struct.pack("<I", len(header)) + header
    blob += params.astype("<f8").tobytes() + (momentum_scale * params).astype("<f8").tobytes()
    path.write_bytes(blob)
    return params


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return ((rng.normal(size=(3, 5)), rng.normal(size=5)),
            (rng.normal(size=(5, 4)), rng.normal(size=4)))


def test_checkpoint_roundtrip_and_length_rule(tmp_path):
    layers = small_net()
    path = tmp_path / "m.ckpt"
    params = write_checkpoint(path, layers)
    ckpt = read_checkpoint(path)
    for (w, b), (rw, rb) in zip(layers, ckpt.layers):
        assert np.array_equal(w, rw) and np.array_equal(b, rb)
    assert np.array_equal(ckpt.momentum, 0.5 * params)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="16\\*"):
        read_checkpoint(path)


def test_forward_by_hand():
    layers = ((np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([0.0, 1.0])),
              (np.array([[1.0], [3.0]]), np.array([-1.0])))
    # hidden pre-activation: [1 + 4, -1 + 0 + 1] = [5, 0]; relu -> [5, 0]
    assert forward(layers, np.array([[1.0, 2.0]]))[0, 0] == 5.0 - 1.0


def test_input_grad_matches_finite_differences():
    layers = small_net(1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    y = np.array([0, 1, 2, 3])

    def loss(xs):
        z = forward(layers, xs)
        m = z.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))[:, 0]
        return float((lse - z[np.arange(4), y]).sum())

    g = ce_input_grad(layers, x, y)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            e = np.zeros_like(x)
            e[i, j] = h
            assert abs((loss(x + e) - loss(x - e)) / (2 * h) - g[i, j]) < 1e-6


def test_pgd_on_a_linear_model():
    # logits = x @ W with W = [[1, -1], [0, 0]]: for label 0 the loss rises
    # along -x0 and ignores x1, so each step moves x0 down and leaves x1.
    layers = ((np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros(2)),)
    x = np.array([[0.3, 0.2]])
    adv = pgd_linf(layers, x, np.array([0]), epsilon=0.25, step_size=0.1, steps=4)
    assert np.allclose(adv, [[0.05, 0.2]])
    acc, cert = attack_metrics(layers, x, np.array([0]), 0.0, 1.0, 0)
    assert acc == 1.0 and cert == pytest.approx(0.3)

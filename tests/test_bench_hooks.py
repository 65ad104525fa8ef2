"""The benchmark's traced runs patch advlab attributes by name
(``bench/tracing.py`` ``PATCHES``); a refactor that renames or removes one,
or changes what a hooked function returns, would crash ``bench/run.py
--trace 1``. These tests keep every hook live."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

from advlab import cli, workers  # noqa: E402
from test_cli import QUICK  # noqa: E402


def test_every_patched_attribute_resolves():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.PATCHES if not hasattr(owner, attr)]
    assert missing == []


def test_install_then_uninstall_restores_the_originals():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
        assert all(p is not b for p, b in zip(patched, before))
    finally:
        tracer.uninstall()
    after = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    assert all(a is b for a, b in zip(after, before))


def test_traced_commands_exit_zero_and_count(tmp_path, monkeypatch):
    # one CPU: no forked child holds counts back from this process's tracer
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    out = tmp_path / "run"
    cfg = tmp_path / "edac.ini"
    cfg.write_text(QUICK.format(out=out).replace("method = at",
                                                 "method = edac\nedac_eta = 0.05"))
    base = ["--config", str(cfg), "--checkpoint"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["train", "--config", str(cfg)]),
                 cli.main(["eval", *base, str(out / "last.ckpt")]),
                 cli.main(["heatmap", *base, str(out / "last.ckpt")]),
                 cli.main(["sweep", *base, str(out / "best.ckpt"), "--etas", "0,0.5,50"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    counts = {name: tracer.counts[name] for name in (
        "attack.passes", "train.half_step.batches", "train.half_step.cap_bound",
        "diagnostics.attack_passes", "diagnostics.sweep.rows")}
    assert all(v > 0 for v in counts.values()), counts

"""The benchmark's traced runs patch advlab attributes by name
(``bench/tracing.py`` ``PATCHES``); a refactor that renames or removes one
would crash ``bench/run.py --trace 1``. These tests keep every hook live."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


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

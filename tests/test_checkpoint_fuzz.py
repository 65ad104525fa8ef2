"""Fuzzed checkpoint headers: whatever a header holds, ``load_checkpoint``
returns a checkpoint or raises ``CheckpointError``, and ``advlab eval`` exits
0 or 4, never with a traceback. A mutation anywhere in the header that
changes a value's JSON type, drops a key or an element, or adds one is always
a ``CheckpointError``, except that dropping the ``measured`` record or one of
its passes leaves a checkpoint that records less, and that a ``domain_clamp``
may be a list of two floats. Whatever a pass's ``preds`` string holds,
``advlab eval`` and ``advlab heatmap`` exit 0 or 4."""

import base64
import copy
import json
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from advlab import workers
from advlab.cli import main
from advlab.errors import CheckpointError
from advlab.train import load_checkpoint
from test_cli import QUICK, rewrite_checkpoint

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# values at the edges of what a field's reader converts, drawn half the time
VALUE = st.sampled_from([float("inf"), float("-inf"), float("nan"), 2 ** 64, -1, 0, 0.5,
                         True, None, "", [], {}]) | JSON
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(config, checkpoint, header, temporary directory) of a two-epoch run.
    The module runs on one CPU, so that no example forks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "cpu_count", lambda: 1)
        root = tmp_path_factory.mktemp("fuzz")
        cfg = root / "run.ini"
        cfg.write_text(QUICK.format(out=root / "run"))
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = root / "run" / "last.ckpt"
        raw = ckpt.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        yield cfg, ckpt, json.loads(raw[12:12 + hlen]), root


def paths(node, prefix=()):
    """Every (path, value) below ``node``, containers before their items."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from paths(value, prefix + (key,))


def mutate(header, data):
    """A copy of ``header`` with one value in it replaced, or one key or
    element removed or added: (copy, kind, path, old value, new value)."""
    out = copy.deepcopy(header)
    path = data.draw(st.sampled_from(sorted(dict(paths(out)), key=repr)))
    *parent_path, key = path
    parent = out
    for k in parent_path:
        parent = parent[k]
    old = parent[key]
    kinds = ["replace", "remove"] + (["add"] if isinstance(old, (dict, list)) else [])
    kind = data.draw(st.sampled_from(kinds))
    new = data.draw(VALUE)
    if kind == "remove":
        del parent[key]
    elif kind == "add" and isinstance(old, dict):
        name = data.draw(st.text(max_size=8))
        assume(name not in old)
        old[name] = new
    elif kind == "add":
        old.insert(data.draw(st.integers(0, len(old))), new)
    else:
        parent[key] = new
    return out, kind, path, old, new


def write(ckpt, header, dst):
    rewrite_checkpoint(ckpt, dst, edit_header=lambda _: header)


def eval_code(cfg, ckpt, root):
    return main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(root / "eval")])


@FUZZ
@given(data=st.data())
def test_any_header_loads_or_is_a_checkpoint_error(run, data):
    cfg, ckpt, header, root = run
    mutated, *_ = mutate(header, data)
    bad = root / "bad.ckpt"
    write(ckpt, mutated, bad)
    try:
        load_checkpoint(bad)
        loaded = True
    except CheckpointError:
        loaded = False
    assert eval_code(cfg, bad, root) in ((0, 4) if loaded else (4,))


def optional(kind, path):
    """Whether the mutation drops what a checkpoint may lack: the ``measured``
    record or one of its passes."""
    return kind == "remove" and (path == ("measured",) or (
        path[:2] == ("measured", "passes") and len(path) == 3))


def valid_clamp(path, value):
    """A list of two floats is the one other type ``domain_clamp`` takes."""
    return (path[-1] == "domain_clamp" and isinstance(value, list) and len(value) == 2
            and all(type(v) is float for v in value))


@FUZZ
@given(data=st.data())
def test_a_broken_header_is_a_checkpoint_error(run, data):
    cfg, ckpt, header, root = run
    mutated, kind, path, old, new = mutate(header, data)
    if kind == "replace":
        # a change of JSON type only; int, float and bool count as three types
        assume(type(new) is not type(old) and not valid_clamp(path, new))
    bad = root / "bad_header.ckpt"
    write(ckpt, mutated, bad)
    if optional(kind, path):
        load_checkpoint(bad)
        assert eval_code(cfg, bad, root) == 0
        return
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    assert eval_code(cfg, bad, root) == 4


BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="


def edit_sequence(data, items, item):
    """``items`` (a list) with 1 to 3 elements replaced, inserted or deleted,
    each new one drawn from ``item``."""
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(items)))
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or at == len(items):
            items.insert(at, data.draw(item))
        elif kind == "replace":
            items[at] = data.draw(item)
        else:
            del items[at]
    return items


@FUZZ
@given(data=st.data())
def test_any_preds_string_loads_or_is_a_checkpoint_error(run, data):
    # the string is edited as text, or its bytes are edited and encoded
    # again: the latter keeps it base64 and reaches the checks at lookup
    cfg, ckpt, header, root = run
    mutated = copy.deepcopy(header)
    entries = mutated["measured"]["passes"]
    entry = entries[data.draw(st.integers(0, len(entries) - 1))]
    if data.draw(st.booleans()):
        chars = list(entry["preds"])
        entry["preds"] = "".join(edit_sequence(data, chars, st.sampled_from(BASE64)
                                               | st.characters()))
    else:
        raw = list(base64.b64decode(entry["preds"]))
        entry["preds"] = base64.b64encode(
            bytes(edit_sequence(data, raw, st.integers(0, 255)))).decode("ascii")
    bad = root / "bad_preds.ckpt"
    write(ckpt, mutated, bad)
    try:
        load_checkpoint(bad)
        codes = (0, 4)
    except CheckpointError:
        codes = (4,)
    assert eval_code(cfg, bad, root) in codes
    assert main(["heatmap", "--config", str(cfg), "--checkpoint", str(bad),
                 "--split", entry["split"], "--out", str(root / "heatmap")]) in codes

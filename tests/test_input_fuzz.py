"""Fuzzed inputs. A mutated bundled config either parses or raises
``ConfigError``, and the data set and model it names then either build or
raise an error that exits 2. A mutated IDX file pair either loads or raises
``DataFormatError`` or ``ConfigError``. Every size drawn is either small or
past what numpy can hold, so no example allocates much memory."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from advlab.config import parse_config
from advlab.data import load_idx_images
from advlab.errors import ConfigError, DataFormatError, ShapeError
from advlab.netcore import init_model

ROOT = Path(__file__).resolve().parent.parent
MIXTURE = """[dataset]
kind = gaussian_mixture
classes = 3
dim = 4
train_per_class = 5
test_per_class = 3
separation = 2.0
noise_std = 0.5
seed = 1

"""
# each bundled config, and each with a small Gaussian mixture as its data
BASES = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "configs").glob("*.ini"))}
BASES.update({f"mixture_{name}": re.sub(r"(?s)\[dataset\].*?\n\n", MIXTURE, text, count=1)
              for name, text in list(BASES.items())})
HUGE = "99999999999999999999"
# no decimal digits in free text: a number it spelled could be a large size
TEXT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
VALUES = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from([HUGE, "-" + HUGE, str(2 ** 63), "1e400", "nan", "-inf", "0.5", "-0.5",
                     "", "banana", "true", "none", "0,1", "4,4", f"{HUGE},4", "benchmark",
                     "gaussian_mixture", "idx", "linf", "l2", "trades", "edac"]),
    TEXT,
)
KEYS = sorted({k for text in BASES.values() for k in re.findall(r"(?m)^(\w+) =", text)}
              | {"bogus"})
CONFIG_EDIT = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), st.integers(0, 3), VALUES),
    st.tuples(st.sampled_from(["drop", "repeat"]), st.integers(0, 80)),
    st.tuples(st.just("insert"), st.integers(0, 80), TEXT),
)
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def edit_config(text, edits):
    """``text`` with each edit applied: set the ``i``-th ``key = `` line (mod
    their count; appended when there is none), drop or repeat a line, insert
    a line."""
    lines = text.splitlines()
    for kind, *args in edits:
        if kind == "set":
            key, i, value = args
            at = [n for n, line in enumerate(lines) if re.match(rf"{key} =", line)]
            if at:
                lines[at[i % len(at)]] = f"{key} = {value}"
            else:
                lines.append(f"{key} = {value}")
        else:
            n = args[0] % len(lines)
            if kind == "drop":
                del lines[n]
            elif kind == "repeat":
                lines.insert(n, lines[n])
            else:
                lines.insert(n, args[1])
    return "\n".join(lines) + "\n"


@FUZZ
@given(base=st.sampled_from(sorted(BASES)), edits=st.lists(CONFIG_EDIT, min_size=1, max_size=3))
@example(base="benchmark_at.ini", edits=[("set", "hidden", 0, HUGE)])
@example(base="mixture_benchmark_at.ini", edits=[("set", "train_per_class", 0, HUGE)])
@example(base="mixture_benchmark_at.ini", edits=[("set", "seed", 0, "-1")])
def test_mutated_config_parses_or_is_a_config_error(base, edits):
    try:
        config = parse_config(edit_config(BASES[base], edits))
    except ConfigError:
        return
    try:
        train_set, _ = config.build_datasets()
        init_model(config.model_spec(train_set))
    except (ConfigError, DataFormatError, ShapeError):
        pass


IMAGES = np.arange(6 * 4 * 4, dtype=np.uint8).reshape(6, 4, 4)
LABELS = bytes([0, 1, 2, 0, 1, 2])
IDX_EDIT = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 120), st.integers(0, 255)),
    # a header dim: images count, height, width or labels count
    st.tuples(st.just("dim"), st.sampled_from([4, 8, 12]),
              st.sampled_from([0, 1, 2, 3, 4, 6, 7, 255, 65535, 2 ** 32 - 1])),
    st.tuples(st.just("cut"), st.integers(0, 120)),
    st.tuples(st.just("append"), st.binary(max_size=8)),
)


def edit_bytes(blob, edits):
    out = bytearray(blob)
    for kind, *args in edits:
        if kind == "byte" and args[0] < len(out):
            out[args[0]] = args[1]
        elif kind == "dim" and args[0] + 4 <= len(out):
            out[args[0]:args[0] + 4] = struct.pack(">I", args[1])
        elif kind == "cut":
            del out[args[0]:]
        elif kind == "append":
            out += args[0]
    return bytes(out)


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


@FUZZ
@given(images_edits=st.lists(IDX_EDIT, max_size=3), labels_edits=st.lists(IDX_EDIT, max_size=2),
       downsample=st.sampled_from([None, 1, 2, 3, 4, 0, -1]))
# 109 bytes whose header promises 255 x 65535 x 65535 images
@example(images_edits=[("dim", 4, 255), ("dim", 8, 65535), ("dim", 12, 65535), ("cut", 109)],
         labels_edits=[], downsample=None)
# no images, and images of no pixel
@example(images_edits=[("dim", 4, 0), ("cut", 16)], labels_edits=[("dim", 4, 0), ("cut", 8)],
         downsample=None)
@example(images_edits=[("dim", 8, 0), ("dim", 12, 0), ("cut", 16)], labels_edits=[],
         downsample=2)
def test_mutated_idx_pair_loads_or_is_a_data_error(idx_dir, images_edits, labels_edits,
                                                   downsample):
    ip, lp = idx_dir / "images.idx", idx_dir / "labels.idx"
    ip.write_bytes(edit_bytes(b"\x00\x00\x08\x03" + struct.pack(">III", 6, 4, 4)
                              + IMAGES.tobytes(), images_edits))
    lp.write_bytes(edit_bytes(b"\x00\x00\x08\x01" + struct.pack(">I", 6) + LABELS,
                              labels_edits))
    try:
        load_idx_images(ip, lp, downsample)
    except (DataFormatError, ConfigError):
        pass

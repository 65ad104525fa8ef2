"""Dataset provisioning: seeded synthetic tasks, IDX file ingestion, splitting
and batching. Everything is deterministic per seed."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .autodiff import as_f64
from .errors import ConfigError, DataFormatError, ShapeError
from .netcore import MAX_ARRAY_BYTES

SPLITS = ("train", "test")  # a split's index seeds its data and its evaluation passes


class Batch(NamedTuple):
    inputs: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        inputs = as_f64(self.inputs).copy()
        labels = np.asarray(self.labels, dtype=np.int64).copy()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.ndim != 2 or labels.ndim != 1 or inputs.shape[0] != labels.shape[0]:
            raise ShapeError(
                f"inputs {inputs.shape} and labels {labels.shape} must be (N,n) and (N,)"
            )
        if inputs.shape[0] < 1:
            raise ShapeError("dataset must contain at least one example")
        if not np.isfinite(inputs).all():
            raise ShapeError("dataset inputs contain non-finite values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ShapeError(f"labels must lie in [0, {self.num_classes})")
        inputs.setflags(write=False)
        labels.setflags(write=False)

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @cached_property
    def sha256(self) -> str:
        """Hex sha256 of the inputs' bytes (float64) then the labels' bytes
        (int64), in native byte order; the arrays are read-only, so it is
        computed once."""
        import hashlib  # imported here: not on the command-line start-up path

        digest = hashlib.sha256(self.inputs)
        digest.update(self.labels)
        return digest.hexdigest()

    def subset(self, idx, name=None) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.num_classes, name or self.name)


def make_gaussian_mixture(num_classes, dim, per_class, class_separation, noise_std, seed,
                          name="gaussian_mixture") -> Dataset:
    """Isotropic Gaussian blobs around class means laid out on a circle.

    The means sit in the first two coordinates on a circle whose radius makes
    adjacent means exactly ``class_separation`` apart (for dim 1 they sit on a
    line with that spacing); the remaining coordinates carry pure noise.
    """
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise ConfigError("num_classes, dim and per_class must all be positive")
    if class_separation < 0 or noise_std < 0:
        raise ConfigError("class_separation and noise_std must be non-negative")
    if 8 * num_classes * per_class * dim > MAX_ARRAY_BYTES:
        raise ConfigError(f"{num_classes} classes of {per_class} points in {dim} dimensions "
                          "are more than numpy can hold")
    means = np.zeros((num_classes, dim))
    if num_classes > 1:
        if dim >= 2:
            radius = class_separation / (2.0 * np.sin(np.pi / num_classes))
            angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
            means[:, 0] = radius * np.cos(angles)
            means[:, 1] = radius * np.sin(angles)
        else:
            means[:, 0] = class_separation * (np.arange(num_classes) - (num_classes - 1) / 2.0)
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    noise = rng.standard_normal((labels.size, dim)) * noise_std
    inputs = means[labels] + noise
    return Dataset(inputs, labels, num_classes, name)


def _read_exact(f, n, offset, path):
    data = f.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated file, wanted {n} bytes", offset=offset)
    return data


def _read_idx_array(path, expect_ndim):
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from exc
    with f:
        header = _read_exact(f, 4, 0, path)
        zeros, dtype_code, ndim = header[:2], header[2], header[3]
        if zeros != b"\x00\x00" or dtype_code != 0x08:
            raise DataFormatError(f"{path}: bad magic {header.hex()}", offset=0)
        if ndim != expect_ndim:
            raise DataFormatError(f"{path}: expected {expect_ndim} dims, got {ndim}", offset=3)
        dims = []
        for i in range(ndim):
            raw = _read_exact(f, 4, 4 + 4 * i, path)
            dims.append(struct.unpack(">I", raw)[0])
        count = math.prod(dims)
        offset = 4 + 4 * ndim
        left = os.fstat(f.fileno()).st_size - offset
        if count > left:
            raise DataFormatError(f"{path}: dims {dims} promise {count} bytes, the file "
                                  f"holds {left}", offset=offset)
        payload = _read_exact(f, count, offset, path)
        extra = f.read(1)
        if extra:
            raise DataFormatError(f"{path}: trailing bytes after payload", offset=offset + count)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx_images(images_path, labels_path, downsample_to=None) -> Dataset:
    """Read an IDX image/label file pair into a [0,1]-valued flat dataset.

    The byte layout is documented in docs/formats.md. ``downsample_to``
    average-pools square images down to the given edge length, which must
    divide the original edge.
    """
    images = _read_idx_array(images_path, expect_ndim=3)
    labels = _read_idx_array(labels_path, expect_ndim=1)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"{images_path}: {images.shape[0]} images but {labels.shape[0]} labels", offset=4
        )
    n, h, w = images.shape
    if not n * h * w:
        raise DataFormatError(f"{images_path}: {n} images of {h} x {w} pixels hold no pixel",
                              offset=4)
    pixels = images.astype(np.float64) / 255.0
    if downsample_to is not None:
        if h != w:
            raise DataFormatError(f"{images_path}: downsampling requires square images", offset=4)
        if downsample_to < 1 or h % downsample_to != 0:
            raise ConfigError(f"downsample_to must divide the edge length {h}")
        f = h // downsample_to
        pixels = pixels.reshape(n, downsample_to, f, downsample_to, f).mean(axis=(2, 4))
        h = w = downsample_to
    flat = pixels.reshape(n, h * w)
    num_classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(flat, labels.astype(np.int64), max(num_classes, 2), "idx")


def split(dataset: Dataset, train_fraction, shuffle_seed=0):
    """Disjoint, exhaustive, seeded-shuffle partition into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0,1), got {train_fraction}")
    n = len(dataset)
    n_train = int(round(n * train_fraction))
    if n_train < 1 or n_train >= n:
        raise ConfigError(
            f"train_fraction {train_fraction} leaves an empty side for {n} examples"
        )
    perm = np.random.default_rng(shuffle_seed).permutation(n)
    return (
        dataset.subset(perm[:n_train], f"{dataset.name}/train"),
        dataset.subset(perm[n_train:], f"{dataset.name}/test"),
    )


def idx_splits(images, labels, downsample_to, train_fraction, shuffle_seed, splits=SPLITS):
    """The splits named in ``splits``, in that order, of the IDX file pair
    ``load_idx_images`` reads, which is read whole and then ``split``."""
    parts = split(load_idx_images(images, labels, downsample_to), train_fraction, shuffle_seed)
    return tuple(parts[SPLITS.index(side)] for side in splits)


def batches(dataset: Dataset, batch_size, epoch_seed):
    """Seeded shuffle then contiguous chunks; the last batch may be short."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    perm = np.random.default_rng(epoch_seed).permutation(len(dataset))
    out = []
    for start in range(0, len(dataset), batch_size):
        idx = perm[start : start + batch_size]
        out.append(Batch(dataset.inputs[idx], dataset.labels[idx]))
    return out


def slices(dataset: Dataset, size=256):
    """Contiguous evaluation slices in dataset order (no shuffling)."""
    for start in range(0, len(dataset), size):
        yield Batch(dataset.inputs[start : start + size], dataset.labels[start : start + size])


# Default desk-scale benchmark: a 4-class, 16-dimensional mixture with 2000
# train and 1000 test points. Only the first two coordinates are informative;
# the other fourteen are pure noise a wide network can memorise. The class
# separation is low enough that boundary points can only be fit adversarially
# by memorising their noise signature, which is what makes the adversarially
# trained baseline overfit measurably (held-out robust accuracy peaks early
# and then decays).
BENCHMARK = dict(
    num_classes=4,
    dim=16,
    train_per_class=500,
    test_per_class=250,
    class_separation=2.2,
    noise_std=1.0,
    seed=2024,
)


def gaussian_mixture_splits(num_classes, dim, train_per_class, test_per_class,
                            class_separation, noise_std, seed, name, splits=SPLITS):
    """``make_gaussian_mixture``'s split for each name in ``splits``, in that
    order, named ``name/train`` or ``name/test`` and seeded from ``seed`` and
    the split's index in ``SPLITS``; a split not named is never generated."""
    per_class = dict(zip(SPLITS, (train_per_class, test_per_class)))
    return tuple(
        make_gaussian_mixture(num_classes, dim, per_class[side], class_separation, noise_std,
                              seed=np.random.SeedSequence([int(seed), SPLITS.index(side)])
                              .generate_state(1)[0],
                              name=f"{name}/{side}")
        for side in splits)


def default_benchmark(seed=None, splits=SPLITS):
    """The bundled benchmark's splits named in ``splits``; see ``BENCHMARK``."""
    cfg = dict(BENCHMARK)
    if seed is not None:
        cfg["seed"] = seed
    return gaussian_mixture_splits(**cfg, name="benchmark", splits=splits)

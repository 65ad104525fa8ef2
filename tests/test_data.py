import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advlab.data import (
    Batch,
    Dataset,
    batches,
    default_benchmark,
    load_idx_images,
    make_gaussian_mixture,
    split,
)
from advlab.errors import ConfigError, DataFormatError, ShapeError


def idx_images_bytes(images):
    """Serialize a (N, H, W) uint8 array in the IDX layout used by the reader."""
    n, h, w = images.shape
    return b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + images.tobytes()


def idx_labels_bytes(labels):
    return b"\x00\x00\x08\x01" + struct.pack(">I", len(labels)) + bytes(labels)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=2)

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(np.array([[np.inf]]), np.array([0]), 2)


class TestGaussianMixture:
    def test_zero_noise_points_equal_means(self):
        ds = make_gaussian_mixture(4, 8, 3, class_separation=2.0, noise_std=0.0, seed=1)
        for c in range(4):
            pts = ds.inputs[ds.labels == c]
            assert np.allclose(pts, pts[0])

    def test_adjacent_mean_distance_equals_separation(self):
        ds = make_gaussian_mixture(5, 6, 1, class_separation=3.0, noise_std=0.0, seed=0)
        m0, m1 = ds.inputs[0], ds.inputs[1]
        assert np.linalg.norm(m1 - m0) == pytest.approx(3.0)

    def test_same_seed_identical(self):
        a = make_gaussian_mixture(3, 4, 10, 2.0, 0.5, seed=9)
        b = make_gaussian_mixture(3, 4, 10, 2.0, 0.5, seed=9)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)

    def test_linear_probe_separable_when_far_apart(self):
        # nearest-class-mean is the independent probe; it is linear in x
        ds = make_gaussian_mixture(4, 8, 100, class_separation=20.0, noise_std=1.0, seed=3)
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
        d2 = ((ds.inputs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        preds = d2.argmin(axis=1)
        assert (preds == ds.labels).mean() >= 0.99

    def test_one_dim_line_arrangement(self):
        ds = make_gaussian_mixture(3, 1, 2, class_separation=1.5, noise_std=0.0, seed=0)
        xs = np.unique(ds.inputs)
        assert np.allclose(np.diff(xs), 1.5)

    def test_invalid_counts(self):
        with pytest.raises(ConfigError):
            make_gaussian_mixture(0, 4, 10, 1.0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            make_gaussian_mixture(2, 4, 10, 1.0, -0.1, seed=0)


class TestIdxReader:
    def test_roundtrip_known_pixels(self, tmp_path):
        imgs = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
        labels = [0, 1, 2, 1]
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(imgs))
        lp.write_bytes(idx_labels_bytes(labels))
        ds = load_idx_images(ip, lp)
        assert len(ds) == 4
        assert np.array_equal(ds.labels, labels)
        assert np.allclose(ds.inputs, imgs.reshape(4, 4) / 255.0)

    def test_truncated_file_reports_offset(self, tmp_path):
        imgs = np.zeros((2, 2, 2), dtype=np.uint8)
        blob = idx_images_bytes(imgs)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(blob[:-3])
        lp.write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(DataFormatError) as err:
            load_idx_images(ip, lp)
        assert err.value.offset == 16

    def test_bad_magic_rejected(self, tmp_path):
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(b"\x00\x01\x08\x03" + b"\x00" * 16)
        lp.write_bytes(idx_labels_bytes([0]))
        with pytest.raises(DataFormatError) as err:
            load_idx_images(ip, lp)
        assert err.value.offset == 0

    def test_count_mismatch_rejected(self, tmp_path):
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
        lp.write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(DataFormatError):
            load_idx_images(ip, lp)

    def test_downsample_constant_image_stays_constant(self, tmp_path):
        imgs = np.full((1, 4, 4), 100, dtype=np.uint8)
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(imgs))
        lp.write_bytes(idx_labels_bytes([1]))
        ds = load_idx_images(ip, lp, downsample_to=2)
        assert ds.inputs.shape == (1, 4)
        assert np.allclose(ds.inputs, 100 / 255.0)

    def test_downsample_must_divide(self, tmp_path):
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(idx_images_bytes(np.zeros((1, 4, 4), dtype=np.uint8)))
        lp.write_bytes(idx_labels_bytes([0]))
        with pytest.raises(ConfigError):
            load_idx_images(ip, lp, downsample_to=3)


class TestSplit:
    def test_empty_side_rejected(self):
        ds = make_gaussian_mixture(2, 3, 2, 1.0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            split(ds, train_fraction=0.05)

    def test_partition_is_exhaustive(self):
        ds = make_gaussian_mixture(3, 4, 20, 1.0, 0.3, seed=5)
        tr, te = split(ds, 0.7, shuffle_seed=2)
        assert len(tr) + len(te) == len(ds)
        merged = np.concatenate([tr.inputs, te.inputs])
        assert np.array_equal(np.sort(merged, axis=0), np.sort(ds.inputs, axis=0))

    def test_same_seed_same_membership(self):
        ds = make_gaussian_mixture(3, 4, 20, 1.0, 0.3, seed=5)
        a1, _ = split(ds, 0.6, shuffle_seed=3)
        a2, _ = split(ds, 0.6, shuffle_seed=3)
        assert np.array_equal(a1.inputs, a2.inputs)

    def test_classes_survive_moderate_fractions(self):
        ds = make_gaussian_mixture(4, 3, 8, 1.0, 0.2, seed=1)
        for frac in (0.25, 0.5, 0.75):
            tr, te = split(ds, frac, shuffle_seed=0)
            assert set(np.unique(tr.labels)) == set(range(4))
            assert set(np.unique(te.labels)) == set(range(4))


class TestBatches:
    def test_single_batch_when_large(self):
        ds = make_gaussian_mixture(2, 3, 5, 1.0, 0.2, seed=0)
        out = batches(ds, batch_size=100, epoch_seed=0)
        assert len(out) == 1 and len(out[0]) == 10

    @given(st.integers(1, 12), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_concatenation_is_permutation(self, bs, seed):
        ds = make_gaussian_mixture(2, 3, 6, 1.0, 0.2, seed=4)
        out = batches(ds, batch_size=bs, epoch_seed=seed)
        all_x = np.concatenate([b.inputs for b in out])
        assert all_x.shape == ds.inputs.shape
        assert np.array_equal(np.sort(all_x, axis=0), np.sort(ds.inputs, axis=0))

    def test_same_seed_same_order(self):
        ds = make_gaussian_mixture(2, 3, 6, 1.0, 0.2, seed=4)
        a = batches(ds, 4, epoch_seed=9)
        b = batches(ds, 4, epoch_seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)


def test_default_benchmark_shape():
    train, test = default_benchmark()
    assert len(train) == 2000 and len(test) == 1000
    assert train.dim == 16 and train.num_classes == 4
    tr2, _ = default_benchmark()
    assert np.array_equal(train.inputs, tr2.inputs)

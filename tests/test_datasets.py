"""Synthetic data generators: geometry, determinism, serialization."""

import numpy as np
import pytest
from helpers import knn_predict

from evidkit.datasets import (
    ARC_OFFSET,
    ARC_RADIUS,
    SEG_BLUR_SIGMA,
    _blur,
    gen_half_moons,
    gen_ood_class,
    gen_toy_segmentation,
    load_labeled,
    load_seg_task,
    save_labeled,
    save_seg_task,
    seg_task_as_samples,
)
from evidkit.errors import MalformedInput, OutOfRange


class TestHalfMoons:
    def test_noiseless_points_lie_on_arcs(self):
        ds = gen_half_moons(100, noise_sigma=0.0, seed=1)
        r0 = np.linalg.norm(ds.points[ds.labels == 0], axis=1)
        r1 = np.linalg.norm(ds.points[ds.labels == 1] - ARC_OFFSET, axis=1)
        np.testing.assert_allclose(r0, ARC_RADIUS, atol=1e-12)
        np.testing.assert_allclose(r1, ARC_RADIUS, atol=1e-12)

    def test_class_balance(self):
        for n in (300, 301):
            ds = gen_half_moons(n, seed=0)
            assert np.sum(ds.labels == 0) == n // 2
            assert np.sum(ds.labels == 1) == n - n // 2

    def test_deterministic(self):
        a = gen_half_moons(50, 0.1, seed=9)
        b = gen_half_moons(50, 0.1, seed=9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_classes_are_separable(self):
        ds = gen_half_moons(300, noise_sigma=0.1, seed=3)
        # leave-one-out nearest neighbor on the training points themselves
        correct = 0
        for i in range(len(ds)):
            others = np.delete(ds.points, i, axis=0)
            other_labels = np.delete(ds.labels, i)
            pred = knn_predict(others, other_labels, ds.points[i][None], k=1)[0]
            correct += pred == ds.labels[i]
        assert correct / len(ds) > 0.95

    def test_too_small(self):
        with pytest.raises(OutOfRange):
            gen_half_moons(1)


class TestOodClass:
    def test_far_from_arcs(self):
        train = gen_half_moons(300, 0.1, seed=2)
        ood = gen_ood_class(100, seed=5)
        d = np.linalg.norm(ood.points[:, None, :] - train.points[None, :, :], axis=2)
        assert d.min() > ARC_RADIUS

    def test_label_and_determinism(self):
        a = gen_ood_class(40, seed=7)
        b = gen_ood_class(40, seed=7)
        assert np.all(a.labels == 2)
        assert np.array_equal(a.points, b.points)


class TestToySegmentation:
    def test_zero_blobs_zero_mask(self):
        task = gen_toy_segmentation(32, 32, 0, seed=0)
        assert task.mask.sum() == 0
        assert np.all(task.image[:, :, 0] == 0.0)

    def test_mask_area_within_bounds(self):
        task = gen_toy_segmentation(64, 64, 3, seed=11)
        # blob radii lie between side/12 and side/8
        lo = 3 * np.pi * (64 / 12) ** 2 * 0.8
        hi = 3 * np.pi * (64 / 8) ** 2 * 1.2
        assert lo <= task.mask.sum() <= hi

    def test_deterministic(self):
        a = gen_toy_segmentation(64, 64, 3, seed=4)
        b = gen_toy_segmentation(64, 64, 3, seed=4)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_shapes_and_flatten(self):
        task = gen_toy_segmentation(48, 32, 2, seed=1)
        assert task.image.shape == (32, 48, 2)
        assert task.mask.shape == (32, 48)
        feats, targets = seg_task_as_samples(task)
        assert feats.shape == (32 * 48, 2)
        assert set(np.unique(targets)) <= {0, 1}

    def test_min_dims(self):
        with pytest.raises(OutOfRange):
            gen_toy_segmentation(4, 64, 1)

    def test_blur_is_scipy_gaussian_filter_bit_for_bit(self):
        # scipy is a test-only reference; shapes run below the radius of 6 too
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(0)
        for height in range(1, 80, 6):
            for width in range(1, 80, 7):
                mask = (rng.random((height, width)) < rng.uniform(0.05, 0.6)).astype(float)
                want = ndimage.gaussian_filter(mask, sigma=SEG_BLUR_SIGMA)
                got = _blur(mask)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (height, width)

    def test_blob_channel_is_the_blurred_mask(self):
        task = gen_toy_segmentation(40, 24, 2, seed=7)
        assert task.image[:, :, 0].tobytes() == _blur(task.mask.astype(float)).tobytes()


class TestSerialization:
    def test_labeled_round_trip(self, tmp_path):
        ds = gen_half_moons(30, 0.1, seed=6)
        path = tmp_path / "data.csv"
        save_labeled(path, ds)
        back = load_labeled(path)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_labeled_files_byte_identical(self, tmp_path):
        ds = gen_half_moons(30, 0.1, seed=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_labeled(p1, ds)
        save_labeled(p2, gen_half_moons(30, 0.1, seed=6))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seg_round_trip(self, tmp_path):
        task = gen_toy_segmentation(32, 24, 2, seed=3)
        save_seg_task(tmp_path / "seg", task)
        back = load_seg_task(tmp_path / "seg")
        np.testing.assert_array_equal(back.image, task.image)
        np.testing.assert_array_equal(back.mask, task.mask)


class TestMalformedFiles:
    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,label\n\n0.5,1.5,1\n\n")
        ds = load_labeled(path)
        np.testing.assert_array_equal(ds.points, [[0.5, 1.5]])
        np.testing.assert_array_equal(ds.labels, [1])

    @pytest.mark.parametrize("text", ["", "x1,x2,label\n", "label\n0\n", "x1,x2,label\n0.1,0.2,0.5\n",
                                      "x1,x2,label\n0.1,0.2,0,7\n"])
    def test_labeled_rejects(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(MalformedInput):
            load_labeled(path)

    def test_seg_grids_must_agree(self, tmp_path):
        save_seg_task(tmp_path / "t", gen_toy_segmentation(8, 8, 1, seed=0))
        (tmp_path / "t" / "mask.csv").write_text("0,1\n1,0\n")
        with pytest.raises(MalformedInput):
            load_seg_task(tmp_path / "t")

    @pytest.mark.parametrize("mask", ["0,2\n1,0\n", "0,nan\n1,0\n"])
    def test_seg_mask_is_binary(self, tmp_path, mask):
        directory = tmp_path / "t"
        directory.mkdir()
        for name in ("channel1.csv", "channel2.csv"):
            (directory / name).write_text("0.5,0.5\n0.5,0.5\n")
        (directory / "mask.csv").write_text(mask)
        with pytest.raises(MalformedInput):
            load_seg_task(directory)

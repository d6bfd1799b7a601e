"""Synthetic data generators: geometry, determinism, serialization."""

import csv
import io

import numpy as np
import pytest
from helpers import knn_predict
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evidkit.datasets import (
    ARC_OFFSET,
    ARC_RADIUS,
    SEG_BLUR_SIGMA,
    LabeledSet,
    _blur,
    _read_rows,
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

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_labeled_files_are_the_csv_writer_bytes(self, tmp_path, dim):
        edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1, 1 / 3]
        rng = np.random.default_rng(dim)
        points = rng.choice(edge, size=(3 * len(edge), dim))
        labels = rng.integers(0, 2**40, len(points))
        labels[:3] = 0, 1, 2**40
        path = tmp_path / "d.csv"
        save_labeled(path, LabeledSet(points, labels))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow([f"x{j + 1}" for j in range(dim)] + ["label"])
        writer.writerows(row + [label] for row, label in zip(points.tolist(), map(int, labels.tolist())))
        assert path.read_bytes() == want.getvalue().encode()
        back = load_labeled(path)
        assert back.points.view(np.uint64).tobytes() == points.view(np.uint64).tobytes()
        assert back.labels.tobytes() == labels.tobytes()

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

    def test_missing_seg_grid_is_an_os_error(self, tmp_path):
        save_seg_task(tmp_path / "t", gen_toy_segmentation(8, 8, 1, seed=0))
        (tmp_path / "t" / "channel2.csv").unlink()
        with pytest.raises(FileNotFoundError):
            load_seg_task(tmp_path / "t")


# `load_labeled` against `_read_rows` on the file, which is how it read every
# file before loadtxt: the same arrays, or the same error and message
FIELD_LIMIT = csv.field_size_limit()


def mostly(common, rare):
    """`common`, or one time in twenty `rare`."""
    return st.integers(0, 19).flatmap(lambda i: rare if i == 0 else common)


FEATURES = mostly(st.one_of(st.floats().map(repr), st.sampled_from([" 0.5 ", "nan", "-nan", "inf", "infinity",
                                                                    "1e400", "0.5\x0c"])),
                  st.sampled_from(["1_0.5", '"0.5"', "", "abc"]))
LABELS = mostly(st.sampled_from(["0", "1", "+1", "01", "-0", " 2 ", str(2**40), str(2**62)]),
                st.sampled_from(["1.0", "-1", "1_0", str(2**63)]))
HEADERS = mostly(st.sampled_from(["x1,label", "x1,x2,label", "x1,x2,x3,x4,x5,label", "a,b,label"]),
                 st.sampled_from(["label", "", "0.5,1.5,2", '"x1",x2,label', '"x1,x2",label', '"x1\nx2",label']))


@st.composite
def labeled_files(draw):
    header = draw(HEADERS)
    width = max(header.count(",") + 1, 2)
    lines = [header.encode()]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(mostly(st.just("row"), st.sampled_from(["blank", "space", "short", "long", "oversized", "half",
                                                            "nul", "bad-byte"])))
        if kind == "blank":
            lines.append(b"")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([b" ", b"\t", b"  "])))
            continue
        n = width + {"short": -1, "long": 1}.get(kind, 0)
        fields = [draw(FEATURES) for _ in range(n - 1)] + [draw(LABELS)]
        if kind in ("oversized", "half"):  # a field over csv's limit, or lines under it that sum past it
            fields[0] = "1" * (FIELD_LIMIT + 1 if kind == "oversized" else FIELD_LIMIT // 2)
        line = ",".join(fields).encode()
        if kind in ("nul", "bad-byte"):
            at = draw(st.integers(0, len(line)))
            line = line[:at] + (b"\0" if kind == "nul" else b"\xff") + line[at:]
        lines.append(line)
    end = draw(st.sampled_from([b"\n", b"\r\n"]))
    return end.join(lines) + draw(st.sampled_from([b"", end]))


def read_outcome(load, path):
    try:
        ds = load(path)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (ds.points, ds.labels)]  # bits: -0.0, NaNs


def read_by_rows(path):
    with path.open() as fh:
        return _read_rows(path, fh)


@settings(max_examples=300, deadline=None)
@given(data=labeled_files())
# one file for each case loadtxt leaves to the row reader
@example(data=b'"x1,x2",label\r\n0.5,1.5,1\r\n')  # a quoted header: csv reads one feature, split(",") two
@example(data=b"label\n0\n")  # no feature column
@example(data=b"0.1,0.2,0\n0.3,0.4,1\n")  # no header
@example(data=b"x1,x2,label\n\n")  # no data rows
@example(data=b"x1,label\n" + b"1" * (FIELD_LIMIT + 1) + b",0\n")  # a field over csv's limit
@example(data=b"x1,label\n0.5,-1\n")  # a negative label
@example(data=b"x1,label\n0.5\n0.5,\xff1\n")  # a short row before bytes that are not text
def test_load_labeled_is_the_row_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "labeled.csv"
    path.write_bytes(data)
    assert read_outcome(load_labeled, path) == read_outcome(read_by_rows, path)

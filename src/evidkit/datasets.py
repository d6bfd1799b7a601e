"""Synthetic data: interleaved half-circle classes, an out-of-distribution
blob, and a toy two-channel segmentation task.

All generators are pure functions of their parameters and seed.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import MalformedInput, OutOfRange

ARC_RADIUS = 1.0
ARC_OFFSET = np.array([1.0, 0.5])   # second arc center relative to the first
OOD_CENTER = np.array([0.5, 5.0])   # well above both arcs
OOD_SIGMA = 0.3
SEG_BLUR_SIGMA = 1.5  # Gaussian blur of the blob channel, in pixels


@dataclass
class LabeledSet:
    points: np.ndarray  # (N, D)
    labels: np.ndarray  # (N,) integer classes

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class ToySegTask:
    image: np.ndarray  # (height, width, 2) intensity channels
    mask: np.ndarray   # (height, width) binary ground truth


def gen_half_moons(n: int, noise_sigma: float = 0.1, seed: int = 0) -> LabeledSet:
    """Two interleaved half circles with isotropic Gaussian noise.

    Class 0 gets floor(n/2) points on the upper unit arc centered at the
    origin; class 1 gets the rest on the lower arc shifted by (1, 0.5).
    """
    if n < 2:
        raise OutOfRange(f"need at least 2 points, got {n}")
    if not noise_sigma >= 0:  # NaN too
        raise OutOfRange(f"noise sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    arc0 = ARC_RADIUS * np.column_stack([np.cos(t0), np.sin(t0)])
    arc1 = ARC_OFFSET - ARC_RADIUS * np.column_stack([np.cos(t1), np.sin(t1)])
    points = np.vstack([arc0, arc1])
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    if noise_sigma > 0:
        points = points + rng.normal(0.0, noise_sigma, size=points.shape)
    order = rng.permutation(n)
    return LabeledSet(points[order], labels[order])


def gen_ood_class(n: int, seed: int = 0) -> LabeledSet:
    """A Gaussian blob far above both arcs, labeled as a third class."""
    if n < 1:
        raise OutOfRange(f"need at least 1 point, got {n}")
    rng = np.random.default_rng(seed)
    points = rng.normal(OOD_CENTER, OOD_SIGMA, size=(n, 2))
    return LabeledSet(points, np.full(n, 2, dtype=int))


def gen_toy_segmentation(width: int, height: int, n_blobs: int, seed: int = 0) -> ToySegTask:
    """Bright blurred blobs on a smooth nuisance background.

    Channel 0 is the blurred blob intensity, channel 1 a smooth gradient that
    carries no class information.  The mask is the exact blob support.  Blob
    radii are uniform between 1/12 and 1/8 of the shorter side.
    """
    if width < 8 or height < 8:
        raise OutOfRange("grid dimensions must be at least 8")
    if n_blobs < 0:
        raise OutOfRange(f"need n_blobs >= 0, got {n_blobs}")
    scale = min(width, height)
    r_min, r_max = scale / 12.0, scale / 8.0
    rng = np.random.default_rng(seed)

    mask = np.zeros((height, width), dtype=int)
    yy, xx = np.mgrid[0:height, 0:width]
    centers: list[np.ndarray] = []
    radii: list[float] = []
    attempts = 0
    while len(centers) < n_blobs and attempts < 1000:
        attempts += 1
        r = rng.uniform(r_min, r_max)
        cy = rng.uniform(r + 1, height - r - 1)
        cx = rng.uniform(r + 1, width - r - 1)
        if any(np.hypot(cy - c[0], cx - c[1]) < r + rr + 2 for c, rr in zip(centers, radii)):
            continue
        centers.append(np.array([cy, cx]))
        radii.append(r)
        mask |= ((yy - cy) ** 2 + (xx - cx) ** 2 <= r**2).astype(int)
    if len(centers) < n_blobs:
        raise OutOfRange(f"could not place {n_blobs} disjoint blobs on a {width}x{height} grid")

    blob_channel = gaussian_filter(mask.astype(float), sigma=SEG_BLUR_SIGMA)
    ramp = np.linspace(0.0, 1.0, height)[:, None] * np.ones((1, width))
    ripple = 0.2 * np.sin(np.linspace(0.0, 3 * np.pi, width))[None, :]
    image = np.stack([blob_channel, ramp + ripple], axis=-1)
    return ToySegTask(image, mask)


def seg_task_as_samples(task: ToySegTask) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a segmentation task into per-pixel feature rows and binary targets."""
    feats = task.image.reshape(-1, 2)
    targets = task.mask.reshape(-1)
    return feats, targets


def save_labeled(path, ds: LabeledSet) -> None:
    path = Path(path)
    dim = ds.points.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(dim)] + ["label"])
        for row, label in zip(ds.points, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_labeled(path) -> LabeledSet:
    """Read a `save_labeled` CSV; blank lines are skipped, any other bad line
    (a negative label included) raises MalformedInput."""
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        dim = len(header) - 1
        if dim < 1:
            raise MalformedInput(f"{path}: no header with feature and label columns")
        points, labels = [], []
        for row in filter(None, reader):
            try:
                if len(row) != dim + 1:
                    raise ValueError(f"expected {dim + 1} fields, got {len(row)}")
                points.append([float(v) for v in row[:dim]])
                labels.append(int(row[dim]))
                if labels[-1] < 0:
                    raise ValueError(f"negative label {labels[-1]}")
            except ValueError as exc:
                raise MalformedInput(f"{path}, line {reader.line_num}: {exc}") from None
    if not labels:
        raise MalformedInput(f"{path}: no data rows")
    return LabeledSet(np.asarray(points), np.asarray(labels, dtype=int))


def save_seg_task(directory, task: ToySegTask) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savetxt(directory / "channel1.csv", task.image[:, :, 0], delimiter=",", fmt="%.17g")
    np.savetxt(directory / "channel2.csv", task.image[:, :, 1], delimiter=",", fmt="%.17g")
    np.savetxt(directory / "mask.csv", task.mask, delimiter=",", fmt="%d")


def _load_grid(path: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
            grid = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    if grid.size == 0:
        raise MalformedInput(f"{path}: no data")
    return grid


def load_seg_task(directory) -> ToySegTask:
    """Read a `save_seg_task` directory; bad or mismatched grids raise MalformedInput."""
    directory = Path(directory)
    c1, c2, mask = (_load_grid(directory / name) for name in ("channel1.csv", "channel2.csv", "mask.csv"))
    if not c1.shape == c2.shape == mask.shape:
        raise MalformedInput(f"{directory}: grids of shapes {c1.shape}, {c2.shape}, {mask.shape}")
    if not np.all(np.isin(mask, (0, 1))):
        raise MalformedInput(f"{directory / 'mask.csv'}: entries other than 0 and 1")
    return ToySegTask(np.stack([c1, c2], axis=-1), mask.astype(int))

"""Synthetic data: interleaved half-circle classes, an out-of-distribution
blob, and a toy two-channel segmentation task, and their CSV files.

All generators are pure functions of their parameters and seed.  Files are
written in one `%` format step and parsed by `np.loadtxt`.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import MalformedInput, OutOfRange
from .numeric import seeded_rng

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
    rng = seeded_rng(seed)
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
    rng = seeded_rng(seed)
    points = rng.normal(OOD_CENTER, OOD_SIGMA, size=(n, 2))
    return LabeledSet(points, np.full(n, 2, dtype=int))


def _blur(a: np.ndarray) -> np.ndarray:
    """Gaussian blur (sigma SEG_BLUR_SIGMA, radius int(4 sigma + 0.5), edges mirrored), bit for bit
    `scipy.ndimage.gaussian_filter`: per axis the same sums, centre tap first, then pairs outermost in."""
    r = int(4 * SEG_BLUR_SIGMA + 0.5)
    k = np.exp(-0.5 / SEG_BLUR_SIGMA**2 * np.arange(-r, r + 1) ** 2)
    k /= k.sum()
    for _ in range(2):  # axis 0, then axis 1 as axis 0 of the transpose
        n = len(a)
        p = np.pad(a, ((r, r), (0, 0)), mode="symmetric")
        out = p[r:r + n] * k[r]
        for j in range(r):
            out += (p[j:j + n] + p[2 * r - j:2 * r - j + n]) * k[j]
        a = out.T
    return a


def gen_toy_segmentation(width: int, height: int, n_blobs: int, seed: int = 0) -> ToySegTask:
    """Bright blurred blobs on a smooth nuisance background.

    Channel 0 is the blurred blob intensity, channel 1 a smooth gradient that
    carries no class information.  The mask is the exact blob support.  Blob
    radii are uniform between 1/12 and 1/8 of the shorter side.  The blur is
    Gaussian, sigma 1.5 pixels, radius 6, with reflected edges.
    """
    if width < 8 or height < 8:
        raise OutOfRange("grid dimensions must be at least 8")
    if n_blobs < 0:
        raise OutOfRange(f"need n_blobs >= 0, got {n_blobs}")
    scale = min(width, height)
    r_min, r_max = scale / 12.0, scale / 8.0
    rng = seeded_rng(seed)

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

    blob_channel = _blur(mask.astype(float))
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
    """The bytes `csv.writer` writes (floats as repr, CRLF line ends), formatted in one step."""
    points = np.asarray(ds.points, dtype=float)
    n, dim = points.shape
    rows = zip(*points.T.tolist(), ds.labels.tolist())
    text = (("%r," * dim + "%d\r\n") * n) % tuple(chain.from_iterable(rows))
    Path(path).write_text(",".join([f"x{j + 1}" for j in range(dim)] + ["label"]) + "\r\n" + text, newline="")


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def load_labeled(path) -> LabeledSet:
    """Read a `save_labeled` CSV; blank lines are skipped, any other bad line
    (a label outside [0, 2**63) included) raises MalformedInput, as does a
    file that is not text in the default encoding or whose first line is all
    numbers rather than a header.  `np.loadtxt` parses the body; a file it
    cannot take or check (a quoted header, a line over the csv field limit, a
    negative label) goes to `_read_rows`."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError:  # read as it streams, so a bad line before the bad bytes is named
        with path.open() as fh:
            return _read_rows(path, fh)
    head, _, body = text.partition("\n")
    header, limit = head.split(","), csv.field_size_limit()
    if ('"' not in head and len(header) > 1 and not all(map(_is_number, header)) and body.strip("\n")
            and (len(text) <= limit or max(map(len, text.split("\n"))) <= limit)):
        try:  # int64 labels: loadtxt refuses 1.0 as int() does
            rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                              dtype=[("x", float, (len(header) - 1,)), ("y", np.int64)])
        except ValueError:
            pass
        else:
            if rows["y"].min() >= 0:
                return LabeledSet(np.ascontiguousarray(rows["x"]), rows["y"].copy())
    return _read_rows(path, io.StringIO(text))


def _read_rows(path: Path, lines) -> LabeledSet:
    """`load_labeled` by csv rows of the text `lines`: the refusal path."""
    reader = csv.reader(lines)
    points, labels = [], []
    try:
        header = next(reader, [])
        dim = len(header) - 1
        if dim < 1:
            raise MalformedInput(f"{path}: no header with feature and label columns")
        if all(map(_is_number, header)):
            raise MalformedInput(f"{path}: no header: line 1 holds only numbers")
        for row in filter(None, reader):
            if len(row) != dim + 1:
                raise ValueError(f"expected {dim + 1} fields, got {len(row)}")
            points.append(list(map(float, row[:dim])))
            labels.append(int(row[dim]))
            if not 0 <= labels[-1] < 2**63:
                raise ValueError(f"label {labels[-1]} outside [0, 2**63)")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    except (ValueError, csv.Error) as exc:
        raise MalformedInput(f"{path}, line {reader.line_num}: {exc}") from None
    if not labels:
        raise MalformedInput(f"{path}: no data rows")
    return LabeledSet(np.asarray(points), np.asarray(labels, dtype=int))


def _save_grid(path: Path, grid: np.ndarray, fmt: str) -> None:
    """The text `np.savetxt(path, grid, fmt=fmt, delimiter=",")` writes, formatted in one step."""
    rows, cols = grid.shape
    path.write_text(((",".join([fmt] * cols) + "\n") * rows) % tuple(grid.ravel().tolist()))


def save_seg_task(directory, task: ToySegTask) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _save_grid(directory / "channel1.csv", task.image[:, :, 0], "%.17g")
    _save_grid(directory / "channel2.csv", task.image[:, :, 1], "%.17g")
    _save_grid(directory / "mask.csv", task.mask, "%d")


def _load_grid(path: Path) -> np.ndarray:
    try:
        with path.open() as fh, warnings.catch_warnings():  # given a path, loadtxt opens it by np.lib._datasource
            warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
            grid = np.loadtxt(fh, delimiter=",", ndmin=2)
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

"""Evaluation metrics: error rate, mean ignorance, overlap scores, expected
calibration error, and mass grids for contour plotting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dst import MassFunction
from .errors import DimensionMismatch, Empty, OutOfRange, ShapeMismatch


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class SegScores:
    dice: float
    sensitivity: float
    precision: float
    counts: ConfusionCounts
    degenerate: bool = False  # some denominator was empty; 1.0 returned by convention


@dataclass
class EceBin:
    count: int
    accuracy: float
    confidence: float


@dataclass
class EceReport:
    bins: list
    ece: float
    n_samples: int


def error_rate(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise Empty("no predictions to score")
    if predictions.shape != labels.shape:
        raise ShapeMismatch(f"{predictions.shape} vs {labels.shape}")
    return float(np.mean(predictions != labels))


def mean_ignorance(masses) -> float:
    """Average mass on the whole frame over a collection of outputs.

    Accepts an (N, K+1) array whose last column is the frame mass, or a
    sequence of MassFunction values.
    """
    if isinstance(masses, np.ndarray):
        if masses.size == 0:
            raise Empty("no masses")
        return float(np.mean(masses[:, -1]))
    masses = list(masses)
    if not masses:
        raise Empty("no masses")
    if isinstance(masses[0], MassFunction):
        return float(np.mean([m[m.frame.full_set] for m in masses]))
    return float(np.mean([np.asarray(m)[-1] for m in masses]))


def confusion(pred_mask, true_mask) -> ConfusionCounts:
    pred = np.asarray(pred_mask).astype(bool)
    true = np.asarray(true_mask).astype(bool)
    if pred.shape != true.shape:
        raise ShapeMismatch(f"{pred.shape} vs {true.shape}")
    return ConfusionCounts(
        tp=int(np.sum(pred & true)),
        fp=int(np.sum(pred & ~true)),
        fn=int(np.sum(~pred & true)),
        tn=int(np.sum(~pred & ~true)),
    )


def seg_scores(pred_mask, true_mask) -> SegScores:
    """Overlap scores from confusion counts.

    Empty denominators return 1.0 with the degenerate flag set: no positives
    to find means nothing was missed, and no positive predictions means none
    were wrong.
    """
    c = confusion(pred_mask, true_mask)
    degenerate = False
    if c.tp + c.fp + c.fn == 0:
        dice, degenerate = 1.0, True
    else:
        dice = 2.0 * c.tp / (c.fp + 2.0 * c.tp + c.fn)
    if c.tp + c.fn == 0:
        sensitivity, degenerate = 1.0, True
    else:
        sensitivity = c.tp / (c.tp + c.fn)
    if c.tp + c.fp == 0:
        precision, degenerate = 1.0, True
    else:
        precision = c.tp / (c.tp + c.fp)
    return SegScores(dice, sensitivity, precision, c, degenerate)


def ece(confidences, predictions, truths, n_bins: int = 10) -> EceReport:
    """Expected calibration error with equally spaced confidence bins.

    Bin r covers (r/R, (r+1)/R]; confidence 0 falls in the first bin.  Empty
    bins contribute nothing.
    """
    confidences = np.asarray(confidences, dtype=float)
    predictions = np.asarray(predictions)
    truths = np.asarray(truths)
    n = confidences.size
    if n == 0:
        raise Empty("no samples")
    if n_bins < 1:
        raise OutOfRange(f"need at least 1 bin, got {n_bins}")
    if not (confidences.shape == predictions.shape == truths.shape):
        raise ShapeMismatch("confidences, predictions and truths must align")

    idx = np.clip(np.ceil(confidences * n_bins).astype(int) - 1, 0, n_bins - 1)
    correct = (predictions == truths).astype(float)
    bins = []
    total = 0.0
    for r in range(n_bins):
        members = idx == r
        count = int(np.sum(members))
        if count == 0:
            bins.append(EceBin(0, 0.0, 0.0))
            continue
        acc = float(np.mean(correct[members]))
        conf = float(np.mean(confidences[members]))
        bins.append(EceBin(count, acc, conf))
        total += count / n * abs(acc - conf)
    assert sum(b.count for b in bins) == n
    return EceReport(bins, total, n)


@dataclass
class ContourGrid:
    xs: np.ndarray      # (nx,)
    ys: np.ndarray      # (ny,)
    masses: np.ndarray  # (ny, nx, K+1), row-major over y then x

    def csv_rows(self):
        yield "x,y," + ",".join(f"m{k + 1}" for k in range(self.masses.shape[2] - 1)) + ",mOmega"
        for iy, y in enumerate(self.ys.tolist()):
            for ix, x in enumerate(self.xs.tolist()):
                vals = ",".join(repr(float(v)) for v in self.masses[iy, ix])
                yield f"{x!r},{y!r},{vals}"


def contour_grid(model, x_range, y_range, resolution: int = 200) -> ContourGrid:
    """Evaluate a 2-input model's masses on a regular grid."""
    if resolution < 1:
        raise OutOfRange(f"need a resolution of at least 1, got {resolution}")
    if model.n_features != 2:
        raise DimensionMismatch("contour grids need a model with 2-dimensional inputs")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    xx, yy = np.meshgrid(xs, ys)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    masses = model.masses(pts).reshape(resolution, resolution, -1)
    return ContourGrid(xs, ys, masses)

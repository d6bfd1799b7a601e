"""Lloyd's k-means with k-means++ seeding.

Deterministic per seed.  Empty clusters are repaired by re-seeding the
centroid to the point farthest from its assigned centroid.  If all points
are identical and k > 1, duplicate centroids are unavoidable; the result
carries a `degenerate` flag instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .numeric import require_finite, sq_dists

MAX_ITER = 100  # Lloyd iterations before giving up on convergence


@dataclass
class KMeansResult:
    centroids: np.ndarray     # (k, dim)
    assignments: np.ndarray   # (n,) cluster index per point
    n_iter: int
    degenerate: bool = False


def _plusplus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # remaining points coincide with chosen centroids
            centroids[j] = points[rng.integers(n)]
            continue
        probs = closest / total
        centroids[j] = points[rng.choice(n, p=probs)]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def kmeans(points, k: int, seed: int = 0) -> KMeansResult:
    points = require_finite(np.asarray(points, dtype=float), "points")
    if points.ndim != 2:
        raise OutOfRange(f"points must be a 2-d array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise OutOfRange(f"need 1 <= k <= {n} points, got k={k}")

    rng = np.random.default_rng(seed)
    degenerate = k > 1 and bool(np.all(points == points[0]))
    centroids = _plusplus_seed(points, k, rng)
    assignments = np.full(n, -1)

    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        d2 = sq_dists(points, centroids)
        new_assign = np.argmin(d2, axis=1)

        for j in range(k):
            members = new_assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            elif not degenerate:
                # re-seed to the point farthest from its current centroid
                farthest = int(np.argmax(d2[np.arange(n), new_assign]))
                centroids[j] = points[farthest]
                new_assign[farthest] = j

        if np.array_equal(new_assign, assignments):
            assignments = new_assign
            break
        assignments = new_assign

    return KMeansResult(centroids=centroids, assignments=assignments, n_iter=n_iter, degenerate=degenerate)

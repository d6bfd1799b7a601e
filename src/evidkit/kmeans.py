"""Lloyd's k-means with k-means++ seeding.

Deterministic per seed; seeds are drawn as `rng.choice(n, p=...)` draws.
Empty clusters are repaired by re-seeding the centroid to the point
farthest from its assigned centroid.  If all points are identical and
k > 1, duplicate centroids are unavoidable; the result carries a
`degenerate` flag instead of failing.

Results are memoized per process, keyed by a blake2b digest of the points
with their shape, `k` and an integer `seed`; the CACHE_SIZE newest are kept,
and each call returns its own copies of the centroids and assignments.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import OutOfRange
from .numeric import require_finite, seeded_rng, sq_dists

MAX_ITER = 100  # Lloyd iterations before giving up on convergence
CACHE_SIZE = 8  # memoized clusterings; the oldest is evicted first


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
        cdf = np.cumsum(closest / total)
        cdf /= cdf[-1]
        centroids[j] = points[cdf.searchsorted(rng.random(), side="right")]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


_cache: dict[tuple, KMeansResult] = {}  # insertion order: oldest first
_cache_lock = threading.Lock()  # threads may share the cache


def kmeans(points, k: int, seed: int = 0) -> KMeansResult:
    points = require_finite(np.asarray(points, dtype=float), "points")
    if points.ndim != 2:
        raise OutOfRange(f"points must be a 2-d array, got shape {points.shape}")
    if not 1 <= k <= len(points):
        raise OutOfRange(f"need 1 <= k <= {len(points)} points, got k={k}")
    points = np.ascontiguousarray(points)
    rng = seeded_rng(seed)  # a seed that is not an integer >= 0 is refused before it is hashed
    key = (hashlib.blake2b(points).digest(), points.shape, k, seed)
    result = _cache.get(key)
    if result is None:
        result = _lloyd(points, k, rng)
        with _cache_lock:
            _cache[key] = result
            if len(_cache) > CACHE_SIZE:
                del _cache[next(iter(_cache))]
    return replace(result, centroids=result.centroids.copy(), assignments=result.assignments.copy())


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> KMeansResult:
    n = points.shape[0]
    degenerate = k > 1 and bool(np.all(points == points[0]))
    centroids = _plusplus_seed(points, k, rng)
    assignments = np.full(n, -1)
    columns = np.ascontiguousarray(points.T)
    sums = np.empty((k, len(columns)))

    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        d2 = sq_dists(points, centroids)[0]  # (k, n)
        new_assign = np.argmin(d2, axis=0)

        counts = np.bincount(new_assign, minlength=k)
        if counts.all():
            # each cluster's mean, summed in point order as `mean` over its members
            # does for two or more features
            for h, col in enumerate(columns):
                sums[:, h] = np.bincount(new_assign, weights=col, minlength=k)
            centroids = np.divide(sums, counts[:, None], out=sums)
        else:
            # a re-seed moves a point to the empty cluster, which changes the
            # members of the clusters after it: keep this order
            for j in range(k):
                members = new_assign == j
                if members.any():
                    centroids[j] = points[members].mean(axis=0)
                elif not degenerate:
                    # re-seed to the point farthest from its current centroid
                    farthest = int(np.argmax(d2[new_assign, np.arange(n)]))
                    centroids[j] = points[farthest]
                    new_assign[farthest] = j

        if (new_assign == assignments).all():
            assignments = new_assign
            break
        assignments = new_assign

    return KMeansResult(centroids=centroids, assignments=assignments, n_iter=n_iter, degenerate=degenerate)


def cluster_label_counts(assignments, labels, k: int, n_classes: int) -> np.ndarray:
    """(k, n_classes) counts of each label in each cluster, of labels from `numeric.class_labels`."""
    return np.bincount(assignments * n_classes + labels, minlength=k * n_classes).reshape(k, n_classes)

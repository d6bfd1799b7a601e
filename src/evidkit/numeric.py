"""Small numerical helpers shared by the layer and training modules.

The layer kernels are prototype-major: squared distances, activations and
the other per-(prototype, input) arrays are (I, N), so a sum over the
prototypes or a max over the classes runs over rows, across contiguous
inputs.  `sum_rows` adds those rows in order whatever N is, so an input's
result does not depend on the batch it came in.

Activations exp(-gamma d^2) go through `exp_flush` as exp of the product
-gamma d^2, the sign folded into the scale; it flushes results below the
smallest normal double to 0 and so keeps far inputs on numpy's fast SIMD
exp path; pooled masses of 1e-300 and more are unaffected.

Dempster pooling sums log1p(-s w) over the prototypes (`sum_log1p_neg`).
For s below 2**-54 that is -s w itself, on which numpy's log1p is slow in
some binades, so one count of the other lanes picks one of three regimes
with the same bits: sparse (log1p on those lanes alone, when few: far from
every prototype), rescaled (tiny s taken at 2**-54 and scaled back, when
many are tiny) or plain (log1p on every lane, as in training).
"""

from __future__ import annotations

import numpy as np
from numpy.random import default_rng  # loaded with evidkit, not lazily at the first draw

from .errors import DimensionMismatch, Empty, MalformedInput, OutOfRange, ShapeMismatch

LOG_TINY = -708.3964185322641  # log of the smallest normal double; exp of it is 2.2250738585072626e-308
EXP_FAST_MIN = -707.7  # above -1021 ln 2 = -707.7033: numpy's SIMD exp stays on its fast path
LOG1P_EXACT = 2.0 ** -54  # log1p(x) = x for -LOG1P_EXACT <= x <= 0
RESCALE_MIN = 10000  # measured break-even: rescale if over RESCALE_MIN + size / 5 s are tiny
SPARSE_MIN = 1000  # measured break-even: log1p on the s >= LOG1P_EXACT alone if at most (size - SPARSE_MIN) / 8


def sigmoid(z):
    """Logistic function, stable for large |z|: 1 / (1 + exp(-z)) for z >= 0,
    exp(z) / (1 + exp(z)) below."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    d = 1.0 + ez
    return np.maximum(ez, z >= 0) / d  # ez <= 1: numerator 1 for z >= 0, ez below


def logit(p):
    """Inverse of sigmoid; maps 0 and 1 to -inf and +inf."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def softmax_rows(z):
    """Row-wise softmax; -inf entries yield exact zeros."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def log_rows(p):
    """Elementwise log tolerating exact zeros (maps them to -inf)."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(p)


def as_batch(x, dim: int) -> np.ndarray:
    """Inputs as an (N, dim) float array; a single row (dim,) becomes N = 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"expected inputs of dimension {dim}, got shape {x.shape}")
    return x


def require_finite(x: np.ndarray, what: str = "inputs") -> np.ndarray:
    """`x` itself, or MalformedInput if it holds a NaN or an infinity."""
    if not np.all(np.isfinite(x)):
        raise MalformedInput(f"{what} contain NaN or infinite values")
    return x


def class_labels(labels, n_rows: int, n_classes: int | None = None) -> np.ndarray:
    """`labels` as int class indexes, one per row; ShapeMismatch unless of shape
    (n_rows,), Empty if none, MalformedInput unless whole numbers (bools are),
    OutOfRange below 0 or from `n_classes` on."""
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise ShapeMismatch(f"{n_rows} rows but labels of shape {y.shape}")
    if not n_rows:
        raise Empty("no labels")
    if y.dtype.kind not in "biuf" or (y.dtype.kind == "f" and not np.all(np.isfinite(y) & (np.trunc(y) == y))):
        raise MalformedInput(f"labels must be finite whole numbers, got {y.dtype}")
    lo, hi = int(y.min()), int(y.max())  # whole: exact as Python ints
    top = 2**63 if n_classes is None else n_classes  # no class count: int64's bound
    if lo < 0 or hi >= top:
        raise OutOfRange(f"labels {lo}..{hi} outside 0..{top - 1}")
    return y.astype(int, copy=False)


def seeded_rng(seed) -> np.random.Generator:
    """numpy's default generator for `seed`, an integer >= 0 and not a bool;
    OutOfRange otherwise."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise OutOfRange(f"seed must be an integer >= 0, got {seed!r}")
    return default_rng(seed)


def buffer(buffers: dict | None, key, shape, dtype=float) -> np.ndarray:
    """An uninitialized array of `shape`: new without `buffers`, else the one
    `buffers` holds under `key`, replaced if its shape or dtype differ."""
    if buffers is None:
        return np.empty(shape, dtype)
    a = buffers.get(key)
    if a is None or a.shape != shape or a.dtype != dtype:
        a = buffers[key] = np.empty(shape, dtype)
    return a


def sum_rows(a: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (R, N) array, adding the rows in order.
    numpy does so for such an array with N >= 2, but sums a lone column, or
    an F-ordered array, pairwise; this keeps a C-ordered column's sum the
    same bits whatever N is, up to a zero's sign."""
    return np.add.reduce(a, axis=0) if a.shape[1] > 1 else np.cumsum(a, axis=0)[-1]


def exp_flush(z, out=None) -> np.ndarray:
    """exp(z), bit for bit wherever that is a normal double, and exactly 0
    where it would be subnormal or underflow.  `out=z` computes it in place.
    The layers pass z = -gamma d^2, negated by the scale.  No lane is
    gathered or stored by mask: all take one exp clamped at EXP_FAST_MIN
    times 1 or 0, and the rare lanes in [LOG_TINY, EXP_FAST_MIN) are patched
    by index."""
    if np.minimum.reduce(z, axis=None, initial=np.inf) >= EXP_FAST_MIN:  # no far lane, as in training
        return np.exp(z, out=out)
    keep = z >= EXP_FAST_MIN
    near = z >= LOG_TINY
    near ^= keep
    rare = np.flatnonzero(near) if near.any() else None  # C order, as `.flat` indexes
    patch = None if rare is None else np.exp(z.flat[rare])  # read before `out=z` is written
    a = np.maximum(z, EXP_FAST_MIN, out=out)
    np.exp(a, out=a)
    a *= keep
    if rare is not None:
        a.flat[rare] = patch
    return a


def sum_log1p_neg(s, w) -> np.ndarray:
    """(C, N) `sum_rows` of log1p(-s w_c) for s (I, N), w (C, I) in {0} u
    [2**-53, 1].  For s below LOG1P_EXACT, log1p(-s w_c) is -s w_c bit for
    bit, and log1p is slow on some such arguments.  One compare and count of
    the s at or above LOG1P_EXACT picks the regime:

    - sparse, if at most (size - SPARSE_MIN) / 8 lanes: log1p on those lanes
      alone, patched in by flat index;
    - rescaled, if over RESCALE_MIN + size / 5 lanes are below: they go in
      as LOG1P_EXACT, scaled by s / LOG1P_EXACT;
    - plain otherwise: log1p on every lane.

    All three give the same bits.  Measured on a 2-core AVX-512 host with
    numpy 2.4, the index patch beats the rescaled pass up to about 30% of
    lanes at or above LOG1P_EXACT, and the plain pass from about 1000 lanes
    on even where every tiny lane is 0, on log1p's fast path (up to 1/8 of
    them from about 2000); below that its extra numpy calls cost more.
    SPARSE_MIN keeps those calls off it and the 1/8 keeps the index list
    at most a byte a lane."""
    big = s >= LOG1P_EXACT
    n_big = int(np.count_nonzero(big))  # a Python int: numpy's compares its scalars slowly
    if n_big <= (s.size - SPARSE_MIN) / 8:
        big = np.flatnonzero(big)  # the mask goes; flat indexes in C order
        return _sum_sparse(s, w, big)
    rescale = s.size - n_big > RESCALE_MIN + s.size / 5
    del big, n_big  # nothing of the count held at the peak
    return _sum_rescaled(s, w) if rescale else _sum_plain(s, w)


def _sum_plain(s, w) -> np.ndarray:
    logs = np.empty((len(w), s.shape[1]))
    t = np.empty_like(s)
    for c, nw in enumerate(-w[:, :, None]):
        logs[c] = sum_rows(np.log1p(np.multiply(s, nw, out=t), out=t))
    return logs


def _sum_sparse(s, w, big) -> np.ndarray:
    """The plain sums with log1p taken only at the flat indexes `big`."""
    logs = np.empty((len(w), s.shape[1]))
    t = np.empty(s.shape)
    flat = t.reshape(-1)
    for row, wc in zip(logs, w):  # no (C, I) -w held at the peak
        np.multiply(s, -wc[:, None], out=t)
        if len(big):
            g = flat[big]
            flat[big] = np.log1p(g, out=g)
        row[:] = sum_rows(t)
    return logs


def _sum_rescaled(s, w) -> np.ndarray:
    logs = np.empty((len(w), s.shape[1]))
    i, n = s.shape
    b = max(n // 3, 2)  # 3 (I, b) ~ one (I, N)
    buf = np.empty(3 * i * b)
    for a in range(0, n, b):
        a = max(min(a, n - 2), 0)  # a lone column would keep -0 sums
        m = min(b, n - a)
        big, scale, t = buf[:3 * i * m].reshape(3, i, m)  # contiguous: unbuffered
        np.copyto(big, s[:, a:a + m])
        np.minimum(big, LOG1P_EXACT, out=scale)
        scale *= 1 / LOG1P_EXACT
        np.maximum(big, LOG1P_EXACT, out=big)
        for row, wc in zip(logs, w):  # no (C, I) -w held at the peak
            np.log1p(np.multiply(big, -wc[:, None], out=t), out=t)
            t *= scale
            row[a:a + m] = sum_rows(t)
    return logs


def sq_dists(X, P) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, N) squared distances between the rows of P (I, H) and X (N, H),
    and the centred X - c and P - c for `sq_dists_backward`.

    Computed as ||p - c||^2 - 2 (P - c)(X - c)^T + ||x - c||^2 and clamped at
    0, so no (I, N, H) array is built.  c is the mean of P: centering keeps
    the GEMM form translation invariant, where raw norms of far-off X and P
    would cancel away the digits of small distances.
    """
    c = np.add.reduce(P, axis=0) / len(P)  # P.mean's bits, without its Python wrapper
    Xc, Pc = X - c, P - c
    # BLAS multiplies by a lone column through gemv, which rounds otherwise
    # than gemm: a second copy keeps the row on gemm, as inside a batch
    Xg = np.vstack([Xc, Xc]) if len(X) == 1 else Xc
    d2 = (Pc * -2.0) @ Xg.T  # a power-of-two scale: the bits of -2 (Pc Xg^T)
    d2 += np.einsum("nh,nh->n", Xg, Xg)
    d2 += np.einsum("ih,ih->i", Pc, Pc)[:, None]
    np.maximum(d2, 0.0, out=d2)
    return d2[:, :len(X)], Xc, Pc


def sq_dists_backward(d_d2, Xc, Pc, input_grad=True) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients with respect to X (N, H) and P (I, H) given d(loss)/d(squared
    distances) g (I, N) and the centred Xc and Pc of `sq_dists`, as two
    matmuls: 2 (colsum(g) Xc - g^T Pc) and -2 (g Xc - rowsum(g) Pc).  The
    first is None without `input_grad`."""
    d_p = d_d2 @ Xc - np.add.reduce(d_d2, axis=1)[:, None] * Pc
    if not input_grad:
        return None, -2.0 * d_p
    d_x = np.add.reduce(d_d2, axis=0)[:, None] * Xc - d_d2.T @ Pc
    return 2.0 * d_x, -2.0 * d_p


def pignistic(masses):
    """(N, K) pignistic probabilities of (N, K+1) singleton-plus-frame masses:
    each class gets its own mass plus an equal share of the frame mass."""
    k = masses.shape[1] - 1
    return masses[:, :k] + masses[:, k:] / k


def pignistic_backward(d_probs, out=None):
    """Mass-space gradient (N, K+1) from a gradient on pignistic probabilities
    (N, K), written into `out` when given.  Training passes the (N, K+1) `.T`
    view of class-major (K+1, N) storage, which the layers' backward reads
    as contiguous class rows; the bits do not depend on the layout."""
    n, k = d_probs.shape
    out = np.empty((n, k + 1)) if out is None else out
    out[:, :k] = d_probs
    if k == 2:  # the reduce's bits along N: it starts from +0.0, so -0.0 + -0.0 is +0.0
        np.add(d_probs[:, 0], d_probs[:, 1] + 0.0, out=out[:, k])
    else:
        np.add.reduce(d_probs, axis=1, out=out[:, k])
    out[:, k] /= k
    return out

"""Small numerical helpers shared by the layer and training modules.

The layer kernels are prototype-major: squared distances, activations and
the other per-(prototype, input) arrays are (I, N), so a sum over the
prototypes or a max over the classes runs over rows, across contiguous
inputs.  `sum_rows` adds those rows in order whatever N is, so an input's
result does not depend on the batch it came in.

Activations exp(-gamma d^2) go through `exp_neg`, which flushes results
below the smallest normal double to 0 and so keeps far inputs on numpy's
fast SIMD exp path; pooled masses of 1e-300 and more are unaffected.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MalformedInput

LOG_TINY = -708.3964185322641  # log of the smallest normal double; exp of it is 2.2250738585072626e-308
EXP_FAST_MIN = -707.7  # above -1021 ln 2 = -707.7033: numpy's SIMD exp stays on its fast path
LOG1P_EXACT = 2.0 ** -54  # log1p(x) = x for -LOG1P_EXACT <= x <= 0
RESCALE_MIN = 10000  # measured break-even: rescale if over RESCALE_MIN + size / 5 s are tiny


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
    m = np.max(z, axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def log_rows(p, floor=0.0):
    """Elementwise log tolerating exact zeros (maps them to -inf or log(floor))."""
    p = np.asarray(p, dtype=float)
    if floor > 0.0:
        p = np.maximum(p, floor)
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


def exp_neg(z, out=None) -> np.ndarray:
    """exp(-z), bit for bit wherever that is a normal double, and exactly 0
    where it would be subnormal or underflow.  `out=z` computes it in place.
    No lane is gathered or stored by mask: all take one exp clamped at
    EXP_FAST_MIN times 1 or 0, and the rare lanes in [LOG_TINY, EXP_FAST_MIN)
    are patched by index."""
    a = np.negative(z, out=out)
    keep = a >= EXP_FAST_MIN
    if keep.all():  # no far lane, as in training: nothing to flush
        return np.exp(a, out=a)
    near = a >= LOG_TINY
    near ^= keep
    rare = np.flatnonzero(near) if near.any() else None  # C order, as `a.flat` indexes
    patch = None if rare is None else np.exp(a.flat[rare])
    np.maximum(a, EXP_FAST_MIN, out=a)
    np.exp(a, out=a)
    a *= keep
    if rare is not None:
        a.flat[rare] = patch
    return a


def sum_log1p_neg(s, w) -> np.ndarray:
    """(C, N) `sum_rows` of log1p(-s w_c) for s (I, N), w (C, I) in {0} u
    [2**-53, 1].  log1p is slow on some tiny arguments: if enough s are
    below LOG1P_EXACT, they go in as it, scaled by s / LOG1P_EXACT."""
    logs = np.empty((len(w), s.shape[1]))
    if np.count_nonzero(s < LOG1P_EXACT) <= RESCALE_MIN + s.size / 5:
        t = np.empty_like(s)
        for c, nw in enumerate(-w[:, :, None]):
            logs[c] = sum_rows(np.log1p(np.multiply(s, nw, out=t), out=t))
        return logs
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
    d2 = Pc @ Xg.T
    d2 *= -2.0
    d2 += np.einsum("nh,nh->n", Xg, Xg)
    d2 += np.einsum("ih,ih->i", Pc, Pc)[:, None]
    np.maximum(d2, 0.0, out=d2)
    return d2[:, :len(X)], Xc, Pc


def sq_dists_backward(d_d2, Xc, Pc) -> tuple[np.ndarray, np.ndarray]:
    """Gradients with respect to X (N, H) and P (I, H) given d(loss)/d(squared
    distances) g (I, N) and the centred Xc and Pc of `sq_dists`, as two
    matmuls: 2 (colsum(g) Xc - g^T Pc) and -2 (g Xc - rowsum(g) Pc)."""
    d_x = np.add.reduce(d_d2, axis=0)[:, None] * Xc - d_d2.T @ Pc
    d_p = d_d2 @ Xc - np.add.reduce(d_d2, axis=1)[:, None] * Pc
    return 2.0 * d_x, -2.0 * d_p


def pignistic(masses):
    """(N, K) pignistic probabilities of (N, K+1) singleton-plus-frame masses:
    each class gets its own mass plus an equal share of the frame mass."""
    k = masses.shape[1] - 1
    return masses[:, :k] + masses[:, k:] / k


def pignistic_backward(d_probs, out=None):
    """Mass-space gradient (N, K+1) from a gradient on pignistic probabilities
    (N, K), written into `out` when given."""
    n, k = d_probs.shape
    out = np.empty((n, k + 1)) if out is None else out
    out[:, :k] = d_probs
    np.add.reduce(d_probs, axis=1, out=out[:, k])
    out[:, k] /= k
    return out

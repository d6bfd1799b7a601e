"""Small numerical helpers shared by the layer and training modules."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MalformedInput


def sigmoid(z):
    """Logistic function, stable for large |z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def sq_dists(X, P) -> np.ndarray:
    """(N, I) squared distances between the rows of X (N, H) and P (I, H).

    Computed as ||x - c||^2 - 2 (X - c)(P - c)^T + ||p - c||^2 and clamped at
    0, so no (N, I, H) array is built.  c is the mean of P: centering keeps
    the GEMM form translation invariant, where raw norms of far-off X and P
    would cancel away the digits of small distances.
    """
    c = P.mean(axis=0)
    Xc, Pc = X - c, P - c
    d2 = Xc @ Pc.T
    d2 *= -2.0
    d2 += np.einsum("nh,nh->n", Xc, Xc)[:, None]
    d2 += np.einsum("ih,ih->i", Pc, Pc)
    return np.maximum(d2, 0.0, out=d2)


def sq_dists_backward(d_d2, X, P) -> tuple[np.ndarray, np.ndarray]:
    """Gradients with respect to X (N, H) and P (I, H) given d(loss)/d(squared
    distances) g (N, I), as two matmuls: 2 (rowsum(g) X - g P) and
    -2 (g^T X - colsum(g) P), with X and P centered as in `sq_dists`."""
    c = P.mean(axis=0)
    Xc, Pc = X - c, P - c
    d_x = d_d2.sum(axis=1)[:, None] * Xc - d_d2 @ Pc
    d_p = d_d2.T @ Xc - d_d2.sum(axis=0)[:, None] * Pc
    return 2.0 * d_x, -2.0 * d_p


def pignistic(masses):
    """(N, K) pignistic probabilities of (N, K+1) singleton-plus-frame masses:
    each class gets its own mass plus an equal share of the frame mass."""
    k = masses.shape[1] - 1
    return masses[:, :k] + masses[:, k:] / k


def pignistic_backward(d_probs):
    """Mass-space gradient (N, K+1) from a gradient on pignistic probabilities (N, K)."""
    k = d_probs.shape[1]
    return np.concatenate([d_probs, d_probs.sum(axis=1, keepdims=True) / k], axis=1)

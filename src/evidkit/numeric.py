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


def leave_one_out_prod(a, axis):
    """For each index along `axis`, the product of all other entries.

    Uses prefix/suffix cumulative products, so zeros in `a` are handled
    exactly (no division).
    """
    b = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    n = b.shape[0]
    fwd = np.ones_like(b)
    bwd = np.ones_like(b)
    if n > 1:
        fwd[1:] = np.cumprod(b[:-1], axis=0)
        bwd[:-1] = np.cumprod(b[::-1], axis=0)[:-1][::-1]
    return np.moveaxis(fwd * bwd, 0, axis)


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


def sq_dists(X, P) -> tuple[np.ndarray, np.ndarray]:
    """(N, I) squared distances between the rows of X (N, H) and P (I, H),
    plus the (N, I, H) differences that `sq_dists_backward` needs."""
    diff = X[:, None, :] - P[None, :, :]
    return np.einsum("nih,nih->ni", diff, diff), diff


def sq_dists_backward(d_d2, diff) -> tuple[np.ndarray, np.ndarray]:
    """Gradients with respect to X and P given d(loss)/d(squared distances)."""
    return 2.0 * np.einsum("ni,nih->nh", d_d2, diff), -2.0 * np.einsum("ni,nih->ih", d_d2, diff)


def pignistic(masses):
    """(N, K) pignistic probabilities of (N, K+1) singleton-plus-frame masses:
    each class gets its own mass plus an equal share of the frame mass."""
    k = masses.shape[1] - 1
    return masses[:, :k] + masses[:, k:] / k


def pignistic_backward(d_probs):
    """Mass-space gradient (N, K+1) from a gradient on pignistic probabilities (N, K)."""
    k = d_probs.shape[1]
    return np.concatenate([d_probs, d_probs.sum(axis=1, keepdims=True) / k], axis=1)

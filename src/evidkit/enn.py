"""Evidential prototype layer with distance-discounted Bayesian masses.

Each prototype i carries a reliability alpha_i in [0, 1], a scale gamma_i > 0
and a membership row u_i on the class simplex.  An input x activates
prototype i as

    s_i = alpha_i * exp(-gamma_i * ||x - pi_i||^2),

which discounts the prototype's Bayesian mass (u_i1 s_i, ..., u_iK s_i)
leaving 1 - s_i on the whole frame.  The I discounted masses are pooled by
Dempster's rule; because every focal set is a singleton or the frame, the
pooled mass has the closed form

    mass_k  ~  prod_i (1 - s_i (1 - u_ik)) - prod_i (1 - s_i)
    mass_Om ~  prod_i (1 - s_i)

normalized once at the end.  Gradients are taken with respect to the
unconstrained parameterization (prototypes, logit(alpha), log(gamma),
membership logits) so plain gradient steps preserve the constraints.

Forward/backward take a batch (N, H), or a single row (H,) as N = 1; the
math is vectorized numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StaleCache, TotalConflict
from .kmeans import kmeans
from .numeric import (
    as_batch, leave_one_out_prod, log_rows, logit, sigmoid, softmax_rows, sq_dists, sq_dists_backward,
)

INIT_ALPHA = 0.5
INIT_GAMMA = 0.01


@dataclass
class EnnParams:
    """Trainable state: prototypes plus unconstrained reliability/scale/membership.
    Implements the layer protocol described in `evidkit.model`."""

    kind = "enn"
    losses = ("sse", "dice")

    proto: np.ndarray      # (I, H)
    alpha_raw: np.ndarray  # (I,)  alpha = sigmoid(alpha_raw)
    log_gamma: np.ndarray  # (I,)  gamma = exp(log_gamma)
    u_logit: np.ndarray    # (I, K) memberships = row softmax

    def __post_init__(self):
        self.proto = np.asarray(self.proto, dtype=float)
        self.alpha_raw = np.asarray(self.alpha_raw, dtype=float)
        self.log_gamma = np.asarray(self.log_gamma, dtype=float)
        self.u_logit = np.asarray(self.u_logit, dtype=float)
        i, h = self.proto.shape
        k = self.u_logit.shape[1]
        if i < 1 or h < 1 or k < 2:
            raise OutOfRange(f"need I >= 1, H >= 1, K >= 2; got I={i}, H={h}, K={k}")
        if self.alpha_raw.shape != (i,) or self.log_gamma.shape != (i,) or self.u_logit.shape != (i, k):
            raise DimensionMismatch("parameter arrays disagree on the number of prototypes")

    @property
    def n_prototypes(self) -> int:
        return self.proto.shape[0]

    @property
    def n_features(self) -> int:
        return self.proto.shape[1]

    @property
    def n_classes(self) -> int:
        return self.u_logit.shape[1]

    @property
    def alpha(self) -> np.ndarray:
        return sigmoid(self.alpha_raw)

    @property
    def gamma(self) -> np.ndarray:
        return np.exp(self.log_gamma)

    @property
    def memberships(self) -> np.ndarray:
        return softmax_rows(self.u_logit)

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        return {
            "proto": self.proto,
            "alpha_raw": self.alpha_raw,
            "log_gamma": self.log_gamma,
            "u_logit": self.u_logit,
        }

    def forward(self, X) -> tuple[np.ndarray, dict]:
        return enn_forward_batch(self, X)

    def backward(self, cache: dict, upstream) -> tuple[dict[str, np.ndarray], np.ndarray]:
        return enn_backward_batch(self, cache, upstream)

    def regularizer(self) -> tuple[float, dict[str, np.ndarray]]:
        """Sum of the reliabilities, and its gradient in `alpha_raw`."""
        alpha = self.alpha
        return float(np.sum(alpha)), {"alpha_raw": alpha * (1.0 - alpha)}

    def to_dict(self) -> dict:
        """Checkpoint as a flat JSON-able dict of the constrained quantities."""
        return {
            "kind": self.kind,
            "I": self.n_prototypes,
            "H": self.n_features,
            "K": self.n_classes,
            "proto": self.proto.ravel().tolist(),
            "alpha": self.alpha.tolist(),
            "gamma": self.gamma.tolist(),
            "u": self.memberships.ravel().tolist(),
        }


def enn_from_constrained(proto, alpha, gamma, memberships) -> EnnParams:
    """Build params from the constrained quantities (alpha, gamma, membership rows)."""
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(alpha < 0) or np.any(alpha > 1):
        raise OutOfRange("alpha must lie in [0, 1]")
    if np.any(gamma <= 0):
        raise OutOfRange("gamma must be positive")
    u = np.asarray(memberships, dtype=float)
    rows = u.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > 1e-9):
        raise OutOfRange("membership rows must sum to 1")
    return EnnParams(np.asarray(proto, dtype=float), logit(alpha), np.log(gamma), log_rows(u))


def enn_forward_batch(params: EnnParams, X) -> tuple[np.ndarray, dict]:
    """Evaluate a batch (N, H) -> masses (N, K+1) plus the backward cache."""
    X = as_batch(X, params.n_features)
    alpha, gamma, u = params.alpha, params.gamma, params.memberships

    d2, diff = sq_dists(X, params.proto)                 # (N, I), (N, I, H)
    e = np.exp(-gamma[None, :] * d2)
    s = alpha[None, :] * e                               # (N, I)

    t = 1.0 - s[:, :, None] * (1.0 - u[None, :, :])      # (N, I, K)
    prod_t = np.prod(t, axis=1)                          # (N, K)
    one_minus_s = 1.0 - s
    q = np.prod(one_minus_s, axis=1)                     # (N,)

    unnorm = np.concatenate([prod_t - q[:, None], q[:, None]], axis=1)  # (N, K+1)
    total = unnorm.sum(axis=1)
    if np.any(total < 1e-300):
        raise TotalConflict("fully confident prototypes disagree; pooled mass vanished")
    mass = unnorm / total[:, None]

    cache = {
        "params": params,
        "X": X,
        "diff": diff,
        "d2": d2,
        "e": e,
        "s": s,
        "t_loo": leave_one_out_prod(t, axis=1),
        "q_loo": leave_one_out_prod(one_minus_s, axis=1),
        "mass": mass,
        "total": total,
    }
    return mass, cache


def enn_backward_batch(params: EnnParams, cache: dict, upstream) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backpropagate d(loss)/d(mass) of shape (N, K+1).

    Returns gradients for the unconstrained parameter arrays (summed over the
    batch) and the gradient with respect to the inputs, shape (N, H).
    """
    if cache.get("params") is not params:
        raise StaleCache("cache was produced by different parameters")
    upstream = np.asarray(upstream, dtype=float)
    mass, total = cache["mass"], cache["total"]
    if upstream.shape != mass.shape:
        raise DimensionMismatch(f"upstream shape {upstream.shape} vs mass shape {mass.shape}")

    alpha, gamma, u = params.alpha, params.gamma, params.memberships
    s, e, d2, diff = cache["s"], cache["e"], cache["d2"], cache["diff"]
    k = params.n_classes

    # mass = unnorm / total
    d_unnorm = (upstream - np.sum(upstream * mass, axis=1, keepdims=True)) / total[:, None]
    d_prod_t = d_unnorm[:, :k]                                   # (N, K)
    d_q = d_unnorm[:, k] - d_prod_t.sum(axis=1)                  # (N,)

    d_t = d_prod_t[:, None, :] * cache["t_loo"]                  # (N, I, K)
    d_s = np.einsum("nik,ik->ni", d_t, u - 1.0) - d_q[:, None] * cache["q_loo"]
    d_u = d_t * s[:, :, None]                                    # constrained memberships

    d_alpha = d_s * e                                            # (N, I)
    d_gamma = -d_s * s * d2
    d_d2 = -d_s * s * gamma[None, :]

    d_x, d_proto = sq_dists_backward(d_d2, diff)

    # chain into the unconstrained parameterization
    d_alpha_raw = (d_alpha * (alpha * (1.0 - alpha))[None, :]).sum(axis=0)
    d_log_gamma = (d_gamma * gamma[None, :]).sum(axis=0)
    inner = np.einsum("nik,ik->ni", d_u, u)                      # row dot of grad and u
    d_u_logit = np.einsum("nik,ik->ik", d_u, u) - np.einsum("ni,ik->ik", inner, u)

    grads = {
        "proto": d_proto,
        "alpha_raw": d_alpha_raw,
        "log_gamma": d_log_gamma,
        "u_logit": d_u_logit,
    }
    return grads, d_x


def _initial(proto, memberships) -> EnnParams:
    """Params with every reliability at INIT_ALPHA and every scale at INIT_GAMMA."""
    n = len(proto)
    return enn_from_constrained(proto, np.full(n, INIT_ALPHA), np.full(n, INIT_GAMMA), memberships)


def enn_init_random(n_prototypes: int, n_features: int, n_classes: int, seed: int) -> EnnParams:
    """Prototypes ~ N(0, I); alpha = 0.5, gamma = 0.01; memberships uniform random."""
    rng = np.random.default_rng(seed)
    proto = rng.standard_normal((n_prototypes, n_features))
    u = rng.uniform(size=(n_prototypes, n_classes))
    u /= u.sum(axis=1, keepdims=True)
    return _initial(proto, u)


def enn_init_kmeans(features, labels, n_prototypes: int, n_classes: int, seed: int = 0) -> EnnParams:
    """Prototypes from k-means centroids; memberships from cluster label proportions.

    A cluster with no assigned points gets a uniform membership row.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    result = kmeans(features, n_prototypes, seed=seed)
    u = np.full((n_prototypes, n_classes), 1.0 / n_classes)
    for i in range(n_prototypes):
        members = labels[result.assignments == i]
        if members.size:
            counts = np.bincount(members, minlength=n_classes).astype(float)
            u[i] = counts / counts.sum()
    return _initial(result.centroids, u)


def enn_from_dict(data: dict) -> EnnParams:
    if data.get("kind") != "enn":
        raise OutOfRange(f"not an ENN checkpoint: kind={data.get('kind')!r}")
    i, h, k = data["I"], data["H"], data["K"]
    return enn_from_constrained(
        np.asarray(data["proto"], dtype=float).reshape(i, h),
        np.asarray(data["alpha"], dtype=float),
        np.asarray(data["gamma"], dtype=float),
        np.asarray(data["u"], dtype=float).reshape(i, k),
    )

"""Evidential prototype layer with distance-discounted Bayesian masses.

Prototype i has a reliability alpha_i in [0, 1], a scale gamma_i > 0 and a
membership row u_i on the class simplex.  Input x activates it as

    s_i = alpha_i * exp(-gamma_i * ||x - pi_i||^2),

discounting its Bayesian mass (u_i1 s_i, ..., u_iK s_i) and leaving 1 - s_i
on the frame.  Dempster's rule pools the I masses; with singleton and frame
focal sets only, the pooled mass has a closed form, taken in the log domain:

    L_k     =  sum_i log1p(-s_i (1 - u_ik)),   L_q = sum_i log1p(-s_i)
    top     =  max_k L_k
    mass_k  ~  exp(L_k - top) * -expm1(L_q - L_k)    (exactly 0 where L_k = -inf)
    mass_Om ~  exp(L_q - top)

normalized once at the end.  These are the product forms
prod_i (1 - s_i (1 - u_ik)) - prod_i (1 - s_i) and prod_i (1 - s_i) scaled by
exp(-top), but they neither cancel far from the prototypes (s -> 0) nor
underflow for many prototypes, and the scaled total is at least 1.  Only when
every L_k is -inf, fully confident prototypes excluding every class, is the
evidence in total conflict.

Gradients are taken in the unconstrained parameters (prototypes,
logit(alpha), log(gamma), membership logits), so plain steps keep the
constraints.

Forward/backward take a batch (N, H), or a row (H,) as N = 1.  The kernels
are prototype-major (`evidkit.numeric`): d2, s and the Dempster factors are
(I, N), L and the unnormalized masses (K+1, N); only the masses, `upstream`
and the input gradient are (N, ...).  Activations below the smallest normal
double flush to 0 (`numeric.exp_neg`), which moves no pooled mass of 1e-300
or more; many below 2**-54 pool rescaled, same bits
(`numeric.sum_log1p_neg`).  The forward caches alpha, gamma, the
memberships, the factor weights and the centred inputs and prototypes for
the backward pass and the regularizer; with `keep_cache=False` (inference)
it caches nothing, s overwrites d2 and the centred arrays go once d2
exists.  The backward spends the cache (s is overwritten) and takes the
factors a class at a time in two (I, N) arrays, a training run's `buffers`
when given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StaleCache, TotalConflict
from .kmeans import cluster_label_counts, kmeans, require_label_per_point
from .numeric import (
    as_batch, buffer, exp_neg, log_rows, logit, sigmoid, softmax_rows, sq_dists, sq_dists_backward, sum_log1p_neg,
    sum_rows,
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

    def forward(self, X, keep_cache: bool = True) -> tuple[np.ndarray, dict]:
        return enn_forward_batch(self, X, keep_cache)

    def backward(self, cache: dict, upstream, buffers=None) -> tuple[dict[str, np.ndarray], np.ndarray]:
        return enn_backward_batch(self, cache, upstream, buffers)

    def regularizer(self, cache: dict) -> tuple[float, dict[str, np.ndarray]]:
        """Sum of the reliabilities, and its gradient in `alpha_raw`, from the
        reliabilities a forward pass cached."""
        alpha = cache["alpha"]
        return float(alpha.sum()), {"alpha_raw": alpha * (1.0 - alpha)}


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


def _factor_weights(u) -> np.ndarray:
    """(K+1, I) weights w of the Dempster factors t = 1 - s w: 1 - u_ik for
    each class k, then 1 for the frame."""
    return np.concatenate([1.0 - u.T, np.ones((1, len(u)))])


def enn_forward_batch(params: EnnParams, X, keep_cache: bool = True) -> tuple[np.ndarray, dict]:
    """Evaluate a batch (N, H) -> masses (N, K+1) plus the backward cache ({} without `keep_cache`)."""
    X = as_batch(X, params.n_features)
    alpha, gamma, u = params.alpha, params.gamma, params.memberships
    k = params.n_classes
    w = _factor_weights(u)

    d2, Xc, Pc = sq_dists(X, params.proto)               # d2 (I, N)
    s = np.multiply(gamma[:, None], d2, out=None if keep_cache else d2)
    exp_neg(s, out=s)
    s *= alpha[:, None]
    cache = {"params": params, "Xc": Xc, "Pc": Pc, "alpha": alpha, "gamma": gamma, "u": u, "w": w,
             "d2": d2, "s": s} if keep_cache else {}
    del Xc, Pc

    with np.errstate(divide="ignore", invalid="ignore"):
        logs = sum_log1p_neg(s, w)                       # [L_1 .. L_K, L_q]
        top = logs[:k].max(axis=0)                       # (N,)
        if (top == -np.inf).any():
            raise TotalConflict("fully confident prototypes exclude every class; pooled mass vanished")
        singles = logs[k] - logs[:k]                     # NaN where L_k = L_q = -inf
        unnorm = np.subtract(logs, top, out=logs)        # (K+1, N)
        np.exp(unnorm, out=unnorm)
    np.fmax(singles, -np.inf, out=singles)               # there -expm1(-inf) * exp(L_k - top) = 0
    np.expm1(singles, out=singles)
    singles *= unnorm[:k]
    np.subtract(0.0, singles, out=unnorm[:k])            # +0.0, not -0.0, where singles is 0
    total = sum_rows(unnorm)                             # >= 1: the top class and the frame sum to 1
    unnorm /= total
    mass = unnorm.T

    if keep_cache:
        cache.update(mass=mass, total=total)
    return mass, cache


def enn_backward_batch(params: EnnParams, cache: dict, upstream, buffers=None) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backpropagate d(loss)/d(mass) of shape (N, K+1).

    Returns gradients for the unconstrained parameter arrays (summed over the
    batch) and the gradient with respect to the inputs, shape (N, H).  Spends
    the cache; its two (I, N) arrays come from `buffers` when given.
    """
    if cache.get("params") is not params:
        raise StaleCache("cache from different parameters, or spent by a backward pass")
    upstream = np.asarray(upstream, dtype=float)
    mass, total = cache["mass"], cache["total"]
    if upstream.shape != mass.shape:
        raise DimensionMismatch(f"upstream shape {upstream.shape} vs mass shape {mass.shape}")
    del cache["params"]  # spent

    alpha, gamma, u, w = cache["alpha"], cache["gamma"], cache["u"], cache["w"]
    s, d2 = cache["s"], cache["d2"]
    k = params.n_classes
    mass, upstream = mass.T, upstream.T                          # (K+1, N)

    # mass = unnorm / total with unnorm = [P_k - Q, Q] on the forward's exp(-top)
    # scale: P_c = exp(L_c - top), Q = exp(L_q - top).  mass does not depend on
    # the scale, so it is held fixed.  d_pq: the gradients in P_1 .. P_K and Q;
    # pq: P_1 .. P_K and Q themselves, sums of the cached nonnegative masses.
    d_pq = upstream * mass
    np.subtract(upstream, np.add.reduce(d_pq, axis=0), out=d_pq)
    d_pq /= total
    d_pq[k] -= np.add.reduce(d_pq[:k], axis=0)
    pq = mass * total
    pq[:k] += pq[k]

    # P_c = exp(-top) prod_i t_ic with t_ic = 1 - s_i w_ic, so d(P_c)/d(t_ic) is
    # P_c / t_ic.  Where t_ic = 0 it is taken as 0: there alpha_i = 1,
    # exp(-gamma_i d2) = 1 and u_ic < 2**-53 (or c is the frame), and every chain
    # below scales it by 1 - alpha_i = 0, by u_ic, or by gamma_i d2 < 2**-53.
    # One class at a time: t, then d(loss)/d(t) w, summed over the classes in d_s
    d_s = buffer(buffers, "enn.d_s", s.shape)
    t = buffer(buffers, "enn.t", s.shape)
    d_u = np.empty((k, len(s)))
    for c, w_c in enumerate(w[:, :, None]):
        d_t = t if c else d_s
        np.subtract(1.0, np.multiply(s, w_c, out=d_t) if c < k else s, out=d_t)  # the frame's w is 1
        np.divide(pq[c], d_t, out=d_t, where=d_t > 0)            # t = 0 lanes stay 0
        d_t *= d_pq[c]
        if c < k:
            d_u[c] = np.einsum("in,in->i", d_t, s)               # summed over the batch
            d_t *= w_c
        if c:
            d_s += d_t
    np.negative(d_s, out=d_s)
    d_ss = np.multiply(d_s, s, out=s)                            # (I, N)
    d_d2 = np.multiply(d_ss, -gamma[:, None], out=d_s)

    d_x, d_proto = sq_dists_backward(d_d2, cache["Xc"], cache["Pc"])

    # chain into the unconstrained parameterization; d(s)/d(alpha_raw) = s (1 - alpha)
    d_alpha_raw = np.add.reduce(d_ss, axis=1) * (1.0 - alpha)
    d_log_gamma = -np.einsum("in,in->i", d_ss, d2) * gamma
    d_u = d_u.T
    d_u_logit = u * (d_u - (d_u * u).sum(axis=1, keepdims=True))

    return {"proto": d_proto, "alpha_raw": d_alpha_raw, "log_gamma": d_log_gamma, "u_logit": d_u_logit}, d_x


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
    require_label_per_point(features, labels)
    result = kmeans(features, n_prototypes, seed=seed)
    counts = cluster_label_counts(result.assignments, labels, n_prototypes, n_classes)
    sizes = counts.sum(axis=1, keepdims=True)
    u = np.divide(counts, sizes, out=np.full(counts.shape, 1.0 / n_classes), where=sizes > 0)
    return _initial(result.centroids, u)

"""Gaussian prototype layer whose signed activations act as evidence weights.

Binary frame only.  Prototype i activates as s_i = exp(-gamma_i d_i^2) and
gives w_i = s_i v_i: weight of evidence for the first class when positive,
for the second when negative.  The pooled totals w+ and w- (sums of the
positive and of the negative parts) combine to

    m({w1})    = (1 - exp(-w+)) exp(-w-) / (1 - kappa)
    m({w2})    = (1 - exp(-w-)) exp(-w+) / (1 - kappa)
    m(frame)   = exp(-w+ - w-) / (1 - kappa)
    kappa      = (1 - exp(-w+)) (1 - exp(-w-))

and the normalized plausibility of the first class is the logistic unit
p1 = sigmoid(z), z = w+ - w- = sum_i v_i s_i; (p1, 1 - p1) is the softmax of
the logits (z, 0), which cross-entropy trains.  A factored form keeps the
masses exact when w+ + w- is large (the naive ratio is 0/0 there).

Gradients use the subgradient 0 at the kinks w_i = 0 and are taken in
log-gamma space so the scales stay positive.  A weight v_i = 0 sits on the
kink at every input, so a loss on the masses (Dice) never moves it;
cross-entropy reads the logit z, smooth in v_i, and does.

The kernels are prototype-major (`evidkit.numeric`): d2 and s are
(I, N), and (w+, w-) is one (2, N) einsum of s_i max(+-v_i, 0).  Activations
are exp of (-gamma) d2, flushed to 0 below the smallest normal double
(`numeric.exp_flush`), which moves no mass of 1e-300 or more for |v| up to
1e8.  The masses are the `.T` view of a class-major (3, N) array; the input
gradient is formed only with `input_grad`.  gamma, the centred inputs and
prototypes, and `probs` = sigmoid((z, -z)) are cached for the backward
pass; with `keep_cache=False` (inference) nothing is: s overwrites d2, and
the centred arrays and s go once read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StaleCache
from .kmeans import cluster_label_counts, kmeans
from .numeric import as_batch, class_labels, exp_flush, seeded_rng, sigmoid, sq_dists, sq_dists_backward, sum_rows

INIT_GAMMA = 0.01
_SIGNS = np.array([1.0, -1.0])


@dataclass
class RbfParams:
    """Trainable state: prototypes, log scales, signed output weights.
    Implements the layer protocol described in `evidkit.model`."""

    kind = "rbf"
    losses = ("cross-entropy", "dice")
    n_classes = 2

    proto: np.ndarray      # (I, H)
    log_gamma: np.ndarray  # (I,)
    v: np.ndarray          # (I,)

    def __post_init__(self):
        self.proto = np.asarray(self.proto, dtype=float)
        self.log_gamma = np.asarray(self.log_gamma, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        i, h = self.proto.shape
        if i < 1 or h < 1:
            raise OutOfRange(f"need I >= 1 and H >= 1, got I={i}, H={h}")
        if self.log_gamma.shape != (i,) or self.v.shape != (i,):
            raise DimensionMismatch("parameter arrays disagree on the number of prototypes")

    @property
    def n_features(self) -> int:
        return self.proto.shape[1]

    @property
    def gamma(self) -> np.ndarray:
        return np.exp(self.log_gamma)

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        return {"proto": self.proto, "log_gamma": self.log_gamma, "v": self.v}

    def forward(self, X, keep_cache: bool = True) -> tuple[np.ndarray, dict]:
        return rbf_forward_batch(self, X, keep_cache)

    def backward(self, cache: dict, upstream, buffers=None,
                 input_grad=True) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        return rbf_backward_batch(self, cache, upstream, input_grad)

    def regularizer(self, cache: dict) -> tuple[float, dict[str, np.ndarray]]:
        """Sum of the squared weights, and its gradient in `v`; the weights are
        unconstrained, so nothing is read from the forward cache."""
        return float((self.v**2).sum()), {"v": 2.0 * self.v}


def rbf_from_constrained(proto, gamma, v) -> RbfParams:
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise OutOfRange("gamma must be positive")
    return RbfParams(np.asarray(proto, dtype=float), np.log(gamma), np.asarray(v, dtype=float))


def _factors(w: np.ndarray):
    """(1 - exp(-w), e, frame, denom) of the (2, N) totals w = (w+, w-), with
    e = (exp(-w+), exp(-w-)), frame = exp(-w+ - w-) and denom = 1 - kappa,
    the last three multiplied by exp(min(w+, w-)): one row of e is then
    exactly 1, and large totals cannot underflow to 0/0."""
    c = np.minimum.reduce(w, axis=0)
    e = c - w
    np.exp(e, out=e)
    frame = np.exp(np.subtract(c, np.add.reduce(w, axis=0), out=c), out=c)
    support = np.expm1(-w)
    return np.negative(support, out=support), e, frame, np.add.reduce(e, axis=0) - frame


def _masses_from_totals(w: np.ndarray) -> np.ndarray:
    """Exact masses (N, 3) of the (2, N) totals, factored as in `_factors`."""
    support, e, frame, denom = _factors(w)
    mass = np.empty((3, w.shape[1]))
    np.multiply(support, e[::-1], out=mass[:2])
    del support, e
    mass[2] = frame
    mass /= denom
    return mass.T


def _totals(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(2, N) totals (w+, w-): the rows of s max(+-v, 0) added in order."""
    parts = np.multiply.outer(v, _SIGNS)                 # (I, 2): v and -v exactly
    np.maximum(parts, 0.0, out=parts)
    if s.shape[1] == 1:  # a lone column: einsum's sum is not the batch's
        return sum_rows(parts * s)[:, None]
    return np.einsum("ij,in->jn", parts, s)


def rbf_forward_batch(params: RbfParams, X, keep_cache: bool = True) -> tuple[np.ndarray, dict]:
    """Evaluate a batch (N, H) -> masses (N, 3) plus the backward cache ({} without `keep_cache`)."""
    X = as_batch(X, params.n_features)
    gamma = params.gamma

    d2, Xc, Pc = sq_dists(X, params.proto)               # d2 (I, N)
    s = np.multiply(-gamma[:, None], d2, out=None if keep_cache else d2)
    exp_flush(s, out=s)
    cache = {"params": params, "Xc": Xc, "Pc": Pc, "gamma": gamma, "d2": d2, "s": s} if keep_cache else {}
    del Xc, Pc
    totals = _totals(s, params.v)
    del d2, s
    mass = _masses_from_totals(totals)

    if keep_cache:
        cache.update(totals=totals, probs=sigmoid(np.multiply.outer(totals[0] - totals[1], _SIGNS)),
                     mass=mass)
    return mass, cache


def _totals_grad(cache: dict, up_mass: np.ndarray) -> np.ndarray:
    """(2, N) d(loss)/d(w+), d(loss)/d(w-) given d(loss)/d(mass)."""
    w = cache["totals"]
    support, _, _, denom = _factors(w)
    # exp(-w+) exp(-w-) / (1-kappa)^2, factored like the forward pass
    g = np.exp(-np.abs(w[0] - w[1])) / denom**2
    ew = np.exp(-w)  # may underflow; only appears as a bounded factor
    up = up_mass.T
    # d(w+): u1 - u2 (1 - exp(-w-)) - u3 exp(-w-); d(w-) the same, mirrored
    return g * (up[:2] - up[1::-1] * support[::-1] - up[2] * ew[::-1])


def rbf_backward_batch(params: RbfParams, cache: dict, upstream,
                       input_grad=True) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Backpropagate through a batch.

    `upstream` of shape (N, 3) is read as d(loss)/d(mass); shape (N, 2) as
    d(loss)/d(logits (z, 0)), column 0 alone.  Returns parameter gradients
    summed over the batch and the input gradient of shape (N, H), or None
    without `input_grad`.
    """
    if cache.get("params") is not params:
        raise StaleCache("cache was produced by different parameters")
    upstream = np.asarray(upstream, dtype=float)
    s, d2, v = cache["s"], cache["d2"], params.v
    n = s.shape[1]

    if upstream.shape == (n, 3):
        d_wp, d_wm = _totals_grad(cache, upstream)
        d_w = (v > 0)[:, None] * d_wp - (v < 0)[:, None] * d_wm    # (I, N); s = 0 zeroes lanes below
    elif upstream.shape == (n, 2):
        d_w = upstream[:, 0]                                 # d/dz, the same for every prototype
    else:
        raise DimensionMismatch(
            f"upstream must have shape ({n}, 3) for masses or ({n}, 2) for logits, got {upstream.shape}"
        )

    d_ws = d_w * s
    d_v = np.add.reduce(d_ws, axis=1)
    d_d2 = d_ws * (v * -cache["gamma"])[:, None]
    d_log_gamma = np.einsum("in,in->i", d_d2, d2)

    d_x, d_proto = sq_dists_backward(d_d2, cache["Xc"], cache["Pc"], input_grad)

    grads = {"proto": d_proto, "log_gamma": d_log_gamma, "v": d_v}
    return grads, d_x


def rbf_init_random(n_prototypes: int, n_features: int, seed: int) -> RbfParams:
    """Prototypes ~ N(0, I); gamma = 0.01; weights of standard-normal size,
    signs +, -, +, ...: so no class starts without evidence everywhere."""
    rng = seeded_rng(seed)
    proto = rng.standard_normal((n_prototypes, n_features))
    v = np.abs(rng.standard_normal(n_prototypes))
    v[1::2] *= -1.0
    return rbf_from_constrained(proto, np.full(n_prototypes, INIT_GAMMA), v)


def rbf_init_kmeans(features, labels, n_prototypes: int, seed: int = 0) -> RbfParams:
    """Prototypes from k-means; v_i = +1 when the cluster majority is class 0, else -1."""
    labels = class_labels(labels, len(features), 2)
    result = kmeans(features, n_prototypes, seed=seed)
    counts = cluster_label_counts(result.assignments, labels, n_prototypes, 2)
    v = np.where(counts[:, 0] < counts[:, 1], -1.0, 1.0)
    return rbf_from_constrained(result.centroids, np.full(n_prototypes, INIT_GAMMA), v)

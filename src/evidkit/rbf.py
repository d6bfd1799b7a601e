"""Gaussian prototype layer whose signed activations act as evidence weights.

Binary frame only.  Prototype i activates as s_i = exp(-gamma_i d_i^2) and
contributes w_i = s_i v_i: positive w_i is weight of evidence for the first
class, negative for the second.  Pooling all prototypes gives the totals
w+ = sum of positive parts and w- = sum of negative parts, whose combined
mass function is

    m({w1})    = (1 - exp(-w+)) exp(-w-) / (1 - kappa)
    m({w2})    = (1 - exp(-w-)) exp(-w+) / (1 - kappa)
    m(frame)   = exp(-w+ - w-) / (1 - kappa)
    kappa      = (1 - exp(-w+)) (1 - exp(-w-))

The normalized plausibility of the first class collapses to a logistic unit:
p1 = sigmoid(sum_i v_i s_i).  Masses are evaluated in a factored form that
stays exact when w+ + w- is large (the naive ratio is 0/0 there).

Gradients use the subgradient 0 at the kinks w_i = 0 and are taken in
log-gamma space so the scale parameters stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StaleCache
from .kmeans import kmeans
from .numeric import as_batch, sigmoid, sq_dists, sq_dists_backward

INIT_GAMMA = 0.01


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
    def n_prototypes(self) -> int:
        return self.proto.shape[0]

    @property
    def n_features(self) -> int:
        return self.proto.shape[1]

    @property
    def gamma(self) -> np.ndarray:
        return np.exp(self.log_gamma)

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        return {"proto": self.proto, "log_gamma": self.log_gamma, "v": self.v}

    def forward(self, X) -> tuple[np.ndarray, dict]:
        return rbf_forward_batch(self, X)

    def backward(self, cache: dict, upstream) -> tuple[dict[str, np.ndarray], np.ndarray]:
        return rbf_backward_batch(self, cache, upstream)

    def regularizer(self) -> tuple[float, dict[str, np.ndarray]]:
        """Sum of the squared weights, and its gradient in `v`."""
        return float(np.sum(self.v**2)), {"v": 2.0 * self.v}

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "I": self.n_prototypes,
            "H": self.n_features,
            "proto": self.proto.ravel().tolist(),
            "gamma": self.gamma.tolist(),
            "v": self.v.tolist(),
        }


def rbf_from_constrained(proto, gamma, v) -> RbfParams:
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma <= 0):
        raise OutOfRange("gamma must be positive")
    return RbfParams(np.asarray(proto, dtype=float), np.log(gamma), np.asarray(v, dtype=float))


def _factors(wp: np.ndarray, wm: np.ndarray):
    """(1 - exp(-w+), 1 - exp(-w-), ep, em, frame, denom) with ep = exp(-w+),
    em = exp(-w-), frame = exp(-w+ - w-) and denom = 1 - kappa, the last four
    multiplied by exp(min(w+, w-)): one of ep, em is then exactly 1, and
    large totals cannot underflow to 0/0."""
    c = np.minimum(wp, wm)
    ep = np.exp(-(wp - c))
    em = np.exp(-(wm - c))
    frame = np.exp(-(wp + wm - c))
    return -np.expm1(-wp), -np.expm1(-wm), ep, em, frame, ep + em - frame


def _masses_from_totals(wp: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Exact combined masses, in the factored form of `_factors`."""
    support1, support2, ep, em, frame, denom = _factors(wp, wm)
    return np.stack([support1 * em, support2 * ep, frame], axis=-1) / denom[..., None]


def rbf_forward_batch(params: RbfParams, X) -> tuple[np.ndarray, dict]:
    """Evaluate a batch (N, H) -> masses (N, 3) plus the backward cache."""
    X = as_batch(X, params.n_features)
    gamma, v = params.gamma, params.v

    d2, diff = sq_dists(X, params.proto)
    s = np.exp(-gamma[None, :] * d2)
    w = s * v[None, :]

    wp = np.maximum(w, 0.0).sum(axis=1)
    wm = np.maximum(-w, 0.0).sum(axis=1)
    mass = _masses_from_totals(wp, wm)
    p1 = sigmoid(wp - wm)

    cache = {
        "params": params,
        "diff": diff,
        "d2": d2,
        "s": s,
        "w": w,
        "wp": wp,
        "wm": wm,
        "p1": p1,
        "mass": mass,
    }
    return mass, cache


def _totals_grad(cache: dict, up_mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(loss)/d(w+), d(loss)/d(w-) given d(loss)/d(mass)."""
    wp, wm = cache["wp"], cache["wm"]
    support1, support2, _, _, _, denom = _factors(wp, wm)
    # exp(-w+) exp(-w-) / (1-kappa)^2, factored like the forward pass
    g = np.exp(-np.abs(wp - wm)) / denom**2
    a = np.exp(-wp)  # may underflow; only appears as a bounded factor
    b = np.exp(-wm)
    d_wp = g * (up_mass[:, 0] - up_mass[:, 1] * support2 - up_mass[:, 2] * b)
    d_wm = g * (-up_mass[:, 0] * support1 + up_mass[:, 1] - up_mass[:, 2] * a)
    return d_wp, d_wm


def rbf_backward_batch(params: RbfParams, cache: dict, upstream) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backpropagate through a batch.

    `upstream` of shape (N, 3) is read as d(loss)/d(mass); shape (N,) as
    d(loss)/d(p1).  Returns parameter gradients summed over the batch and
    the input gradient of shape (N, H).
    """
    if cache.get("params") is not params:
        raise StaleCache("cache was produced by different parameters")
    upstream = np.asarray(upstream, dtype=float)
    s, w, d2, diff = cache["s"], cache["w"], cache["d2"], cache["diff"]
    n = s.shape[0]

    if upstream.shape == (n, 3):
        d_wp, d_wm = _totals_grad(cache, upstream)
        d_w = d_wp[:, None] * (w > 0) - d_wm[:, None] * (w < 0)
    elif upstream.shape == (n,):
        p1 = cache["p1"]
        d_z = upstream * p1 * (1.0 - p1)
        d_w = np.repeat(d_z[:, None], s.shape[1], axis=1)
    else:
        raise DimensionMismatch(
            f"upstream must have shape ({n}, 3) for masses or ({n},) for p1, got {upstream.shape}"
        )

    d_v = (d_w * s).sum(axis=0)
    d_s = d_w * params.v[None, :]
    d_log_gamma = (-d_s * s * d2 * params.gamma[None, :]).sum(axis=0)
    d_d2 = -d_s * s * params.gamma[None, :]

    d_x, d_proto = sq_dists_backward(d_d2, diff)

    grads = {"proto": d_proto, "log_gamma": d_log_gamma, "v": d_v}
    return grads, d_x


def rbf_init_random(n_prototypes: int, n_features: int, seed: int) -> RbfParams:
    """Prototypes ~ N(0, I); gamma = 0.01; weights ~ standard normal."""
    rng = np.random.default_rng(seed)
    return rbf_from_constrained(
        rng.standard_normal((n_prototypes, n_features)),
        np.full(n_prototypes, INIT_GAMMA),
        rng.standard_normal(n_prototypes),
    )


def rbf_init_kmeans(features, labels, n_prototypes: int, seed: int = 0) -> RbfParams:
    """Prototypes from k-means; v_i = +1 when the cluster majority is class 0, else -1."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    result = kmeans(features, n_prototypes, seed=seed)
    v = np.ones(n_prototypes)
    for i in range(n_prototypes):
        members = labels[result.assignments == i]
        if members.size and np.mean(members == 0) < 0.5:
            v[i] = -1.0
    return rbf_from_constrained(result.centroids, np.full(n_prototypes, INIT_GAMMA), v)


def rbf_from_dict(data: dict) -> RbfParams:
    if data.get("kind") != "rbf":
        raise OutOfRange(f"not an RBF checkpoint: kind={data.get('kind')!r}")
    i, h = data["I"], data["H"]
    return rbf_from_constrained(
        np.asarray(data["proto"], dtype=float).reshape(i, h),
        np.asarray(data["gamma"], dtype=float),
        np.asarray(data["v"], dtype=float),
    )

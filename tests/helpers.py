"""Shared test oracles: a gradient comparison, finite differences by array
name (from `evidkit.training.fd_gradients`), random mass functions and their
brute-force Dempster combination, a brute-force k-NN baseline and the
feature net by `np.where`; inputs near and far from a layer's
prototypes; the pooling regime forced; the traced peak of a call."""

import contextvars
import tracemalloc

import numpy as np

from evidkit import dst, numeric
from evidkit.training import fd_gradients, norm_rel_error


def fd_by_name(loss_fn, arrays):
    """Central differences of `loss_fn` with respect to each named array,
    perturbed in place one array at a time."""
    return {name: fd_gradients(loss_fn, a) for name, a in arrays.items()}


def grad_rel_error(analytic, numeric):
    """`norm_rel_error` of two gradient dicts, each laid end to end in key order."""
    a = np.concatenate([np.asarray(analytic[k]).ravel() for k in sorted(analytic)])
    n = np.concatenate([np.asarray(numeric[k]).ravel() for k in sorted(numeric)])
    return norm_rel_error(a, n)


def brute_force_combine(frame, dense1, dense2):
    """Oracle: Dempster combination by a double loop over all 2^K x 2^K subset pairs.

    Takes dense mass vectors indexed by bitmask (length 2^K), returns a dense
    vector and the conflict, or None and the conflict when it is total.
    Deliberately ignores sparsity so it exercises a different path than the
    production implementation.
    """
    n = 1 << frame.size
    out = np.zeros(n)
    kappa = 0.0
    for a in range(n):
        for b in range(n):
            prod = dense1[a] * dense2[b]
            if prod == 0.0:
                continue
            inter = a & b
            if inter == 0:
                kappa += prod
            else:
                out[inter] += prod
    if kappa >= 1.0 - 1e-12:
        return None, kappa
    out /= 1.0 - kappa
    return out, kappa


def dense(m):
    """A mass function as a vector of 2^K masses indexed by bitmask."""
    v = np.zeros(1 << m.frame.size)
    for a, val in m.masses.items():
        v[a] = val
    return v


def random_mass(frame, rng, max_focals=5):
    """A mass function on 1 to `max_focals` random focal sets of weights in [0.05, 1], normalized."""
    n_focal = rng.integers(1, max_focals + 1)
    subsets = rng.integers(1, frame.full_set + 1, size=n_focal)
    weights = rng.uniform(0.05, 1.0, size=n_focal)
    return dst.make_mass(frame, list(zip(subsets.tolist(), weights.tolist())))


def knn_predict(train_x, train_y, test_x, k=5):
    """Plain vote-of-the-k-nearest-points classifier (euclidean)."""
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    train_y = np.asarray(train_y, dtype=int)
    d2 = ((test_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1)[:, :k]
    preds = np.empty(test_x.shape[0], dtype=int)
    for i, row in enumerate(nearest):
        votes = np.bincount(train_y[row])
        preds[i] = int(np.argmax(votes))
    return preds


def far_field_inputs(rng, proto, gamma, n):
    """n inputs: the first half about one length scale from a prototype, the
    rest `far_inputs`, so their activations run from about 3e-4 down to
    underflow."""
    n_proto, dim = proto.shape
    n_far = n // 2
    near = proto[rng.integers(n_proto, size=n - n_far)]
    near = near + rng.standard_normal((n - n_far, dim)) / np.sqrt(dim * gamma.max())
    return np.vstack([near, far_inputs(rng, proto, gamma, n_far)])


def far_inputs(rng, proto, gamma, n, t_min=8.0):
    """n inputs at gamma d^2 >= t from every prototype, t log-uniform in
    [t_min, 1600]."""
    t = np.exp(rng.uniform(np.log(t_min), np.log(1600.0), n))
    direction = rng.standard_normal((n, proto.shape[1]))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (np.linalg.norm(proto, axis=1).max() + np.sqrt(t / gamma.min()))[:, None]


# `numeric.sum_log1p_neg`'s regimes, each forced through the constants of its rule
POOLING = {
    "plain": {"SPARSE_MIN": np.inf, "RESCALE_MIN": np.inf},
    "rescaled": {"SPARSE_MIN": np.inf, "RESCALE_MIN": -np.inf},
    "sparse": {"SPARSE_MIN": -np.inf, "RESCALE_MIN": np.inf},
}


def force_pooling(mp, regime):
    """Make `mp` (a pytest MonkeyPatch) send every pooling to `regime`; None
    leaves the rule as it is."""
    for name, value in POOLING.get(regime, {}).items():
        mp.setattr(numeric, name, value)


def mlp_forward_by_where(params, X, buffers=None):
    """`mlp_forward_batch` as `h @ w + b` and `np.where` PReLUs, each array
    new (`buffers` is ignored): the reference for its bits."""
    activations, preacts = [np.asarray(X, dtype=float)], []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = activations[-1] @ w + b
        preacts.append(z)
        activations.append(np.where(z > 0, z, params.slopes[i] * z) if i < last else z)
    return activations[-1], {"params": params, "activations": activations, "preacts": preacts}


def mlp_backward_by_where(params, cache, upstream, input_grad=True):
    """`mlp_backward_batch` of an `mlp_forward_by_where` cache, by `np.where`,
    leaving the cache as it was; the input gradient is None without
    `input_grad`."""
    activations, preacts = cache["activations"], cache["preacts"]
    grads = {"slopes": np.zeros_like(params.slopes)}
    last = len(params.weights) - 1
    delta = np.asarray(upstream, dtype=float)
    for i in range(last, -1, -1):
        if i < last:
            z = preacts[i]
            neg = z <= 0
            grads["slopes"][i] = np.sum(delta * np.where(neg, z, 0.0))
            delta = delta * np.where(neg, params.slopes[i], 1.0)
        grads[f"W{i}"] = activations[i].T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        delta = delta @ params.weights[i].T
    return grads, delta if input_grad else None


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw while it ran).  The call
    runs in an empty context: each context variable an earlier test left
    set (decimal's, say) adds 16 bytes to the copy that numpy's errstate
    makes of the context.  The bound `run` and the argument tuple are
    made before tracing starts, and so must `fn` be: a bound method made
    inside the trace adds 64 to 72 bytes."""
    run, call = contextvars.Context().run, (fn, *args)
    tracemalloc.start()
    try:
        result = run(*call)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

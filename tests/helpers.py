"""Shared test oracles: a gradient comparison, finite differences by array
name (from `evidkit.training.fd_gradients`), a brute-force k-NN baseline and
the feature net by `np.where`; inputs near and far from a layer's
prototypes; the traced peak of a call."""

import contextvars
import tracemalloc

import numpy as np

from evidkit.training import fd_gradients


def fd_by_name(loss_fn, arrays):
    """Central differences of `loss_fn` with respect to each named array,
    perturbed in place one array at a time."""
    return {name: fd_gradients(loss_fn, a) for name, a in arrays.items()}


def grad_rel_error(analytic, numeric):
    """Norm-ratio relative error between two gradient dicts.

    Central differences with step 1e-6 on an O(1) loss carry ~1e-10 absolute
    noise per entry, so relative accuracy of 1e-4 is only measurable when the
    gradient norm exceeds ~1e-5; the denominator is floored there to keep
    vanishing-gradient configurations from reporting noise/noise ratios.
    """
    a = np.concatenate([np.asarray(analytic[k]).ravel() for k in sorted(analytic)])
    n = np.concatenate([np.asarray(numeric[k]).ravel() for k in sorted(numeric)])
    return np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n), 1e-5)


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
    rest at gamma d^2 >= t from every prototype, t log-uniform in [8, 1600],
    so their activations run from about 3e-4 down to underflow."""
    n_proto, dim = proto.shape
    n_far = n // 2
    near = proto[rng.integers(n_proto, size=n - n_far)]
    near = near + rng.standard_normal((n - n_far, dim)) / np.sqrt(dim * gamma.max())
    t = np.exp(rng.uniform(np.log(8.0), np.log(1600.0), n_far))
    direction = rng.standard_normal((n_far, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    far = direction * (np.linalg.norm(proto, axis=1).max() + np.sqrt(t / gamma.min()))[:, None]
    return np.vstack([near, far])


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


def mlp_backward_by_where(params, cache, upstream):
    """`mlp_backward_batch` of an `mlp_forward_by_where` cache, by `np.where`,
    leaving the cache as it was."""
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
    return grads, delta


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

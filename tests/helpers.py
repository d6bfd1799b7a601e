"""Shared test oracles: a gradient comparison, finite differences by array
name (from `evidkit.training.fd_gradients`) and a brute-force k-NN baseline;
inputs near and far from a layer's prototypes."""

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

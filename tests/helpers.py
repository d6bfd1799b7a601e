"""Shared test oracles: a gradient comparison and a brute-force k-NN baseline.
Finite differences come from `evidkit.training.fd_gradients`."""

import numpy as np


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

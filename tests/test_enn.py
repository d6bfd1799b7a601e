"""Evidential prototype layer: closed-form combination vs the DST core,
analytic gradients vs finite differences, initializers, invariances."""

import numpy as np
import pytest
from helpers import grad_rel_error

from evidkit import dst
from evidkit.enn import (
    EnnParams,
    enn_backward_batch,
    enn_forward_batch,
    enn_from_constrained,
    enn_from_dict,
    enn_init_kmeans,
    enn_init_random,
)
from evidkit.errors import DimensionMismatch, StaleCache
from evidkit.training import fd_gradients


def random_params(rng, n_proto=3, n_feat=2, n_classes=2):
    u = rng.uniform(0.05, 1.0, size=(n_proto, n_classes))
    u /= u.sum(axis=1, keepdims=True)
    return enn_from_constrained(
        rng.standard_normal((n_proto, n_feat)),
        rng.uniform(0.1, 0.9, size=n_proto),
        rng.uniform(0.05, 3.0, size=n_proto),
        u,
    )


def mass_of(params, x):
    """Masses (K+1,) of one input row, through a 1-row batch."""
    return enn_forward_batch(params, np.asarray(x, dtype=float)[None])[0][0]


def masses_by_dst_core(params, x):
    """Oracle: expand each prototype's discounted Bayesian mass and fold with
    the exact Dempster combination from the DST core."""
    frame = dst.Frame(params.n_classes)
    d2 = ((x - params.proto) ** 2).sum(axis=1)
    s = params.alpha * np.exp(-params.gamma * d2)
    u = params.memberships
    combined = dst.vacuous(frame)
    for i in range(params.n_prototypes):
        entries = [(frame.singleton(k), u[i, k] * s[i]) for k in range(params.n_classes)]
        entries.append((frame.full_set, 1.0 - s[i]))
        combined = dst.combine_dempster(combined, dst.make_mass(frame, entries))
    out = np.empty(params.n_classes + 1)
    for k in range(params.n_classes):
        out[k] = combined[frame.singleton(k)]
    out[params.n_classes] = combined[frame.full_set]
    return out


class TestForward:
    def test_zero_reliability_gives_vacuous(self):
        p = enn_from_constrained(
            np.zeros((3, 2)), np.zeros(3), np.full(3, 0.01), np.full((3, 2), 0.5)
        )
        mass = mass_of(p, np.array([5.0, -3.0]))
        np.testing.assert_allclose(mass, [0.0, 0.0, 1.0], atol=1e-15)

    def test_single_confident_prototype(self):
        p = enn_from_constrained(
            np.array([[1.0, 2.0]]), [1.0], [0.01], np.array([[1.0, 0.0]])
        )
        mass, cache = enn_forward_batch(p, np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(mass[0], [1.0, 0.0, 0.0], atol=1e-12)
        assert cache["s"][0, 0] == pytest.approx(1.0)
        assert np.sqrt(cache["d2"][0, 0]) == 0.0

    def test_symmetric_prototypes(self):
        p = enn_from_constrained(
            np.array([[1.0, 0.0], [-1.0, 0.0]]),
            [1.0, 1.0],
            [1.0, 1.0],
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        mass = mass_of(p, np.zeros(2))  # equidistant
        assert mass[0] == pytest.approx(mass[1], abs=1e-14)
        np.testing.assert_allclose(mass, masses_by_dst_core(p, np.zeros(2)), atol=1e-10)

    def test_matches_dst_core_combination(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n_proto = int(rng.integers(1, 6))
            n_classes = int(rng.integers(2, 4))
            p = random_params(rng, n_proto=n_proto, n_feat=2, n_classes=n_classes)
            x = rng.standard_normal(2)
            np.testing.assert_allclose(mass_of(p, x), masses_by_dst_core(p, x), atol=1e-10)

    def test_mass_is_normalized_and_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_params(rng, n_proto=int(rng.integers(1, 7)))
            mass, _ = enn_forward_batch(p, rng.standard_normal((8, 2)))
            assert np.all(mass >= 0)
            np.testing.assert_allclose(mass.sum(axis=1), 1.0, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, n_proto=5)
        perm = rng.permutation(5)
        q = EnnParams(
            p.proto[perm], p.alpha_raw[perm], p.log_gamma[perm], p.u_logit[perm]
        )
        x = rng.standard_normal(2)
        np.testing.assert_allclose(
            mass_of(p, x), mass_of(q, x), atol=1e-12
        )

    def test_far_field_is_ignorant(self):
        rng = np.random.default_rng(12)
        p = random_params(rng, n_proto=4)
        radius = 40.0 / np.sqrt(p.gamma.min())
        x = p.proto.mean(axis=0) + radius * np.array([1.0, 1.0])
        mass = mass_of(p, x)
        assert mass[-1] > 0.99

    def test_dimension_mismatch(self):
        p = enn_init_random(3, 2, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            enn_forward_batch(p, np.zeros((1, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        p = random_params(rng)
        _, cache = enn_forward_batch(p, rng.standard_normal((1, 2)))
        grads, dx = enn_backward_batch(p, cache, np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(dx == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            n_proto = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 4))
            p = random_params(rng, n_proto=n_proto, n_feat=2, n_classes=n_classes)
            x = rng.standard_normal(2)
            upstream = rng.standard_normal(n_classes + 1)

            mass, cache = enn_forward_batch(p, x[None])
            analytic, dx = enn_backward_batch(p, cache, upstream[None])
            analytic = dict(analytic)
            analytic["x"] = dx[0]

            arrays = dict(p.trainable_arrays())
            arrays["x"] = x

            def loss():
                m, _ = enn_forward_batch(p, x[None])
                return float(np.dot(upstream, m[0]))

            numeric = fd_gradients(loss, arrays)
            worst = max(worst, grad_rel_error(analytic, numeric))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_alpha_gradient_sign(self):
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(100):
            p = random_params(rng, n_proto=3)
            x = rng.standard_normal(2)
            upstream = rng.standard_normal(3)
            _, cache = enn_forward_batch(p, x[None])
            grads, _ = enn_backward_batch(p, cache, upstream[None])

            def loss():
                return float(np.dot(upstream, mass_of(p, x)))

            fd = fd_gradients(loss, {"alpha_raw": p.alpha_raw})["alpha_raw"]
            for i in range(3):
                if abs(fd[i]) > 1e-7:
                    assert np.sign(grads["alpha_raw"][i]) == np.sign(fd[i])
                    checked += 1
        assert checked > 50

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(1)
        p1, p2 = random_params(rng), random_params(rng)
        _, cache = enn_forward_batch(p1, rng.standard_normal((1, 2)))
        with pytest.raises(StaleCache):
            enn_backward_batch(p2, cache, np.zeros((1, 3)))


class TestInit:
    def test_random_is_reproducible(self):
        a = enn_init_random(4, 3, 2, seed=77)
        b = enn_init_random(4, 3, 2, seed=77)
        assert np.array_equal(a.proto, b.proto)
        assert np.array_equal(a.u_logit, b.u_logit)

    def test_random_documented_values(self):
        p = enn_init_random(5, 2, 3, seed=0)
        np.testing.assert_allclose(p.alpha, 0.5, atol=1e-15)
        np.testing.assert_allclose(p.gamma, 0.01, atol=1e-15)
        np.testing.assert_allclose(p.memberships.sum(axis=1), 1.0, atol=1e-12)

    def test_kmeans_on_separated_blobs(self):
        rng = np.random.default_rng(5)
        a = rng.normal([0, 0], 0.2, size=(40, 2))
        b = rng.normal([10, 10], 0.2, size=(40, 2))
        feats = np.vstack([a, b])
        labels = np.array([0] * 40 + [1] * 40)
        p = enn_init_kmeans(feats, labels, 2, 2, seed=3)
        for i in range(2):
            blob = 0 if np.linalg.norm(p.proto[i]) < 5 else 1
            assert np.argmax(p.memberships[i]) == blob
            # pure clusters give one-hot membership rows
            np.testing.assert_allclose(p.memberships[i, blob], 1.0, atol=1e-12)

    def test_kmeans_one_prototype_per_point(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, size=6)
        p = enn_init_kmeans(feats, labels, 6, 2, seed=1)
        # prototypes are the points, up to permutation
        d2 = ((p.proto[:, None, :] - feats[None, :, :]) ** 2).sum(axis=2)
        match = np.argmin(d2, axis=1)
        assert sorted(match.tolist()) == list(range(6))
        np.testing.assert_allclose(np.min(d2, axis=1), 0.0, atol=1e-20)


class TestCheckpoint:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        p = random_params(rng, n_proto=4, n_feat=3, n_classes=3)
        q = enn_from_dict(p.to_dict())
        np.testing.assert_allclose(q.proto, p.proto, atol=1e-15)
        np.testing.assert_allclose(q.alpha, p.alpha, atol=1e-12)
        np.testing.assert_allclose(q.gamma, p.gamma, rtol=1e-12)
        np.testing.assert_allclose(q.memberships, p.memberships, atol=1e-12)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(mass_of(q, x), mass_of(p, x), atol=1e-12)

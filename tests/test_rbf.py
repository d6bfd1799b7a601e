"""RBF evidence layer: latent-mass identities against the DST core,
logistic plausibility, gradient checks away from the kinks."""

import math

import numpy as np
import pytest
from helpers import grad_rel_error

from evidkit import dst
from evidkit.errors import DimensionMismatch, StaleCache
from evidkit.numeric import sigmoid
from evidkit.rbf import (
    rbf_backward_batch,
    rbf_forward_batch,
    rbf_from_constrained,
    rbf_from_dict,
    rbf_init_kmeans,
    rbf_init_random,
)
from evidkit.training import fd_gradients

FRAME = dst.Frame(2)


def random_params(rng, n_proto=3, n_feat=2, v_scale=2.0):
    return rbf_from_constrained(
        rng.standard_normal((n_proto, n_feat)),
        rng.uniform(0.05, 3.0, size=n_proto),
        v_scale * rng.standard_normal(n_proto),
    )


def one_row(params, x):
    """Masses (3,) of one input row through a 1-row batch, and that row's
    w+, w-, p1 and conflict kappa = (1 - exp(-w+)) (1 - exp(-w-))."""
    mass, c = rbf_forward_batch(params, np.asarray(x, dtype=float)[None])
    wp, wm = float(c["wp"][0]), float(c["wm"][0])
    kappa = float(-np.expm1(-wp) * -np.expm1(-wm))
    return mass[0], {"wplus": wp, "wminus": wm, "p1": float(c["p1"][0]), "kappa": kappa}


def latent_mass_oracle(wp, wm):
    """Combine the two one-sided simple masses with the exact DST core."""
    m = dst.combine_dempster(
        dst.expand_simple(dst.WeightedSimpleMass(FRAME, 0b01, wp)),
        dst.expand_simple(dst.WeightedSimpleMass(FRAME, 0b10, wm)),
    )
    return np.array([m[0b01], m[0b10], m[0b11]])


class TestForward:
    def test_zero_weights_give_vacuous(self):
        p = rbf_from_constrained(np.zeros((3, 2)), np.full(3, 0.01), np.zeros(3))
        mass, out = one_row(p, np.array([1.0, -1.0]))
        np.testing.assert_allclose(mass, [0.0, 0.0, 1.0], atol=1e-15)
        assert out["p1"] == pytest.approx(0.5)
        assert out["kappa"] == 0.0

    def test_far_input_is_ignorant(self):
        rng = np.random.default_rng(3)
        p = random_params(rng)
        mass, _ = one_row(p, np.array([1e4, 1e4]))
        assert mass[2] > 1 - 1e-12

    def test_single_prototype_log2(self):
        p = rbf_from_constrained(np.array([[0.0, 0.0]]), [1.0], [math.log(2)])
        mass, out = one_row(p, np.zeros(2))  # d = 0 so s = 1
        assert out["wplus"] == pytest.approx(math.log(2), abs=1e-15)
        assert out["wminus"] == 0.0
        assert out["kappa"] == 0.0
        np.testing.assert_allclose(mass, [0.5, 0.0, 0.5], atol=1e-12)
        assert out["p1"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_latent_mass_matches_dst_core(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = random_params(rng, n_proto=int(rng.integers(1, 6)))
            x = rng.standard_normal(2)
            mass, out = one_row(p, x)
            np.testing.assert_allclose(
                mass, latent_mass_oracle(out["wplus"], out["wminus"]), atol=1e-12
            )

    def test_p1_is_normalized_plausibility(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            p = random_params(rng, n_proto=int(rng.integers(1, 6)))
            x = rng.standard_normal(2)
            mass, out = one_row(p, x)
            m = dst.make_mass(
                FRAME, [(0b01, mass[0]), (0b10, mass[1]), (0b11, mass[2])]
            )
            pl1 = dst.plausibility(m, 0b01)
            pl2 = dst.plausibility(m, 0b10)
            assert abs(out["p1"] - pl1 / (pl1 + pl2)) < 1e-12
            # and the logistic shortcut agrees with the activation sum
            z = float(np.sum(p.v * np.exp(-p.gamma * ((x - p.proto) ** 2).sum(axis=1))))
            assert out["p1"] == pytest.approx(sigmoid(z), abs=1e-15)

    def test_frame_mass_identity(self):
        # m(frame) = exp(-sum |w_i|) / (1 - kappa)
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_params(rng)
            x = rng.standard_normal(2)
            mass, out = one_row(p, x)
            w = p.v * np.exp(-p.gamma * ((x - p.proto) ** 2).sum(axis=1))
            expected = math.exp(-np.abs(w).sum()) / (1.0 - out["kappa"])
            assert mass[2] == pytest.approx(expected, abs=1e-12)

    def test_large_totals_stay_finite_and_normalized(self):
        p = rbf_from_constrained(np.zeros((2, 2)), [1e-6, 1e-6], [400.0, -350.0])
        mass, _ = rbf_forward_batch(p, np.zeros((1, 2)))
        assert np.all(np.isfinite(mass))
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mass >= 0)

    def test_monotone_ignorance_when_weights_shrink(self):
        rng = np.random.default_rng(37)
        p = random_params(rng)
        x = rng.standard_normal(2)
        scales = np.linspace(1.0, 0.0, 11)
        masses = []
        for scale in scales:
            q = rbf_from_constrained(p.proto, p.gamma, p.v * scale)
            masses.append(one_row(q, x)[0][2])
        assert np.all(np.diff(masses) >= -1e-15)
        assert masses[-1] == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        p = rbf_init_random(3, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            rbf_forward_batch(p, np.zeros((1, 4)))


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(5)
        p = random_params(rng)
        _, cache = rbf_forward_batch(p, rng.standard_normal((1, 2)))
        grads, dx = rbf_backward_batch(p, cache, np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(dx == 0)

    def _fd_case(self, rng, upstream_kind):
        # keep |w_i| away from the kinks so finite differences are valid
        while True:
            p = random_params(rng, n_proto=int(rng.integers(1, 5)))
            x = rng.standard_normal(2)
            _, cache = rbf_forward_batch(p, x[None])
            if np.all(np.abs(cache["w"]) > 1e-3):
                break
        if upstream_kind == "mass":
            upstream = rng.standard_normal(3)[None, :]

            def loss():
                m, _ = rbf_forward_batch(p, x[None])
                return float(np.dot(upstream[0], m[0]))

        else:
            upstream = rng.standard_normal(1)

            def loss():
                _, c = rbf_forward_batch(p, x[None])
                return float(upstream[0] * c["p1"][0])

        analytic, dx = rbf_backward_batch(p, cache, upstream)
        analytic = dict(analytic)
        analytic["x"] = dx[0]
        arrays = dict(p.trainable_arrays())
        arrays["x"] = x
        numeric = fd_gradients(loss, arrays)
        return grad_rel_error(analytic, numeric)

    def test_mass_upstream_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        worst = max(self._fd_case(rng, "mass") for _ in range(100))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_p1_upstream_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        worst = max(self._fd_case(rng, "p1") for _ in range(100))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_p1_weight_gradient_closed_form(self):
        # d(p1)/d(v_i) = s_i p1 (1 - p1)
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_params(rng)
            x = rng.standard_normal(2)
            mass, cache = rbf_forward_batch(p, x[None])
            grads, _ = rbf_backward_batch(p, cache, np.ones(1))
            p1 = cache["p1"][0]
            np.testing.assert_allclose(
                grads["v"], cache["s"][0] * p1 * (1.0 - p1), atol=1e-14
            )

    def test_stale_cache(self):
        rng = np.random.default_rng(4)
        p1_, p2_ = random_params(rng), random_params(rng)
        _, cache = rbf_forward_batch(p1_, rng.standard_normal((1, 2)))
        with pytest.raises(StaleCache):
            rbf_backward_batch(p2_, cache, np.zeros((1, 3)))


class TestInit:
    def test_random_documented_values(self):
        p = rbf_init_random(4, 2, seed=11)
        np.testing.assert_allclose(p.gamma, 0.01, rtol=1e-12)
        q = rbf_init_random(4, 2, seed=11)
        assert np.array_equal(p.proto, q.proto)
        assert np.array_equal(p.v, q.v)

    def test_kmeans_majority_sign(self):
        rng = np.random.default_rng(13)
        a = rng.normal([0, 0], 0.2, size=(30, 2))
        b = rng.normal([8, 8], 0.2, size=(30, 2))
        feats = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        p = rbf_init_kmeans(feats, labels, 2, seed=5)
        for i in range(2):
            expected = 1.0 if np.linalg.norm(p.proto[i]) < 4 else -1.0
            assert p.v[i] == expected

    def test_kmeans_single_class(self):
        rng = np.random.default_rng(15)
        feats = rng.standard_normal((20, 2))
        labels = np.zeros(20, dtype=int)
        p = rbf_init_kmeans(feats, labels, 3, seed=2)
        np.testing.assert_array_equal(p.v, 1.0)
        np.testing.assert_allclose(p.gamma, 0.01, rtol=1e-12)


class TestCheckpoint:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        p = random_params(rng, n_proto=5, n_feat=3)
        q = rbf_from_dict(p.to_dict())
        np.testing.assert_allclose(q.proto, p.proto, atol=1e-15)
        np.testing.assert_allclose(q.gamma, p.gamma, rtol=1e-12)
        np.testing.assert_allclose(q.v, p.v, atol=1e-15)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(one_row(q, x)[0], one_row(p, x)[0], atol=1e-12)

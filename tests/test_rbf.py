"""RBF evidence layer: latent-mass identities against the DST core,
logistic plausibility, gradient checks away from the kinks."""

import math

import numpy as np
import pytest
from helpers import fd_by_name, grad_rel_error

from evidkit import dst, rbf, training
from evidkit.errors import DimensionMismatch, StaleCache
from evidkit.model import EvidentialModel, params_from_dict, params_to_dict
from evidkit.numeric import sigmoid, sum_rows
from evidkit.rbf import (
    RbfParams,
    rbf_backward_batch,
    rbf_forward_batch,
    rbf_from_constrained,
    rbf_init_kmeans,
    rbf_init_random,
)

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
    wp, wm = float(c["totals"][0, 0]), float(c["totals"][1, 0])
    kappa = float(-np.expm1(-wp) * -np.expm1(-wm))
    return mass[0], {"wplus": wp, "wminus": wm, "p1": float(c["probs"][0, 0]), "kappa": kappa}


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
            if np.all(np.abs(cache["s"][:, 0] * p.v) > 1e-3):
                break
        if upstream_kind == "mass":
            upstream = rng.standard_normal(3)[None, :]

            def loss():
                m, _ = rbf_forward_batch(p, x[None])
                return float(np.dot(upstream[0], m[0]))

        else:  # d/d(logits (z, 0)): the second logit is constant
            upstream = rng.standard_normal((1, 2))

            def loss():
                _, c = rbf_forward_batch(p, x[None])
                return float(upstream[0, 0] * (c["totals"][0, 0] - c["totals"][1, 0]))

        analytic, dx = rbf_backward_batch(p, cache, upstream)
        analytic = dict(analytic)
        analytic["x"] = dx[0]
        arrays = dict(p.trainable_arrays())
        arrays["x"] = x
        numeric = fd_by_name(loss, arrays)
        return grad_rel_error(analytic, numeric)

    def test_mass_upstream_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        worst = max(self._fd_case(rng, "mass") for _ in range(100))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_logit_upstream_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        worst = max(self._fd_case(rng, "logits") for _ in range(100))
        assert worst < 1e-4, f"worst relative gradient error {worst}"

    def test_p1_weight_gradient_closed_form(self):
        # d(p1)/d(v_i) = s_i p1 (1 - p1): the logit gradient d(p1)/dz = p1 (1 - p1) times s_i
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = random_params(rng)
            x = rng.standard_normal(2)
            mass, cache = rbf_forward_batch(p, x[None])
            p1 = cache["probs"][0, 0]
            grads, _ = rbf_backward_batch(p, cache, np.array([[p1 * (1.0 - p1), 0.0]]))
            np.testing.assert_allclose(
                grads["v"], cache["s"][:, 0] * p1 * (1.0 - p1), atol=1e-14
            )

    @pytest.mark.parametrize("loss", ["dice", "cross-entropy"])
    def test_a_zero_weight_moves_only_under_cross_entropy(self, monkeypatch, loss):
        # v_i = 0 puts w_i on the kink at every input: a loss on the masses
        # gets the subgradient 0 there, the logit z = sum_i v_i s_i is smooth in v_i
        rng = np.random.default_rng(53)
        X = rng.standard_normal((40, 2))
        y = (X[:, 0] > 0).astype(int)
        layer = random_params(rng, n_proto=4)
        layer.v[1] = 0.0
        d_v, loss_and_grads = [], training.model_loss_and_grads

        def recorded(*args):
            value, grads, masses = loss_and_grads(*args)
            d_v.append(grads["layer.v"][1])
            return value, grads, masses

        monkeypatch.setattr(training, "model_loss_and_grads", recorded)
        config = training.TrainConfig(loss_kind=loss, epochs=20, learning_rate=1e-2)
        model, _ = training.train(EvidentialModel("rbf", layer), (X, y), config)
        assert len(d_v) == 20
        if loss == "dice":
            assert all(g == 0.0 for g in d_v) and model.layer.v[1] == 0.0
        else:
            assert d_v[0] != 0.0 and model.layer.v[1] != 0.0

    @pytest.mark.parametrize("upstream_kind", ["mass", "logits"])
    def test_without_input_grad_the_parameter_grads_are_the_same_bits(self, upstream_kind):
        rng = np.random.default_rng(59)
        p = random_params(rng, n_proto=4)
        X = rng.standard_normal((9, 2))
        upstream = rng.standard_normal((9, 3) if upstream_kind == "mass" else (9, 2))
        want, d_x = rbf_backward_batch(p, rbf_forward_batch(p, X)[1], upstream)
        grads, none = rbf_backward_batch(p, rbf_forward_batch(p, X)[1], upstream, False)
        assert d_x.shape == (9, 2) and none is None
        assert grads.keys() == want.keys()
        for name, g in want.items():
            assert grads[name].tobytes() == g.tobytes(), name

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

    def test_random_weights_alternate_signs(self):
        # |v| is the standard-normal draw; a one-sided draw (all six at seed 0)
        # would leave one class without evidence at every input
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rng.standard_normal((6, 2))
            want = np.abs(rng.standard_normal(6)) * np.array([1.0, -1.0] * 3)
            v = rbf_init_random(6, 2, seed=seed).v
            assert v.tobytes() == want.tobytes() and v.max() > 0 > v.min(), seed

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
        q = params_from_dict(RbfParams, params_to_dict(p))
        np.testing.assert_allclose(q.proto, p.proto, atol=1e-15)
        np.testing.assert_allclose(q.gamma, p.gamma, rtol=1e-12)
        np.testing.assert_allclose(q.v, p.v, atol=1e-15)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(one_row(q, x)[0], one_row(p, x)[0], atol=1e-12)


def totals_by_sign(s, v):
    """The reference totals (w+, w-): each sign's (I, N) product s max(+-v, 0),
    its rows added in order by `sum_rows`."""
    return np.array([sum_rows(s * np.maximum(sv, 0.0)[:, None]) for sv in (v, -v)])


# every (N, I) pair but (12500, 2000), whose 200 MB of activations is left out
TOTALS_SHAPES = [(n, i) for n in (1, 2, 7, 300, 12500) for i in (1, 6, 256, 2000) if n * i < 10**7]


@pytest.mark.parametrize("n, n_proto", TOTALS_SHAPES)
def test_totals_are_the_per_sign_row_sums_bit_for_bit(n, n_proto):
    rng = np.random.default_rng(n + n_proto)
    s = rng.uniform(size=(n_proto, n))
    s[rng.uniform(size=s.shape) < 0.3] = 0.0  # exact zeros, as far inputs flush them
    s[rng.uniform(size=s.shape) < 0.05] = 1.0
    v = rng.standard_normal(n_proto) * 10.0 ** rng.uniform(-3, 6, size=n_proto)
    v[rng.uniform(size=n_proto) < 0.2] = rng.choice([0.0, -0.0, 1e6, -1e6])
    got, want = rbf._totals(s, v), totals_by_sign(s, v)
    assert got.shape == (2, n) and got.tobytes() == want.tobytes()

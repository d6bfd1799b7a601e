"""Feature network: forward basics, backprop vs finite differences and, bit
for bit, vs `np.where` PReLUs for any slope, spent caches, the one-layer
softmax head used for pretraining."""

import numpy as np
import pytest
from helpers import fd_by_name, grad_rel_error, mlp_backward_by_where, mlp_forward_by_where

from evidkit.errors import DimensionMismatch, StaleCache
from evidkit.mlp import (
    MlpParams,
    head_init,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
)
from evidkit.model import params_from_dict, params_to_dict
from evidkit.numeric import softmax_rows


class TestForward:
    def test_zero_params_give_zero_features(self):
        p = MlpParams([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)], [0.25])
        feats, _ = mlp_forward_batch(p, np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(feats, 0.0)

    def test_identity_single_layer(self):
        p = MlpParams([np.eye(3)], [np.zeros(3)], [])
        x = np.array([0.5, -1.5, 2.0])
        feats, _ = mlp_forward_batch(p, x[None])
        np.testing.assert_array_equal(feats[0], x)

    def test_prelu_negative_branch(self):
        p = MlpParams([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)], [0.1])
        feats, _ = mlp_forward_batch(p, np.array([[-10.0, 5.0]]))
        np.testing.assert_allclose(feats[0], [-1.0, 5.0])

    def test_dimension_mismatch(self):
        p = mlp_init([3, 4, 2], seed=0)
        with pytest.raises(DimensionMismatch):
            mlp_forward_batch(p, np.zeros((1, 5)))

    def test_deterministic_init(self):
        a, b = mlp_init([2, 8, 2], seed=3), mlp_init([2, 8, 2], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert np.all(a.slopes == 0.25)


class TestBackward:
    @pytest.mark.parametrize("sizes", [[2, 5, 3], [3, 4, 4, 2], [2, 2]])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        p = mlp_init(sizes, seed=9)
        x = rng.standard_normal((4, sizes[0]))
        upstream = rng.standard_normal((4, sizes[-1]))

        feats, cache = mlp_forward_batch(p, x)
        analytic, dx = mlp_backward_batch(p, cache, upstream)
        analytic = dict(analytic)
        analytic["x"] = dx

        arrays = dict(p.trainable_arrays())
        arrays["x"] = x

        def loss():
            f, _ = mlp_forward_batch(p, x)
            return float(np.sum(upstream * f))

        numeric = fd_by_name(loss, arrays)
        assert grad_rel_error(analytic, numeric) < 1e-4

    def test_zero_upstream(self):
        p = mlp_init([2, 6, 2], seed=1)
        x = np.random.default_rng(0).standard_normal((3, 2))
        _, cache = mlp_forward_batch(p, x)
        grads, dx = mlp_backward_batch(p, cache, np.zeros((3, 2)))
        assert all(np.all(g == 0) for g in grads.values())
        assert np.all(dx == 0)

    def test_linear_layer_outer_product(self):
        p = MlpParams([np.eye(3) * 2.0], [np.zeros(3)], [])
        x = np.array([1.0, 2.0, 3.0])
        upstream = np.array([0.5, -1.0, 2.0])
        _, cache = mlp_forward_batch(p, x[None])
        grads, dx = mlp_backward_batch(p, cache, upstream[None])
        np.testing.assert_allclose(grads["W0"], np.outer(x, upstream))
        np.testing.assert_allclose(grads["b0"], upstream)
        np.testing.assert_allclose(dx[0], upstream * 2.0)


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5, -2.5, 0.75, -0.125]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExactPrelu:
    @pytest.mark.parametrize("slope", [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, np.inf, -np.inf])
    def test_matches_np_where_bit_for_bit(self, slope):
        # z0 = x times 1, 2, 4 and 8, exactly; with an infinite slope no z is
        # 0, where the reference itself forms inf * 0.  Positive weights and
        # upstream keep infinities of one sign in each sum; on infinite
        # entries, BLAS flags invalid lanes of its own at some other widths.
        rng = np.random.default_rng(7)
        X = np.array([[x] for x in SPECIALS if x != 0 or np.isfinite(slope)])
        p = MlpParams([np.array([[1.0, 2.0, 4.0, 8.0]]), rng.uniform(0.5, 1.0, (4, 8)), rng.uniform(0.5, 1.0, (8, 1))],
                      [np.zeros(4), np.full(8, 0.1), np.zeros(1)], [slope, slope])
        upstream = rng.uniform(0.5, 1.0, (len(X), 1))
        buffers = {}
        for _ in range(2):  # the second pass reuses the first one's arrays
            want, want_cache = mlp_forward_by_where(p, X)
            got, cache = mlp_forward_batch(p, X, buffers)
            assert np.array_equal(want_cache["preacts"][0][:, 0], X[:, 0])  # every special value is a z
            assert got.tobytes() == want.tobytes()
            for a, b in zip(cache["activations"], want_cache["activations"]):
                assert a.tobytes() == b.tobytes()
            want_grads, want_dx = mlp_backward_by_where(p, want_cache, upstream)
            grads, dx = mlp_backward_batch(p, cache, upstream)
            assert dx.tobytes() == want_dx.tobytes()
            assert grads.keys() == want_grads.keys()
            for name, g in want_grads.items():
                assert grads[name].tobytes() == g.tobytes(), name
        assert cache["activations"][1] is buffers["h0"] and cache["preacts"][0] is buffers["z0"]

    def test_a_spent_cache_is_refused(self):
        p = mlp_init([2, 6, 5, 2], seed=3)
        _, cache = mlp_forward_batch(p, np.random.default_rng(3).standard_normal((4, 2)))
        mlp_backward_batch(p, cache, np.ones((4, 2)))
        with pytest.raises(StaleCache):
            mlp_backward_batch(p, cache, np.ones((4, 2)))


def head_probs(head, feats):
    """Softmax of a one-layer head net's logits, as pretraining computes them."""
    return softmax_rows(mlp_forward_batch(head, feats)[0])


class TestSoftmaxHead:
    def test_zero_logits_uniform(self):
        head = MlpParams([np.zeros((4, 3))], [np.zeros(3)], [])
        probs = head_probs(head, np.ones((1, 4)))
        np.testing.assert_allclose(probs, 1.0 / 3.0)

    def test_large_gap_near_one_hot(self):
        head = MlpParams([np.zeros((2, 2))], [np.array([50.0, -50.0])], [])
        probs = head_probs(head, np.zeros((1, 2)))
        assert probs[0, 0] > 1 - 1e-12

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(7)
        head = head_init(5, 3, seed=2)
        feats = rng.standard_normal((6, 5))
        probs = head_probs(head, feats)
        logits = feats @ head.weights[0] + head.biases[0]
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_ce_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        head = head_init(4, 3, seed=6)
        feats = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)
        onehot = np.eye(3)[labels]

        logits, cache = mlp_forward_batch(head, feats)
        probs = softmax_rows(logits)
        analytic, dfeats = mlp_backward_batch(head, cache, probs - onehot)
        analytic = dict(analytic)
        analytic["feats"] = dfeats

        arrays = dict(head.trainable_arrays())
        arrays["feats"] = feats

        def loss():
            p = head_probs(head, feats)
            return float(-np.sum(onehot * np.log(p)))

        numeric = fd_by_name(loss, arrays)
        assert grad_rel_error(analytic, numeric) < 1e-4


class TestCheckpoint:
    def test_round_trip(self):
        p = mlp_init([2, 7, 3], seed=12)
        q = params_from_dict(MlpParams, params_to_dict(p))
        assert q.sizes == p.sizes
        for wa, wb in zip(p.weights, q.weights):
            np.testing.assert_allclose(wa, wb, atol=1e-15)
        x = np.random.default_rng(1).standard_normal(2)
        np.testing.assert_allclose(mlp_forward_batch(p, x[None])[0], mlp_forward_batch(q, x[None])[0], atol=1e-15)

"""Losses, clustering, the optimizer, the training loop, staged initialization,
and the package-side gradient checker."""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import grad_rel_error

from evidkit import training
from evidkit.datasets import gen_half_moons
from evidkit.enn import enn_init_kmeans, enn_init_random
from evidkit.errors import AllZeroDenominator, NonFiniteLoss, OutOfRange, ShapeMismatch
from evidkit.kmeans import kmeans
from evidkit.mlp import mlp_init
from evidkit.model import EvidentialModel
from evidkit.rbf import rbf_from_constrained, rbf_init_kmeans, rbf_init_random
from evidkit.training import (
    Adam,
    TrainConfig,
    fd_gradients,
    four_stage_init,
    grad_check,
    loss_ce,
    loss_dice,
    loss_sse,
    model_loss_and_grads,
    train,
)


def lam_difference(model, X, y, loss_kind, lam):
    """Objective value and flat gradients at `lam` minus those at lam = 0:
    what the layer's regularizer adds to training."""
    v0, g0, _ = model_loss_and_grads(model, X, y, TrainConfig(loss_kind=loss_kind, lam=0.0))
    v1, g1, _ = model_loss_and_grads(model, X, y, TrainConfig(loss_kind=loss_kind, lam=lam))
    return v1 - v0, {name: g1[name] - g0[name] for name in g0}


class TestLossSse:
    def test_perfect_predictions(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, d_p = loss_sse(p, p)
        assert value == 0.0
        assert np.all(d_p == 0)

    def test_regularizer_sums_reliabilities(self):
        layer = enn_init_random(4, 2, 2, seed=0)
        value, grads = lam_difference(EvidentialModel("enn", layer), np.zeros((1, 2)), np.zeros(1, dtype=int),
                                      "sse", lam=0.5)
        alpha = layer.alpha
        assert value == pytest.approx(0.5 * np.sum(alpha))
        # d/d(alpha) is lam for every reliability; alpha_raw adds the sigmoid's slope
        np.testing.assert_allclose(grads["layer.alpha_raw"] / (alpha * (1.0 - alpha)), 0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 0.9, size=(6, 3))
        y = np.eye(3)[rng.integers(0, 3, size=6)]

        _, d_p = loss_sse(p, y)
        numeric = fd_gradients(lambda: loss_sse(p, y)[0], {"p": p})
        assert grad_rel_error({"p": d_p}, {"p": numeric["p"]}) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_sse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestLossCe:
    def test_matching_predictions_near_zero(self):
        p = np.array([1.0, 0.0, 1.0])
        y = np.array([1.0, 0.0, 1.0])
        value, _ = loss_ce(p, y)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_coin_flip_value(self):
        n = 17
        value, _ = loss_ce(np.full(n, 0.5), np.ones(n))
        assert value == pytest.approx(n * math.log(2))

    def test_weight_penalty(self):
        # one point far from both prototypes: p1 = 1/2, and the data term leaves v alone
        v = np.array([1.0, -2.0])
        model = EvidentialModel("rbf", rbf_from_constrained(np.zeros((2, 2)), np.ones(2), v))
        value, grads, _ = model_loss_and_grads(model, np.full((1, 2), 1e3), np.zeros(1, dtype=int),
                                               TrainConfig(loss_kind="cross-entropy", lam=0.1))
        assert value == pytest.approx(math.log(2) + 0.1 * 5.0)
        np.testing.assert_allclose(grads["layer.v"], 0.2 * v)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.05, 0.95, size=10)
        y = rng.integers(0, 2, size=10).astype(float)
        _, d_p = loss_ce(p, y)
        numeric = fd_gradients(lambda: loss_ce(p, y)[0], {"p": p})
        assert grad_rel_error({"p": d_p}, {"p": numeric["p"]}) < 1e-6


class TestLossDice:
    def test_exact_match(self):
        g = np.array([1.0, 0.0, 1.0, 0.0])
        value, _ = loss_dice(g, g)
        assert value == pytest.approx(0.0)

    def test_complement_is_one(self):
        g = np.array([1.0, 1.0, 0.0, 0.0])
        value, _ = loss_dice(1.0 - g, g)
        assert value == pytest.approx(1.0)

    def test_regularized_value(self):
        # sum(v^2) = 3: the objective adds lam * 3
        layer = rbf_from_constrained(np.eye(3, 2), np.ones(3), np.array([1.0, -1.0, 1.0]))
        value, _ = lam_difference(EvidentialModel("rbf", layer), np.eye(2), np.array([1.0, 0.0]), "dice", lam=0.5)
        assert value == pytest.approx(1.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.01, 0.99, size=12)
        g = rng.integers(0, 2, size=12).astype(float)
        _, d_s = loss_dice(s, g)
        numeric = fd_gradients(lambda: loss_dice(s, g)[0], {"s": s})
        assert grad_rel_error({"s": d_s}, {"s": numeric["s"]}) < 1e-6

    def test_all_zero_denominator(self):
        with pytest.raises(AllZeroDenominator):
            loss_dice(np.zeros(4), np.zeros(4))


class TestKmeans:
    def test_one_centroid_per_point(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((5, 2))
        res = kmeans(pts, 5, seed=0)
        d2 = ((res.centroids[:, None] - pts[None]) ** 2).sum(axis=2)
        assert sorted(np.argmin(d2, axis=1).tolist()) == list(range(5))
        np.testing.assert_allclose(np.min(d2, axis=1), 0.0, atol=1e-20)

    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        sigma = 0.2
        a = rng.normal([0, 0], sigma, size=(60, 2))
        b = rng.normal([5, 5], sigma, size=(60, 2))
        res = kmeans(np.vstack([a, b]), 2, seed=1)
        dist_to_means = np.sort(
            [min(np.linalg.norm(c - [0, 0]), np.linalg.norm(c - [5, 5])) for c in res.centroids]
        )
        assert np.all(dist_to_means < 3 * sigma)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((40, 3))
        r1, r2 = kmeans(pts, 4, seed=9), kmeans(pts, 4, seed=9)
        assert np.array_equal(r1.centroids, r2.centroids)
        assert np.array_equal(r1.assignments, r2.assignments)

    def test_degenerate_identical_points(self):
        pts = np.ones((10, 2))
        res = kmeans(pts, 3, seed=0)
        assert res.degenerate
        np.testing.assert_array_equal(res.centroids, 1.0)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((50, 2))
        res = kmeans(pts, 8, seed=3)
        assert set(res.assignments.tolist()) == set(range(8))

    def test_k_bounds(self):
        with pytest.raises(OutOfRange):
            kmeans(np.zeros((3, 2)), 4)


class TestOptimizers:
    def quadratic(self, x, c):
        return float(np.sum((x - c) ** 2))

    def test_converges_on_convex_quadratic(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(6)
        x = rng.standard_normal(6)
        arrays = {"x": x}
        opt = Adam(arrays, lr=0.05)
        losses = []
        for _ in range(2000):
            losses.append(self.quadratic(x, c))
            opt.step({"x": 2.0 * (x - c)})
        losses.append(self.quadratic(x, c))
        # monotone after warm-up (adaptive steps may bounce by O(lr^2) near
        # the optimum) and essentially at the optimum
        tail = losses[50:]
        assert np.all(np.diff(tail) <= 1e-5)
        assert losses[-1] < 1e-6


def make_banana_model(kind, seed, train_ds):
    if kind == "enn":
        layer = enn_init_kmeans(train_ds.points, train_ds.labels, 6, 2, seed=seed)
        cfg = TrainConfig(epochs=100, learning_rate=1e-3, lam=1e-3, loss_kind="sse", seed=seed)
    else:
        layer = rbf_init_kmeans(train_ds.points, train_ds.labels, 6, seed=seed)
        cfg = TrainConfig(epochs=100, learning_rate=1e-3, lam=1e-3, loss_kind="cross-entropy", seed=seed)
    return EvidentialModel(kind, layer), cfg


class TestTrainLoop:
    def test_zero_epochs_unchanged(self):
        ds = gen_half_moons(60, 0.1, seed=0)
        model, cfg = make_banana_model("enn", 0, ds)
        before = {k: v.copy() for k, v in model.trainable_arrays().items()}
        model, hist = train(model, ds, replace(cfg, epochs=0))
        assert not hist.records
        for k, v in model.trainable_arrays().items():
            assert np.array_equal(v, before[k])

    @pytest.mark.parametrize("kind", ["enn", "rbf"])
    def test_loss_decreases(self, kind):
        ds = gen_half_moons(300, 0.1, seed=123)
        for seed in range(3):
            model, cfg = make_banana_model(kind, seed, ds)
            model, hist = train(model, ds, cfg)
            assert hist.records[-1].loss < hist.records[0].loss

    def test_history_is_reproducible(self):
        ds = gen_half_moons(120, 0.1, seed=11)
        val = gen_half_moons(60, 0.1, seed=12)
        runs = []
        for _ in range(2):
            model, cfg = make_banana_model("rbf", 4, ds)
            _, hist = train(model, ds, replace(cfg, epochs=30), val)
            runs.append([(r.loss, r.train_error, r.val_error, r.mean_ignorance) for r in hist.records])
        assert runs[0] == runs[1]

    def test_validation_snapshot_restored(self):
        ds = gen_half_moons(120, 0.1, seed=13)
        val = gen_half_moons(80, 0.1, seed=14)
        model, cfg = make_banana_model("enn", 2, ds)
        model, hist = train(model, ds, replace(cfg, epochs=40, learning_rate=0.2), val)
        # returned parameters must reproduce the best recorded validation error
        from evidkit.metrics import error_rate

        final_err = error_rate(model.predict(val.points), val.labels)
        assert final_err <= np.nanmin([r.val_error for r in hist.records]) + 1e-12

    def test_history_csv_layout(self):
        ds = gen_half_moons(60, 0.1, seed=15)
        model, cfg = make_banana_model("enn", 1, ds)
        _, hist = train(model, ds, replace(cfg, epochs=3))
        rows = list(hist.csv_rows())
        assert rows[0] == "epoch,loss,train_err,val_err,mean_ignorance"
        assert len(rows) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_raises(self):
        ds = gen_half_moons(60, 0.1, seed=16)
        layer = rbf_init_kmeans(ds.points, ds.labels, 4, seed=0)
        model = EvidentialModel("rbf", layer)
        cfg = TrainConfig(epochs=200, learning_rate=1e8, lam=1.0, loss_kind="cross-entropy")
        with pytest.raises(NonFiniteLoss):
            train(model, ds, cfg)

    def test_loss_model_pairing_enforced(self):
        ds = gen_half_moons(60, 0.1, seed=17)
        enn_model, _ = make_banana_model("enn", 0, ds)
        with pytest.raises(OutOfRange):
            train(enn_model, ds, TrainConfig(epochs=1, loss_kind="cross-entropy"))
        rbf_model, _ = make_banana_model("rbf", 0, ds)
        with pytest.raises(OutOfRange):
            train(rbf_model, ds, TrainConfig(epochs=1, loss_kind="sse"))


@pytest.fixture(scope="module")
def staged():
    ds = gen_half_moons(200, 0.1, seed=21)
    cfg = TrainConfig(epochs=40, learning_rate=1e-2, lam=1e-3, loss_kind="sse", seed=0)
    arch = {"kind": "enn", "n_prototypes": 4, "n_features": 2, "hidden": [16]}
    return ds, four_stage_init(ds, arch, cfg)


class TestFourStageInit:
    def test_layer_stage_freezes_features(self, staged):
        _, result = staged
        a = result.net_after_pretrain.trainable_arrays()
        b = result.net_before_finetune.trainable_arrays()
        for k in a:
            assert np.array_equal(a[k], b[k]), f"feature-net array {k} changed during layer training"

    def test_prototypes_inside_feature_cloud(self, staged):
        ds, result = staged
        from evidkit.mlp import mlp_forward_batch

        feats, _ = mlp_forward_batch(result.net_after_pretrain, ds.points)
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        assert np.all(result.prototypes_init >= lo - 1e-12)
        assert np.all(result.prototypes_init <= hi + 1e-12)

    def test_histories_recorded(self, staged):
        _, result = staged
        assert len(result.pretrain_history.records) == 40
        assert len(result.layer_history.records) == 40
        assert len(result.finetune_history.records) == 40

    def test_labels_checked_before_pretraining(self, monkeypatch):
        pretrained = []
        monkeypatch.setattr(training, "pretrain_feature_net", lambda *args: pretrained.append(args))
        ds = gen_half_moons(30, 0.1, seed=4)
        arch = {"kind": "rbf", "n_prototypes": 3, "n_features": 2}
        config = TrainConfig(epochs=300, loss_kind="cross-entropy")
        with pytest.raises(OutOfRange):
            four_stage_init((ds.points, np.arange(30) % 3), arch, config)
        assert pretrained == []


class TestGradCheck:
    def test_well_conditioned_case_is_tight(self):
        ds = gen_half_moons(8, 0.1, seed=30)
        layer = enn_init_kmeans(ds.points, ds.labels, 2, 2, seed=0)
        model = EvidentialModel("enn", layer)
        cfg = TrainConfig(epochs=1, loss_kind="sse", lam=0.01)
        # step 1e-5 keeps float64 roundoff in the differences below 1e-8
        err = grad_check(model, ds.points, ds.labels, cfg, eps=1e-5)
        assert err < 1e-8

    def test_enn_full_model(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            ds = gen_half_moons(10, 0.1, seed=seed)
            net = mlp_init([2, 8, 2], seed=seed)
            layer = enn_init_random(3, 2, 2, seed=seed)
            layer.proto[...] = rng.standard_normal(layer.proto.shape)
            layer.log_gamma[...] = np.log(rng.uniform(0.3, 2.0, 3))
            model = EvidentialModel("enn", layer, net)
            cfg = TrainConfig(epochs=1, loss_kind="sse", lam=1e-3)
            assert grad_check(model, ds.points, ds.labels, cfg) < 1e-4

    def test_rbf_full_model_away_from_kinks(self):
        rng = np.random.default_rng(32)
        done = 0
        seed = 0
        while done < 5:
            seed += 1
            ds = gen_half_moons(10, 0.1, seed=seed)
            net = mlp_init([2, 8, 2], seed=seed)
            layer = rbf_init_random(3, 2, seed=seed)
            layer.log_gamma[...] = np.log(rng.uniform(0.3, 2.0, 3))
            model = EvidentialModel("rbf", layer, net)
            feats = model.features(ds.points)
            w = np.exp(-layer.gamma * ((feats[:, None] - layer.proto[None]) ** 2).sum(2)) * layer.v
            if np.min(np.abs(w)) <= 1e-3:
                continue
            cfg = TrainConfig(epochs=1, loss_kind="cross-entropy", lam=1e-3)
            assert grad_check(model, ds.points, ds.labels, cfg) < 1e-4
            done += 1

    def test_dice_loss_path(self):
        ds = gen_half_moons(12, 0.1, seed=33)
        targets = (ds.labels == 1).astype(float)
        layer = enn_init_kmeans(ds.points, ds.labels, 3, 2, seed=1)
        model = EvidentialModel("enn", layer)
        cfg = TrainConfig(epochs=1, loss_kind="dice", lam=1e-2)
        assert grad_check(model, ds.points, targets, cfg) < 1e-4

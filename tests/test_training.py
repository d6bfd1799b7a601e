"""Losses, clustering, the optimizer, the training loop, `fit` and its staged
initialization, and the package-side gradient checker."""

import copy
import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import grad_rel_error, mlp_backward_by_where, mlp_forward_by_where, traced_peak

from evidkit import enn, mlp, rbf, training
from evidkit import kmeans as kmeans_module
from evidkit.datasets import gen_half_moons, gen_toy_segmentation, seg_task_as_samples
from evidkit.enn import enn_init_kmeans, enn_init_random
from evidkit.errors import AllZeroDenominator, Empty, MalformedInput, NonFiniteLoss, OutOfRange, ShapeMismatch
from evidkit.kmeans import CACHE_SIZE, MAX_ITER, KMeansResult, _plusplus_seed, kmeans
from evidkit.mlp import head_init, mlp_forward_batch, mlp_init
from evidkit.model import EvidentialModel, make_layer
from evidkit.numeric import log_rows, sq_dists
from evidkit.rbf import rbf_from_constrained, rbf_init_kmeans, rbf_init_random
from evidkit.training import (
    Adam,
    TrainConfig,
    fd_gradients,
    fit,
    grad_check,
    loss_ce,
    loss_dice,
    loss_sse,
    model_loss_and_grads,
    pretrain_feature_net,
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
        numeric = fd_gradients(lambda: loss_sse(p, y)[0], p)
        assert grad_rel_error({"p": d_p}, {"p": numeric}) < 1e-6

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
        numeric = fd_gradients(lambda: loss_ce(p, y)[0], p)
        assert grad_rel_error({"p": d_p}, {"p": numeric}) < 1e-6


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
        numeric = fd_gradients(lambda: loss_dice(s, g)[0], s)
        assert grad_rel_error({"s": d_s}, {"s": numeric}) < 1e-6

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
        r1 = kmeans(pts, 4, seed=9)
        kmeans_module._cache.clear()  # the second call clusters again
        r2 = kmeans(pts, 4, seed=9)
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

    def test_repeat_call_returns_new_arrays(self):
        pts = np.random.default_rng(9).standard_normal((40, 2))
        first = kmeans(pts, 4, seed=2)
        centroids, assignments = first.centroids.copy(), first.assignments.copy()
        first.centroids[:] = 0.0  # as training does to the prototypes it was given
        first.assignments[:] = -1
        again = kmeans(pts, 4, seed=2)
        kmeans_module._cache.clear()
        fresh = kmeans(pts, 4, seed=2)
        assert again.centroids is not first.centroids and again.assignments is not first.assignments
        for res in (again, fresh):
            assert res.centroids.tobytes() == centroids.tobytes()
            assert np.array_equal(res.assignments, assignments)
            assert res.n_iter == first.n_iter

    @pytest.mark.parametrize("others, computed", [(CACHE_SIZE - 1, CACHE_SIZE), (CACHE_SIZE, CACHE_SIZE + 2)])
    def test_oldest_entry_evicted(self, others, computed, monkeypatch):
        calls = []
        lloyd = kmeans_module._lloyd
        monkeypatch.setattr(kmeans_module, "_lloyd", lambda *args: calls.append(args) or lloyd(*args))
        kmeans_module._cache.clear()
        pts = np.random.default_rng(10).standard_normal((30, 2))
        kmeans(pts, 3, seed=0)
        for seed in range(1, others + 1):
            kmeans(pts, 3, seed=seed)
        kmeans(pts, 3, seed=0)  # a hit while it is among the CACHE_SIZE newest
        assert len(calls) == computed
        assert len(kmeans_module._cache) <= CACHE_SIZE

    def test_key_is_the_content(self):
        pts = np.random.default_rng(11).standard_normal((30, 2))
        kmeans_module._cache.clear()
        ref = kmeans(pts, 3, seed=4)
        for same in (pts.copy(), np.asfortranarray(pts), pts.tolist()):
            assert kmeans(same, 3, seed=4).centroids.tobytes() == ref.centroids.tobytes()
        assert len(kmeans_module._cache) == 1
        kmeans(pts[::-1], 3, seed=4)  # other points
        kmeans(pts.reshape(20, 3), 3, seed=4)  # the same bytes in another shape
        kmeans(pts, 2, seed=4)
        kmeans(pts, 3, seed=5)
        assert len(kmeans_module._cache) == 5

    def test_threads_share_the_cache(self):
        pts = np.random.default_rng(13).standard_normal((24, 2))
        want = {seed: kmeans_by_loop(pts, 3, seed)[0].tobytes() for seed in range(2 * CACHE_SIZE)}
        errors = []

        def work(offset):
            try:
                for i in range(6 * CACHE_SIZE):
                    seed = (i + offset) % (2 * CACHE_SIZE)
                    assert kmeans(pts, 3, seed=seed).centroids.tobytes() == want[seed]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(3 * j,)) for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(kmeans_module._cache) <= CACHE_SIZE

    def test_nan_points_raise_on_every_call(self):
        pts = np.random.default_rng(12).standard_normal((20, 2))
        kmeans(pts, 3, seed=0)
        pts[4, 1] = np.nan
        for _ in range(2):
            with pytest.raises(MalformedInput):
                kmeans(pts, 3, seed=0)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3])
    def test_update_matches_the_per_cluster_loop(self, seed, dim):
        rng = np.random.default_rng(100 + seed)
        pts = rng.standard_normal((300, dim)) + 4.0 * rng.integers(0, 3, size=(300, 1))
        expect_same_as_loop(pts, 6, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_cluster_matches_the_per_cluster_loop(self, seed):
        # 3 locations, 10 points each, 5 clusters: seeding has to repeat a
        # location, and the repeat's cluster is empty after the first assignment
        rng = np.random.default_rng(200 + seed)
        pts = np.repeat(rng.standard_normal((3, 2)), 10, axis=0)
        first = np.argmin(sq_dists(pts, _plusplus_seed(pts, 5, np.random.default_rng(seed)))[0], axis=0)
        assert len(np.unique(first)) < 5
        expect_same_as_loop(pts, 5, seed)


def plusplus_seed_by_choice(points, k, rng):
    """k-means++ seeding with each draw made by `rng.choice(n, p=...)`, the
    reference for `_plusplus_seed`'s inverse-CDF draw."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_plusplus_draws_the_points_rng_choice_draws(seed, dim):
    rng = np.random.default_rng(300 + 10 * seed + dim)
    spread = rng.standard_normal((60, dim)) * rng.uniform(0.01, 100.0, size=dim)
    # 3 locations for 5 seeds: the last draws see no weight left (total <= 0)
    repeats = np.repeat(rng.standard_normal((3, dim)), 4, axis=0)
    for points, k in ((spread, 8), (repeats, 5), (np.zeros((5, dim)), 3)):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _plusplus_seed(points, k, got_rng)
        assert got.tobytes() == plusplus_seed_by_choice(points, k, want_rng).tobytes()
        assert got_rng.random() == want_rng.random()  # both drew the same numbers


def kmeans_by_loop(points, k, seed):
    """Lloyd's iterations with one mean per cluster, the way `kmeans` updated
    its centroids before the bincount form: (centroids, assignments, n_iter)."""
    rng = np.random.default_rng(seed)
    degenerate = k > 1 and bool(np.all(points == points[0]))
    centroids = _plusplus_seed(points, k, rng)
    n = len(points)
    assignments = np.full(n, -1)
    for n_iter in range(1, MAX_ITER + 1):
        d2 = sq_dists(points, centroids)[0].T
        new_assign = np.argmin(d2, axis=1)
        for j in range(k):
            members = new_assign == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            elif not degenerate:
                farthest = int(np.argmax(d2[np.arange(n), new_assign]))
                centroids[j] = points[farthest]
                new_assign[farthest] = j
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return centroids, new_assign, n_iter


def label_stats_by_loop(assignments, labels, k, n_classes):
    """`enn` memberships and `rbf` signs by one cluster at a time, the way
    the two k-means inits computed them before the bincount form."""
    u = np.full((k, n_classes), 1.0 / n_classes)
    v = np.ones(k)
    for i in range(k):
        members = labels[assignments == i]
        if members.size:
            counts = np.bincount(members, minlength=n_classes).astype(float)
            u[i] = counts / counts.sum()
            if np.mean(members == 0) < 0.5:
                v[i] = -1.0
    return u, v


LABEL_CASES = {
    "random": lambda rng: (rng.integers(0, 7, size=90), rng.integers(0, 2, size=90)),
    "empty-clusters": lambda rng: (rng.choice([1, 4, 5], size=50), rng.integers(0, 2, size=50)),
    "one-class": lambda rng: (rng.integers(0, 7, size=40), np.zeros(40, dtype=int)),
    "other-class": lambda rng: (rng.integers(0, 7, size=40), np.ones(40, dtype=int)),
    "ties": lambda rng: (np.repeat(np.arange(7), 4), np.tile([0, 1], 14)),
}


@pytest.mark.parametrize("case", list(LABEL_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_init_label_stats_match_the_loop(case, seed, monkeypatch):
    rng = np.random.default_rng(400 + seed)
    assignments, labels = LABEL_CASES[case](rng)
    points = rng.standard_normal((len(labels), 2))

    def fake(pts, k, seed=0):  # a clustering with the case's assignments
        return KMeansResult(pts[:k].copy(), assignments, 1)

    monkeypatch.setattr(enn, "kmeans", fake)
    monkeypatch.setattr(rbf, "kmeans", fake)
    u, v = label_stats_by_loop(assignments, labels, 7, 2)
    assert enn_init_kmeans(points, labels, 7, 2).u_logit.tobytes() == log_rows(u).tobytes()
    assert np.array_equal(rbf_init_kmeans(points, labels, 7).v, v)
    if case == "random":
        labels3 = rng.integers(0, 3, size=len(labels))
        u3, _ = label_stats_by_loop(assignments, labels3, 7, 3)
        assert enn_init_kmeans(points, labels3, 7, 3).u_logit.tobytes() == log_rows(u3).tobytes()


@pytest.mark.parametrize("bad", [-1, 2, 3])
@pytest.mark.parametrize("init", [lambda x, y: enn_init_kmeans(x, y, 3, 2), lambda x, y: rbf_init_kmeans(x, y, 3)],
                         ids=["enn", "rbf"])
def test_init_labels_outside_the_classes(init, bad):
    ds = gen_half_moons(30, 0.1, seed=3)
    labels = ds.labels.copy()
    labels[7] = bad
    with pytest.raises(OutOfRange):
        init(ds.points, labels)


@pytest.mark.parametrize("n_labels", [29, 31])
@pytest.mark.parametrize("init", [lambda x, y: enn_init_kmeans(x, y, 3, 2), lambda x, y: rbf_init_kmeans(x, y, 3)],
                         ids=["enn", "rbf"])
def test_init_needs_one_label_per_point(init, n_labels):
    ds = gen_half_moons(30, 0.1, seed=3)
    kmeans_module._cache.clear()
    with pytest.raises(ShapeMismatch):
        init(ds.points, np.resize(ds.labels, n_labels))
    assert not kmeans_module._cache  # refused before clustering


def expect_same_as_loop(points, k, seed):
    centroids, assignments, n_iter = kmeans_by_loop(points, k, seed)
    res = kmeans(points, k, seed=seed)
    assert res.centroids.tobytes() == centroids.tobytes()
    assert np.array_equal(res.assignments, assignments)
    assert res.n_iter == n_iter


class TestOptimizers:
    def quadratic(self, x, c):
        return float(np.sum((x - c) ** 2))

    def test_converges_on_convex_quadratic(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal(6)
        x = rng.standard_normal(6)
        opt = Adam(x, lr=0.05)
        losses = []
        for _ in range(2000):
            losses.append(self.quadratic(x, c))
            opt.step(2.0 * (x - c))
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

    def test_arrays_held_before_training_get_the_trained_values(self):
        ds = gen_half_moons(60, 0.1, seed=18)
        model = EvidentialModel("enn", enn_init_kmeans(ds.points, ds.labels, 3, 2, seed=0), mlp_init([2, 4, 2], seed=0))
        held = model.trainable_arrays()
        before = {k: v.copy() for k, v in held.items()}
        model, _ = train(model, ds, TrainConfig(epochs=5, learning_rate=1e-2, loss_kind="sse"))
        after = model.trainable_arrays()
        for name, array in held.items():
            assert after[name] is array, name
            assert not np.array_equal(array, before[name]), name

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

    @pytest.mark.parametrize("setting, value", [("learning_rate", 0.0), ("learning_rate", math.nan),
                                                ("learning_rate", math.inf), ("lam", -1e-3),
                                                ("lam", math.nan), ("lam", math.inf)])
    def test_config_refuses_settings_outside_their_finite_range(self, setting, value):
        with pytest.raises(OutOfRange):
            TrainConfig(**{setting: value})


class TestDataSets:
    EMPTY = (np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_empty_training_or_validation_set(self):
        ds = gen_half_moons(30, 0.1, seed=5)
        for kind in ("enn", "rbf"):
            model, cfg = make_banana_model(kind, 0, ds)
            with pytest.raises(Empty):
                train(model, self.EMPTY, cfg)
            with pytest.raises(Empty):
                train(model, ds, cfg, self.EMPTY)

    def test_four_stage_init_on_an_empty_set(self, monkeypatch):
        monkeypatch.setattr(training, "pretrain_feature_net", lambda *args: pytest.fail("pretrained"))
        ds = gen_half_moons(30, 0.1, seed=6)
        for data, val in ((self.EMPTY, None), (ds, self.EMPTY)):
            with pytest.raises(Empty):
                fit("enn", "kmeans", 3, data, TrainConfig(epochs=3), hidden=[16], val_data=val)

    @pytest.mark.parametrize("n_labels", [29, 31])
    def test_points_and_labels_of_different_lengths(self, n_labels, monkeypatch):
        monkeypatch.setattr(training, "model_loss_and_grads", lambda *args: pytest.fail("an epoch ran"))
        ds = gen_half_moons(30, 0.1, seed=7)
        short = (ds.points, np.resize(ds.labels, n_labels))
        model, cfg = make_banana_model("enn", 0, ds)
        with pytest.raises(ShapeMismatch):
            train(model, short, cfg)
        with pytest.raises(ShapeMismatch):
            train(model, ds, cfg, short)


@pytest.fixture(scope="module")
def staged():
    """A staged init run, with snapshots its spies took between the stages:
    the feature net after pretraining and before fine-tuning, and the
    k-means layer's prototypes before layer training."""
    ds = gen_half_moons(200, 0.1, seed=21)
    cfg = TrainConfig(epochs=40, learning_rate=1e-2, lam=1e-3, loss_kind="sse", seed=0)
    snaps = {}
    real_pretrain, real_make_layer = training.pretrain_feature_net, training.make_layer

    def pretrain(net, *args):
        history = real_pretrain(net, *args)
        snaps["net_after_pretrain"] = copy.deepcopy(net)
        return history

    def make_layer(kind, n_prototypes, n_features, n_classes, seed, data=None):
        layer = real_make_layer(kind, n_prototypes, n_features, n_classes, seed, data)
        if data is not None:  # the k-means layer, not the label check's random one
            snaps["prototypes_init"] = layer.proto.copy()
        return layer

    def spy_train(model, *args):
        if model.feature_net is not None:  # the fine-tuning stage
            snaps["net_before_finetune"] = copy.deepcopy(model.feature_net)
        return train(model, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "pretrain_feature_net", pretrain)
        mp.setattr(training, "make_layer", make_layer)
        mp.setattr(training, "train", spy_train)
        _, histories = fit("enn", "kmeans", 4, ds, cfg, hidden=[16])
    return ds, histories, snaps


class TestFourStageInit:
    def test_layer_stage_freezes_features(self, staged):
        _, _, snaps = staged
        a = snaps["net_after_pretrain"].trainable_arrays()
        b = snaps["net_before_finetune"].trainable_arrays()
        for k in a:
            assert np.array_equal(a[k], b[k]), f"feature-net array {k} changed during layer training"

    def test_prototypes_inside_feature_cloud(self, staged):
        ds, _, snaps = staged
        from evidkit.mlp import mlp_forward_batch

        feats, _ = mlp_forward_batch(snaps["net_after_pretrain"], ds.points)
        lo, hi = feats.min(axis=0), feats.max(axis=0)
        assert np.all(snaps["prototypes_init"] >= lo - 1e-12)
        assert np.all(snaps["prototypes_init"] <= hi + 1e-12)

    def test_histories_recorded(self, staged):
        _, histories, _ = staged
        assert len(histories["pretrain"].records) == 40
        assert len(histories["layer"].records) == 40
        assert len(histories["train"].records) == 40

    def test_labels_checked_before_pretraining(self, monkeypatch):
        pretrained = []
        monkeypatch.setattr(training, "pretrain_feature_net", lambda *args: pretrained.append(args))
        ds = gen_half_moons(30, 0.1, seed=4)
        config = TrainConfig(epochs=300, loss_kind="cross-entropy")
        with pytest.raises(OutOfRange):
            fit("rbf", "kmeans", 3, (ds.points, np.arange(30) % 3), config, hidden=[16])
        assert pretrained == []

    @pytest.mark.parametrize("kind, loss", [("enn", "sse"), ("rbf", "cross-entropy")])
    def test_staged_fit_is_the_hand_chained_protocol(self, kind, loss):
        # pretraining runs at the configured rate and scores the validation
        # set, the layer stage at 1e-2 on its features, the fine-tuning at 1e-4
        ds, val = gen_half_moons(80, 0.1, seed=22), gen_half_moons(40, 0.1, seed=23)
        cfg = TrainConfig(epochs=15, learning_rate=5e-3, lam=1e-3, loss_kind=loss, seed=3)
        model, histories = fit(kind, "kmeans", 4, ds, cfg, hidden=[8], n_features=3, val_data=val)

        net = mlp_init([2, 8, 3], seed=3)
        pretrain_history = pretrain_feature_net(net, head_init(3, 2, seed=4), ds, cfg, val)
        feats, val_feats = mlp_forward_batch(net, ds.points)[0], mlp_forward_batch(net, val.points)[0]
        layer = make_layer(kind, 4, 3, 2, 3, (feats, ds.labels))
        layer_model, layer_history = train(EvidentialModel(kind, layer), (feats, ds.labels),
                                           replace(cfg, learning_rate=1e-2), (val_feats, val.labels))
        hand, history = train(EvidentialModel(kind, layer_model.layer, net), ds,
                              replace(cfg, learning_rate=1e-4), val)

        assert json.dumps(model.to_dict()) == json.dumps(hand.to_dict())  # checkpoint bytes
        for stage, expected in (("pretrain", pretrain_history), ("layer", layer_history), ("train", history)):
            assert list(histories[stage].csv_rows()) == list(expected.csv_rows()), stage

    def test_a_net_with_random_prototypes_trains_as_it_is(self):
        ds = gen_half_moons(60, 0.1, seed=24)
        cfg = TrainConfig(epochs=10, learning_rate=1e-2, seed=5)
        model, histories = fit("enn", "random", 4, ds, cfg, hidden=[8, 6], n_features=3)
        hand = EvidentialModel("enn", make_layer("enn", 4, 3, 2, 5), mlp_init([2, 8, 6, 3], seed=5))
        hand, history = train(hand, ds, cfg)
        assert list(histories) == ["train"]
        assert json.dumps(model.to_dict()) == json.dumps(hand.to_dict())  # checkpoint bytes
        assert list(histories["train"].csv_rows()) == list(history.csv_rows())


def seg_samples(side, seeds):
    """Pixel rows and labels of toy segmentation tasks of side x side."""
    parts = [seg_task_as_samples(gen_toy_segmentation(side, side, 3, seed=s)) for s in seeds]
    return np.vstack([x for x, _ in parts]), np.concatenate([y for _, y in parts])


PARENT_STEP_PEAK = 1_497_904  # bytes, epochs 2 to 6, when each step allocated all its arrays afresh


def test_a_training_step_reuses_the_fits_arrays(monkeypatch):
    # Dice steps of a 16-wide net and an enn layer on two 32 x 32 tasks
    # (N = 2048): from the second epoch on, the net's activations, the
    # layer's (I, N) scratch and the loss gradient come back from storage
    # the fit owns.  Peaks are traced from each call's entry.
    peaks, step = [], training.model_loss_and_grads

    def traced_step(*args):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = step(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        return result

    monkeypatch.setattr(training, "model_loss_and_grads", traced_step)
    config = TrainConfig(epochs=6, learning_rate=1e-2, loss_kind="dice", seed=2)
    traced_peak(fit, "enn", "random", 6, seg_samples(32, (0, 1)), config, [16])
    assert len(peaks) == 6 and max(peaks[1:]) <= PARENT_STEP_PEAK // 2


def test_staged_fit_is_the_where_nets_bit_for_bit(monkeypatch):
    # pretraining, the layer stage and fine-tuning on segmentation tasks,
    # validated: the histories and checkpoint of a net by np.where
    data, val = seg_samples(16, (3, 4)), seg_samples(16, (5,))
    config = TrainConfig(epochs=12, learning_rate=1e-2, loss_kind="dice", seed=4)
    model, histories = fit("enn", "kmeans", 4, data, config, [8], val_data=val)
    for module in (mlp, training):
        monkeypatch.setattr(module, "mlp_forward_batch", mlp_forward_by_where)
        monkeypatch.setattr(module, "mlp_backward_batch", mlp_backward_by_where)
    want, want_histories = fit("enn", "kmeans", 4, data, config, [8], val_data=val)
    assert json.dumps(model.to_dict()) == json.dumps(want.to_dict())  # checkpoint bytes
    assert list(histories) == ["pretrain", "layer", "train"]
    for stage, history in want_histories.items():
        assert list(histories[stage].csv_rows()) == list(history.csv_rows()), stage


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

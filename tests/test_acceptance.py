"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight training grid is computed once per session and shared.
"""

import time

import numpy as np
import pytest
from helpers import grad_rel_error, knn_predict

from evidkit import dst
from evidkit.datasets import gen_half_moons, gen_ood_class, gen_toy_segmentation, seg_task_as_samples
from evidkit.enn import enn_init_kmeans, enn_init_random
from evidkit.errors import TotalConflict
from evidkit.metrics import ece, error_rate, mean_ignorance, seg_scores
from evidkit.mlp import mlp_init
from evidkit.model import LAYERS, EvidentialModel, make_layer
from evidkit.rbf import rbf_forward_batch, rbf_from_constrained, rbf_init_random
from evidkit.training import (
    TrainConfig,
    fd_gradients,
    four_stage_init,
    grad_check,
    loss_ce,
    loss_dice,
    loss_sse,
    train,
)

LAMBDA_GRID = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
N_SEEDS = 10
BANANA_LR = 0.2
BANANA_EPOCHS = 100


def check(num, label, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    assert ok, f"criterion {num}: {label} {detail}"


@pytest.fixture(scope="session")
def banana_data():
    return {
        "train": gen_half_moons(300, 0.1, seed=123),
        "test": gen_half_moons(1000, 0.1, seed=456),
        "ood": gen_ood_class(300, seed=789),
    }


def _train_banana(kind, lam, seed, data):
    train_ds = data["train"]
    layer = make_layer(kind, 6, 2, 2, seed, (train_ds.points, train_ds.labels))
    model = EvidentialModel(kind, layer)
    cfg = TrainConfig(epochs=BANANA_EPOCHS, learning_rate=BANANA_LR, lam=lam,
                      loss_kind=LAYERS[kind].losses[0], seed=seed)
    model, _ = train(model, train_ds, cfg)
    return model


@pytest.fixture(scope="session")
def lambda_sweep(banana_data):
    """All (model kind, lambda, seed) runs; trained models kept for lam = 1e-3."""
    t0 = time.monotonic()
    results = {}
    models = {}
    for kind in ("enn", "rbf"):
        for lam in LAMBDA_GRID:
            for seed in range(N_SEEDS):
                model = _train_banana(kind, lam, seed, banana_data)
                err = error_rate(model.predict(banana_data["test"].points),
                                 banana_data["test"].labels)
                ign_test = mean_ignorance(model.masses(banana_data["test"].points))
                ign_ood = mean_ignorance(model.masses(banana_data["ood"].points))
                results[(kind, lam, seed)] = (err, ign_test, ign_ood)
                if lam == 1e-3:
                    models[(kind, seed)] = model
    return {"results": results, "models": models, "elapsed": time.monotonic() - t0}


def random_mass(frame, rng, max_focals=5):
    n_focal = rng.integers(1, max_focals + 1)
    subsets = rng.integers(1, frame.full_set + 1, size=n_focal)
    weights = rng.uniform(0.05, 1.0, size=n_focal)
    return dst.make_mass(frame, list(zip(subsets.tolist(), weights.tolist())))


def test_criterion_01_combination_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for k in (2, 3, 4):
        frame = dst.Frame(k)
        rng = np.random.default_rng(1000 + k)
        for _ in range(200):
            m1, m2 = random_mass(frame, rng), random_mass(frame, rng)
            n = 1 << k
            dense1, dense2 = np.zeros(n), np.zeros(n)
            for a, v in m1.masses.items():
                dense1[a] = v
            for a, v in m2.masses.items():
                dense2[a] = v
            expected = np.zeros(n)
            kappa = 0.0
            for a in range(n):
                for b in range(n):
                    prod = dense1[a] * dense2[b]
                    if prod == 0.0:
                        continue
                    if a & b == 0:
                        kappa += prod
                    else:
                        expected[a & b] += prod
            if kappa >= 1.0 - 1e-12:
                with pytest.raises(TotalConflict):
                    dst.combine_dempster(m1, m2)
                continue
            expected /= 1.0 - kappa
            got = np.zeros(n)
            for a, v in dst.combine_dempster(m1, m2).masses.items():
                got[a] = v
            worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.monotonic() - t0
    check(1, "combination matches exhaustive subset-pair enumeration",
          worst < 1e-12 and elapsed < 5.0,
          f"(max diff {worst:.2e}, {elapsed:.2f}s over 600 pairs)")


def test_criterion_02_weight_additivity():
    rng = np.random.default_rng(2024)
    frame = dst.Frame(3)
    worst = 0.0
    for _ in range(100):
        focal = int(rng.integers(1, frame.full_set))
        w1, w2 = rng.uniform(0.0, 10.0, size=2)
        lhs = dst.combine_dempster(
            dst.expand_simple(dst.WeightedSimpleMass(frame, focal, w1)),
            dst.expand_simple(dst.WeightedSimpleMass(frame, focal, w2)),
        )
        rhs = dst.expand_simple(dst.WeightedSimpleMass(frame, focal, w1 + w2))
        for a in set(lhs.focal_sets()) | set(rhs.focal_sets()):
            worst = max(worst, abs(lhs[a] - rhs[a]))
    check(2, "combining simple masses adds their evidence weights",
          worst < 1e-12, f"(max diff {worst:.2e} over 100 cases)")


def test_criterion_03_latent_mass_and_logistic_identities():
    frame = dst.Frame(2)
    rng = np.random.default_rng(33)
    worst_mass = worst_p1 = 0.0
    for _ in range(1000):
        n_proto = int(rng.integers(1, 6))
        params = rbf_from_constrained(
            rng.standard_normal((n_proto, 2)),
            rng.uniform(0.05, 3.0, size=n_proto),
            2.0 * rng.standard_normal(n_proto),
        )
        x = rng.standard_normal(2)
        mass, out = rbf_forward_batch(params, x[None])
        combined = dst.combine_dempster(
            dst.expand_simple(dst.WeightedSimpleMass(frame, 0b01, float(out["wp"][0]))),
            dst.expand_simple(dst.WeightedSimpleMass(frame, 0b10, float(out["wm"][0]))),
        )
        oracle = np.array([combined[0b01], combined[0b10], combined[0b11]])
        worst_mass = max(worst_mass, float(np.max(np.abs(mass[0] - oracle))))
        z = float(np.sum(params.v * np.exp(-params.gamma * ((x - params.proto) ** 2).sum(axis=1))))
        worst_p1 = max(worst_p1, abs(out["p1"][0] - 1.0 / (1.0 + np.exp(-z))))
    check(3, "latent combined mass and logistic plausibility identities",
          worst_mass < 1e-12 and worst_p1 < 1e-12,
          f"(mass diff {worst_mass:.2e}, p1 diff {worst_p1:.2e}, 1000 configs)")


def test_criterion_04_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(44)
    worst = {"feature-net composite": 0.0, "membership layer": 0.0,
             "evidence-weight layer": 0.0, "overlap loss path": 0.0,
             "loss gradients": 0.0}

    for i in range(100):
        # composite: feature net into the membership layer with the squared loss
        ds = gen_half_moons(8, 0.1, seed=9000 + i)
        net = mlp_init([2, 6, 2], seed=i)
        layer = enn_init_random(3, 2, 2, seed=i)
        layer.log_gamma[...] = np.log(rng.uniform(0.3, 2.0, 3))
        model = EvidentialModel("enn", layer, net)
        cfg = TrainConfig(epochs=1, loss_kind="sse", lam=1e-3)
        worst["feature-net composite"] = max(
            worst["feature-net composite"], grad_check(model, ds.points, ds.labels, cfg))

        # membership layer alone
        layer = enn_init_random(3, 2, 2, seed=500 + i)
        layer.proto[...] = rng.standard_normal((3, 2))
        layer.log_gamma[...] = np.log(rng.uniform(0.3, 2.0, 3))
        model = EvidentialModel("enn", layer)
        worst["membership layer"] = max(
            worst["membership layer"], grad_check(model, ds.points, ds.labels, cfg))

    done = 0
    seed = 0
    while done < 100:
        seed += 1
        ds = gen_half_moons(8, 0.1, seed=7000 + seed)
        layer = rbf_init_random(3, 2, seed=seed)
        layer.log_gamma[...] = np.log(rng.uniform(0.3, 2.0, 3))
        layer.v[...] = 2.0 * rng.standard_normal(3)
        model = EvidentialModel("rbf", layer)
        w = np.exp(-layer.gamma * ((ds.points[:, None] - layer.proto[None]) ** 2).sum(2)) * layer.v
        if np.min(np.abs(w)) <= 1e-3:  # keep away from the positive/negative-part kinks
            continue
        cfg = TrainConfig(epochs=1, loss_kind="cross-entropy", lam=1e-3)
        worst["evidence-weight layer"] = max(
            worst["evidence-weight layer"], grad_check(model, ds.points, ds.labels, cfg))
        done += 1

    for i in range(100):
        ds = gen_half_moons(8, 0.1, seed=8000 + i)
        layer = enn_init_kmeans(ds.points, ds.labels, 2, 2, seed=i)
        model = EvidentialModel("enn", layer)
        cfg = TrainConfig(epochs=1, loss_kind="dice", lam=1e-2)
        worst["overlap loss path"] = max(
            worst["overlap loss path"],
            grad_check(model, ds.points, (ds.labels == 1).astype(float), cfg))

    for i in range(100):
        # direct loss gradients against finite differences
        p = rng.uniform(0.05, 0.95, size=(5, 2))
        y = np.eye(2)[rng.integers(0, 2, size=5)]
        _, d_p, _ = loss_sse(p, y, np.zeros(2), 0.0)
        num = fd_gradients(lambda: loss_sse(p, y, np.zeros(2), 0.0)[0], {"p": p})
        worst["loss gradients"] = max(worst["loss gradients"],
                                      grad_rel_error({"p": d_p}, num))
        p1 = rng.uniform(0.05, 0.95, size=5)
        yb = rng.integers(0, 2, size=5).astype(float)
        _, d_p1, _ = loss_ce(p1, yb, np.zeros(1), 0.0)
        num = fd_gradients(lambda: loss_ce(p1, yb, np.zeros(1), 0.0)[0], {"p": p1})
        worst["loss gradients"] = max(worst["loss gradients"],
                                      grad_rel_error({"p": d_p1}, num))
        s = rng.uniform(0.05, 0.95, size=6)
        g = rng.integers(0, 2, size=6).astype(float)
        if g.sum() == 0:
            g[0] = 1.0
        _, d_s = loss_dice(s, g)
        num = fd_gradients(lambda: loss_dice(s, g)[0], {"p": s})
        worst["loss gradients"] = max(worst["loss gradients"],
                                      grad_rel_error({"p": d_s}, num))

    elapsed = time.monotonic() - t0
    worst_overall = max(worst.values())
    check(4, "analytic gradients match central differences everywhere",
          worst_overall < 1e-4 and elapsed < 60.0,
          f"(worst {worst_overall:.2e} across {len(worst)} groups, {elapsed:.1f}s)")


def test_criterion_05_half_moon_accuracy_vs_knn(banana_data, lambda_sweep):
    baseline = error_rate(
        knn_predict(banana_data["train"].points, banana_data["train"].labels,
                    banana_data["test"].points, k=5),
        banana_data["test"].labels,
    )
    medians = {}
    for kind in ("enn", "rbf"):
        errs = sorted(lambda_sweep["results"][(kind, 1e-3, s)][0] for s in range(N_SEEDS))
        medians[kind] = (errs[N_SEEDS // 2 - 1] + errs[N_SEEDS // 2]) / 2.0
    ok = all(m <= baseline + 0.02 for m in medians.values())
    ok = ok and lambda_sweep["elapsed"] < 300.0
    check(5, "both models reach the 5-NN baseline within 0.02 (median of 10 seeds)",
          ok,
          f"(5-NN {baseline:.4f}; medians enn {medians['enn']:.4f}, rbf {medians['rbf']:.4f}; "
          f"grid time {lambda_sweep['elapsed']:.1f}s)")


def test_criterion_06_ignorance_monotone_in_lambda(lambda_sweep):
    ok = True
    details = []
    for kind in ("enn", "rbf"):
        avg = [
            np.mean([lambda_sweep["results"][(kind, lam, s)][1] for s in range(N_SEEDS)])
            for lam in LAMBDA_GRID
        ]
        ok = ok and bool(np.all(np.diff(avg) >= -1e-12))
        details.append(f"{kind}: {np.round(avg, 4).tolist()}")
    check(6, "seed-averaged ignorance is non-decreasing in the regularization weight",
          ok, "(" + "; ".join(details) + ")")


def test_criterion_07_sensitivity_ordering(lambda_sweep):
    ranges = {}
    per_seed = {}
    for kind in ("enn", "rbf"):
        avg = np.array([
            np.mean([lambda_sweep["results"][(kind, lam, s)][1] for s in range(N_SEEDS)])
            for lam in LAMBDA_GRID
        ])
        ranges[kind] = float(avg.max() - avg.min())
        per_seed[kind] = np.array([
            max(lambda_sweep["results"][(kind, lam, s)][1] for lam in LAMBDA_GRID)
            - min(lambda_sweep["results"][(kind, lam, s)][1] for lam in LAMBDA_GRID)
            for s in range(N_SEEDS)
        ])
    violations = int(np.sum(per_seed["enn"] >= per_seed["rbf"]))
    ok = ranges["enn"] < ranges["rbf"] or violations < 2
    check(7, "membership layer is less sensitive to regularization than the evidence-weight layer",
          ok,
          f"(ranges enn {ranges['enn']:.4f} < rbf {ranges['rbf']:.4f}; "
          f"per-seed violations {violations}/10)")


def test_criterion_08_ood_ignorance_gap(banana_data, lambda_sweep):
    gaps = {}
    for kind in ("enn", "rbf"):
        ign_test = np.mean([lambda_sweep["results"][(kind, 1e-3, s)][1] for s in range(N_SEEDS)])
        ign_ood = np.mean([lambda_sweep["results"][(kind, 1e-3, s)][2] for s in range(N_SEEDS)])
        gaps[kind] = ign_ood - ign_test

    far_ok = True
    for kind in ("enn", "rbf"):
        model = lambda_sweep["models"][(kind, 0)]
        layer = model.layer
        radius = 40.0 / np.sqrt(layer.gamma.min())
        center = layer.proto.mean(axis=0)
        x = center + (radius + np.abs(layer.proto - center).max() + 1.0) * np.array([1.0, 1.0])
        mass, _ = layer.forward(x[None])
        far_ok = far_ok and mass[0, -1] > 0.99

    ok = all(g >= 0.2 for g in gaps.values()) and far_ok
    check(8, "third-class inputs raise ignorance by at least 0.2; far field is vacuous",
          ok,
          f"(gaps enn {gaps['enn']:.3f}, rbf {gaps['rbf']:.3f}; far-field vacuous {far_ok})")


def test_criterion_09_overlap_loss_segmentation():
    train_tasks = [gen_toy_segmentation(64, 64, 3, seed=s) for s in (0, 1)]
    test_task = gen_toy_segmentation(64, 64, 3, seed=100)
    x_train = np.vstack([seg_task_as_samples(t)[0] for t in train_tasks])
    y_train = np.concatenate([seg_task_as_samples(t)[1] for t in train_tasks])
    x_test, _ = seg_task_as_samples(test_task)

    net = mlp_init([2, 16, 2], seed=7)
    layer = enn_init_random(6, 2, 2, seed=7)
    model = EvidentialModel("enn", layer, net)
    cfg = TrainConfig(epochs=200, learning_rate=1e-2, lam=1e-4, loss_kind="dice", seed=7)
    model, _ = train(model, (x_train, y_train), cfg)
    pred = model.predict(x_test).reshape(test_task.mask.shape)
    scores = seg_scores(pred, test_task.mask)

    rng = np.random.default_rng(91)
    identity_ok = True
    for _ in range(100):
        a = rng.integers(0, 2, size=60)
        b = rng.integers(0, 2, size=60)
        s = seg_scores(a, b)
        if s.degenerate or s.precision + s.sensitivity == 0:
            continue
        hm = 2 * s.precision * s.sensitivity / (s.precision + s.sensitivity)
        identity_ok = identity_ok and abs(s.dice - hm) < 1e-12

    ok = scores.dice >= 0.85 and identity_ok
    check(9, "overlap-trained model segments held-out images (Dice >= 0.85)",
          ok, f"(dice {scores.dice:.4f}; harmonic-mean identity {identity_ok})")


def test_criterion_10_calibration_error_bounds():
    conf = np.array([0.75] * 4 + [0.25] * 4)
    preds = np.ones(8, dtype=int)
    truth = np.array([1, 1, 1, 0, 1, 0, 0, 0])
    calibrated = ece(conf, preds, truth).ece

    adversarial = ece(np.ones(10), np.zeros(10, dtype=int), np.ones(10, dtype=int)).ece

    rng = np.random.default_rng(10)
    c = rng.uniform(size=150)
    p = rng.integers(0, 2, size=150)
    t = rng.integers(0, 2, size=150)
    base = ece(c, p, t).ece
    invariant = all(
        abs(ece(c[perm], p[perm], t[perm]).ece - base) < 1e-12
        for perm in (rng.permutation(150) for _ in range(100))
    )
    ok = calibrated == 0.0 and adversarial == 1.0 and invariant
    check(10, "calibration error hits its exact bounds and ignores sample order",
          ok, f"(calibrated {calibrated}, adversarial {adversarial}, invariant {invariant})")


def test_criterion_11_staged_vs_random_initialization(banana_data):
    train_ds = banana_data["train"]
    val_ds = gen_half_moons(200, 0.1, seed=321)
    test_ds = banana_data["test"]
    medians = {}
    for kind, loss in (("enn", "sse"), ("rbf", "cross-entropy")):
        staged_errs, random_errs = [], []
        for seed in range(5):
            cfg = TrainConfig(epochs=100, learning_rate=1e-2, lam=1e-3,
                              loss_kind=loss, seed=seed)
            arch = {"kind": kind, "n_prototypes": 6, "n_features": 2, "hidden": [16]}
            result = four_stage_init(train_ds, arch, cfg, val_ds)
            staged_errs.append(error_rate(result.model.predict(test_ds.points), test_ds.labels))

            net = mlp_init([2, 16, 2], seed=seed)
            model = EvidentialModel(kind, make_layer(kind, 6, 2, 2, seed), net)
            model, _ = train(model, train_ds, cfg, val_ds)
            random_errs.append(error_rate(model.predict(test_ds.points), test_ds.labels))
        medians[kind] = (sorted(staged_errs)[2], sorted(random_errs)[2])
    ok = all(staged <= rand for staged, rand in medians.values())
    check(11, "clustered initialization matches or beats random (median of 5 paired seeds)",
          ok,
          f"(enn {medians['enn'][0]:.3f} vs {medians['enn'][1]:.3f}; "
          f"rbf {medians['rbf'][0]:.3f} vs {medians['rbf'][1]:.3f})")

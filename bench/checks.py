"""Output checks: the closed-form layer masses against Dempster's rule in
`evidkit.dst`, applied one prototype at a time."""

from __future__ import annotations

import numpy as np

# dst prunes focal masses below 1e-15 and renormalizes, once per combination
ABS_TOL = 1e-12


def _sq_dists(model, X) -> np.ndarray:
    """(N, I) squared distances from the model's features of X to its prototypes."""
    feats = model.features(X)
    return ((feats[:, None, :] - model.layer.proto[None, :, :]) ** 2).sum(axis=2)


def dst_masses(ek, model, X) -> np.ndarray:
    """(N, K+1) masses of `model` at rows X, pooled prototype by prototype by `dst`."""
    dst = ek.dst
    layer = model.layer
    d2 = _sq_dists(model, X)
    frame = dst.Frame(model.n_classes)
    singletons = [frame.singleton(k) for k in range(model.n_classes)]
    rows = []
    if model.kind == "enn":
        s = layer.alpha * np.exp(-layer.gamma * d2)
        u = layer.memberships
        bayes = [dst.make_mass(frame, zip(singletons, u_i)) for u_i in u]
        for s_row in s:
            m = dst.vacuous(frame)
            for b, s_i in zip(bayes, s_row):
                m = dst.combine_dempster(m, dst.discount(b, float(s_i)))
            rows.append([m[a] for a in singletons] + [m[frame.full_set]])
    else:
        w = np.exp(-layer.gamma * d2) * layer.v
        for w_row in w:
            m = dst.vacuous(frame)
            for w_i in w_row:
                focal = singletons[0] if w_i > 0 else singletons[1]
                m = dst.combine_dempster(m, dst.expand_simple(dst.WeightedSimpleMass(frame, focal, abs(float(w_i)))))
            rows.append([m[a] for a in singletons] + [m[frame.full_set]])
    return np.array(rows)


def logistic_p1(model, X) -> np.ndarray:
    """sigmoid(sum_i v_i s_i), which the weight-of-evidence layer's normalized
    plausibility of the first class must equal."""
    layer = model.layer
    z = (np.exp(-layer.gamma * _sq_dists(model, X)) * layer.v).sum(axis=1)
    return 1.0 / (1.0 + np.exp(-z))


def row_problems(masses: np.ndarray) -> list[str]:
    """Masses must be finite, nonnegative, and sum to 1 per row."""
    if not np.all(np.isfinite(masses)):
        return ["non-finite mass"]
    problems = []
    if np.any(masses < 0):
        problems.append("negative mass")
    worst = float(np.max(np.abs(masses.sum(axis=1) - 1.0)))
    if worst > ABS_TOL:
        problems.append(f"row sums off by {worst:.2e}")
    return problems


def oracle_problems(ek, model, X, label: str) -> list[str]:
    """Compare `model.masses` at rows X with the dst oracle (and, for rbf, the
    logistic identity); returns a description of each disagreement."""
    got = model.masses(X)
    problems = [f"{label}: {p}" for p in row_problems(got)]
    err = float(np.max(np.abs(got - dst_masses(ek, model, X))))
    if not err <= ABS_TOL:
        problems.append(f"{label}: masses differ from dst by {err:.2e}")
    if model.kind == "rbf":
        pl1, pl2 = got[:, 0] + got[:, 2], got[:, 1] + got[:, 2]
        p_err = float(np.max(np.abs(pl1 / (pl1 + pl2) - logistic_p1(model, X))))
        if not p_err <= ABS_TOL:
            problems.append(f"{label}: normalized plausibility differs from the logistic unit by {p_err:.2e}")
    return problems


def max_rel_err(ek, model, X) -> float:
    """Largest relative error of `model.masses` against the dst oracle over the
    entries the oracle keeps (it prunes masses below 1e-15)."""
    got = model.masses(X)
    ref = dst_masses(ek, model, X)
    kept = ref > 0
    if not np.any(kept):
        return 0.0
    return float(np.max(np.abs(got[kept] - ref[kept]) / ref[kept]))

"""Evidential prototype layer: closed-form combination vs the DST core,
analytic gradients vs finite differences, initializers, invariances."""

import numpy as np
import pytest
from helpers import POOLING, far_field_inputs, fd_by_name, force_pooling, grad_rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidkit import dst, enn, numeric
from evidkit.datasets import gen_half_moons
from evidkit.enn import (
    EnnParams,
    _factor_weights,
    enn_backward_batch,
    enn_forward_batch,
    enn_from_constrained,
    enn_init_kmeans,
    enn_init_random,
)
from evidkit.errors import DimensionMismatch, StaleCache
from evidkit.model import params_from_dict, params_to_dict
from evidkit.numeric import LOG1P_EXACT, logit, sq_dists_backward, sum_log1p_neg, sum_rows
from evidkit.training import TrainConfig, fd_gradients, fit


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
    for i in range(len(params.proto)):
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


def logs_by_loop(s, w):
    """The pooling loop `sum_log1p_neg` replaced, one class at a time over
    the whole batch: the bitwise reference."""
    logs = np.empty((len(w), s.shape[1]))
    t = np.empty_like(s)
    with np.errstate(divide="ignore"):
        for c, neg_w_c in enumerate(-w):
            logs[c] = sum_rows(np.log1p(np.multiply(s, neg_w_c[:, None], out=t), out=t))
    return logs


EDGE_S = (0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-200, np.nextafter(LOG1P_EXACT, 0.0), LOG1P_EXACT,
          np.nextafter(LOG1P_EXACT, 1.0), 2.0 * LOG1P_EXACT, 0.5, 1.0)
SIZES = [(n, i) for n in (1, 2, 7, 300, 12500) for i in (1, 6, 256)]


@pytest.mark.parametrize("n, n_proto", SIZES)
def test_pooled_logs_are_the_per_class_loop(n, n_proto, monkeypatch):
    rng = np.random.default_rng(n + n_proto)
    s = np.exp(rng.uniform(np.log(1e-308), 0.0, (n_proto, n)))  # log-uniform
    edge = rng.random(s.shape) < 0.3
    s[edge] = rng.choice(EDGE_S, size=edge.sum())
    u = rng.dirichlet(np.ones(3), n_proto)
    u[::2] = np.eye(3)[rng.integers(3, size=u[::2].shape[0])]  # w in {0, 1}: s = 1 gives log1p(-1) = -inf
    w = _factor_weights(u)
    want = logs_by_loop(s, w)
    big = np.maximum(s, LOG1P_EXACT)  # no tiny lane
    with np.errstate(divide="ignore"):
        for regime in (None, *POOLING):  # the rule, then each regime forced
            force_pooling(monkeypatch, regime)
            assert sum_log1p_neg(s, w).tobytes() == want.tobytes()
            assert sum_log1p_neg(big, w).tobytes() == logs_by_loop(big, w).tobytes()
    assert (n_proto * n < 40 or np.isneginf(want).any()) and (s < LOG1P_EXACT).any()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda i: st.tuples(
    arrays(float, st.tuples(st.just(i), st.integers(1, 20)),
           elements=st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_S))),
    arrays(float, (i, 3), elements=st.floats(0.0, 1.0)))))
def test_pooled_logs_are_the_per_class_loop_for_any_activations(case):
    s, u = case
    w = _factor_weights(u)  # 1 - u for u in [0, 1]: 0 or at least 2**-53
    for regime in ("rescaled", "sparse"):
        with np.errstate(divide="ignore"), pytest.MonkeyPatch.context() as mp:
            force_pooling(mp, regime)
            assert sum_log1p_neg(s, w).tobytes() == logs_by_loop(s, w).tobytes()


def far_field_case(n, n_proto, seed):
    """Parameters and `far_field_inputs` with every kind of activation: a
    reliability of 1 at membership (1, 0, 0) and an input on its prototype,
    and subnormal reliabilities, whose products are subnormal too."""
    rng = np.random.default_rng(seed)
    proto = rng.standard_normal((n_proto, 2))
    alpha = rng.uniform(0.1, 0.9, n_proto)
    alpha[0], alpha[1::3] = 1.0, 1e-310
    u = rng.dirichlet(np.ones(3), n_proto)
    u[0] = [1.0, 0.0, 0.0]
    gamma = rng.uniform(0.5, 2.0, n_proto)
    X = far_field_inputs(rng, proto, gamma, n)
    X[0] = proto[0]
    return enn_from_constrained(proto, alpha, gamma, u), X


# each case by the RESCALE_MIN it runs at, or by the regime it forces
BY_RULE_OR_FORCED = [pytest.param("rescaled", id="-inf"), pytest.param(None, id=str(numeric.RESCALE_MIN)), "sparse"]


@pytest.mark.parametrize("regime", BY_RULE_OR_FORCED)
@pytest.mark.parametrize("n, n_proto", SIZES)
def test_forward_is_the_per_class_loop(n, n_proto, regime, monkeypatch):
    params, X = far_field_case(n, n_proto, seed=n * n_proto)
    force_pooling(monkeypatch, regime)
    got = {keep: enn_forward_batch(params, X, keep) for keep in (True, False)}
    monkeypatch.setattr(enn, "sum_log1p_neg", logs_by_loop)
    for keep, (mass, cache) in got.items():
        want, want_cache = enn_forward_batch(params, X, keep)
        assert mass.tobytes() == want.tobytes()
        assert cache.keys() == want_cache.keys()
        if keep:
            assert cache["total"].tobytes() == want_cache["total"].tobytes()
    s = got[True][1]["s"]
    assert (n < 7 or (s < LOG1P_EXACT).any()) and (n_proto < 2 or ((s > 0) & (s < np.finfo(float).tiny)).any())


def spy_pooling(monkeypatch, taken):
    """Append each pooling kernel's regime to `taken` as it runs: `_sum_sparse`
    without indexes is the plain one."""
    monkeypatch.setattr(numeric, "_sum_rescaled",
                        lambda s, w, pool=numeric._sum_rescaled: taken.append("rescaled") or pool(s, w))
    monkeypatch.setattr(numeric, "_sum_sparse", lambda s, w, big=None, pool=numeric._sum_sparse:
                        taken.append("plain" if big is None else "sparse") or pool(s, w, big))


def test_the_rule_picks_sparse_far_out_rescaled_when_mixed_plain_in_training(monkeypatch):
    taken = []
    spy_pooling(monkeypatch, taken)
    rng = np.random.default_rng(5)
    for (n, n_proto, dim), regime in [((250, 256, 64), "sparse"), ((12500, 6, 2), "rescaled")]:
        proto, gamma = rng.standard_normal((n_proto, dim)), rng.uniform(0.5, 2.0, n_proto)
        params = enn_from_constrained(proto, rng.uniform(0.1, 0.9, n_proto), gamma, rng.dirichlet(np.ones(2), n_proto))
        enn_forward_batch(params, far_field_inputs(rng, proto, gamma, n), False)  # the benchmark's far-field rows
        assert taken == [regime]
        taken.clear()
    ds = gen_half_moons(300, 0.1, seed=3)
    fit("enn", "kmeans", 6, (ds.points, ds.labels), TrainConfig(epochs=25, learning_rate=1e-2))
    assert set(taken) == {"plain"}



@pytest.mark.parametrize("n, n_proto, dim, regime", [(250, 256, 64, "sparse"), (12500, 6, 2, "rescaled")])
def test_the_training_forward_pools_plainly_without_counting(n, n_proto, dim, regime, monkeypatch):
    taken = []
    spy_pooling(monkeypatch, taken)
    monkeypatch.setattr(enn, "sum_log1p_neg", lambda *a, f=enn.sum_log1p_neg: taken.append("sum_log1p_neg") or f(*a))
    rng = np.random.default_rng(n)
    proto, gamma = rng.standard_normal((n_proto, dim)), rng.uniform(0.5, 2.0, n_proto)
    params = enn_from_constrained(proto, rng.uniform(0.1, 0.9, n_proto), gamma, rng.dirichlet(np.ones(2), n_proto))
    X = far_field_inputs(rng, proto, gamma, n)  # the benchmark's far-field rows
    trained = enn_forward_batch(params, X, True)[0]
    assert taken == ["plain"]
    inferred = enn_forward_batch(params, X, False)[0]
    assert taken == ["plain", "sum_log1p_neg", regime]
    assert trained.tobytes() == inferred.tobytes()


def per_class_backward(params, cache, upstream):
    """`enn_backward_batch` with the Dempster factors taken one class at a
    time, the reference for the stacked (K+1, I, N) form."""
    alpha, gamma, u, w = cache["alpha"], cache["gamma"], cache["u"], cache["w"]
    s, d2, mass, total = cache["s"], cache["d2"], cache["mass"].T, cache["total"]
    k = params.n_classes
    upstream = upstream.T
    d_pq = (upstream - np.sum(upstream * mass, axis=0)) / total
    d_pq[k] -= d_pq[:k].sum(axis=0)
    pq = mass * total
    pq[:k] += pq[k]

    d_s = np.zeros_like(s)
    d_u = np.empty((k + 1, s.shape[0]))
    d_t = np.empty_like(s)
    for c, w_c in enumerate(w):
        w_c = w_c[:, None]
        np.subtract(1.0, np.multiply(s, w_c, out=d_t), out=d_t)
        np.divide(pq[c], d_t, out=d_t, where=d_t > 0)
        d_t *= d_pq[c]
        d_u[c] = np.einsum("in,in->i", d_t, s)
        d_t *= w_c
        d_s -= d_t
    d_u = d_u[:k].T

    d_ss = d_s * s
    d_x, d_proto = sq_dists_backward(d_ss * -gamma[:, None], cache["Xc"], cache["Pc"])
    return {
        "proto": d_proto,
        "alpha_raw": d_ss.sum(axis=1) * (1.0 - alpha),
        "log_gamma": -np.einsum("in,in->i", d_ss, d2) * gamma,
        "u_logit": u * (d_u - np.sum(d_u * u, axis=1, keepdims=True)),
    }, d_x


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

            numeric = fd_by_name(loss, arrays)
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

            fd = fd_gradients(loss, p.alpha_raw)
            for i in range(3):
                if abs(fd[i]) > 1e-7:
                    assert np.sign(grads["alpha_raw"][i]) == np.sign(fd[i])
                    checked += 1
        assert checked > 50

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("n_rows", [1, 7])
    # with every alpha below 1 no t is 0, and the backward masks no lane
    @pytest.mark.parametrize("n_proto, alpha0", [pytest.param(n, a, id=f"{n}{tag}")
                                                 for a, tag in [(1.0, ""), (0.999, "-alpha<1")] for n in (1, 5)])
    def test_stacked_factors_are_the_per_class_loop_bit_for_bit(self, n_classes, n_rows, n_proto, alpha0):
        rng = np.random.default_rng(10 + n_classes + n_rows + n_proto)
        u = rng.uniform(0.05, 1.0, size=(n_proto, n_classes))
        u[0, 0] = 0.0  # with alpha = 1 and a row on it, prototype 0 zeroes a factor
        u /= u.sum(axis=1, keepdims=True)
        # the last prototype is out of every row's reach: its activations are 0
        proto = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [50.0, 50.0]])[:n_proto]
        alpha, gamma = [alpha0, 0.3, 0.7, 0.9, 0.6][:n_proto], [0.5, 1.0, 2.0, 0.2, 2.0][:n_proto]
        params = enn_from_constrained(proto, alpha, gamma, u)
        X = np.vstack([proto[:1], rng.standard_normal((n_rows - 1, 2))])
        _, cache = enn_forward_batch(params, X)
        t = 1.0 - cache["s"] * cache["w"][:, :, None]
        if alpha0 == 1.0:
            assert (t == 0.0).any() and (t > 0.0).any()
        else:
            assert np.all(cache["alpha"] < 1.0) and np.all(t > 0.0)
        upstream = rng.standard_normal((n_rows, n_classes + 1))

        want, want_x = per_class_backward(params, cache, upstream)  # first: the backward spends the cache
        grads, d_x = enn_backward_batch(params, cache, upstream)
        assert d_x.tobytes() == want_x.tobytes()
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("alpha0", [1.0, 0.5])
    def test_without_input_grad_the_parameter_grads_are_the_same_bits(self, alpha0):
        rng = np.random.default_rng(3)
        p = random_params(rng, n_proto=4)
        p.alpha_raw[0] = logit(alpha0)
        X, upstream = rng.standard_normal((9, 2)), rng.standard_normal((9, 3))
        want, d_x = enn_backward_batch(p, enn_forward_batch(p, X)[1], upstream)
        grads, none = enn_backward_batch(p, enn_forward_batch(p, X)[1], upstream, None, False)
        assert d_x.shape == (9, 2) and none is None
        assert grads.keys() == want.keys()
        for name, g in want.items():
            assert grads[name].tobytes() == g.tobytes(), name

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(1)
        p1, p2 = random_params(rng), random_params(rng)
        _, cache = enn_forward_batch(p1, rng.standard_normal((1, 2)))
        with pytest.raises(StaleCache):
            enn_backward_batch(p2, cache, np.zeros((1, 3)))

    def test_a_spent_cache_is_refused(self):
        rng = np.random.default_rng(2)
        p = random_params(rng)
        _, cache = enn_forward_batch(p, rng.standard_normal((5, 2)))
        enn_backward_batch(p, cache, np.ones((5, 3)))
        with pytest.raises(StaleCache):
            enn_backward_batch(p, cache, np.ones((5, 3)))


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
        q = params_from_dict(EnnParams, params_to_dict(p))
        np.testing.assert_allclose(q.proto, p.proto, atol=1e-15)
        np.testing.assert_allclose(q.alpha, p.alpha, atol=1e-12)
        np.testing.assert_allclose(q.gamma, p.gamma, rtol=1e-12)
        np.testing.assert_allclose(q.memberships, p.memberships, atol=1e-12)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(mass_of(q, x), mass_of(p, x), atol=1e-12)

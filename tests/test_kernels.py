"""The shared distance kernel and the log-domain pooling of both layers:
exact oracles at extreme activations and evidence weights, many prototypes,
translation invariance, O(N*I) caches, and gradients at H > 2."""

import decimal
from decimal import Decimal
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from helpers import grad_rel_error

from evidkit.enn import enn_backward_batch, enn_forward_batch, enn_from_constrained
from evidkit.errors import TotalConflict
from evidkit.model import EvidentialModel
from evidkit.rbf import rbf_forward_batch, rbf_from_constrained
from evidkit.training import TrainConfig, fd_gradients, grad_check

S_VALUES = (0.0, 1e-300, 1e-12, 1.0 - 1e-12, 1.0)


def exact_enn_masses(s, u):
    """Masses of one row by the closed-form Dempster product in exact
    rationals: mass_k ~ prod_i (1 - s_i (1 - u_ik)) - prod_i (1 - s_i) and
    mass_Om ~ prod_i (1 - s_i).  None when the evidence is in total conflict."""
    s = [Fraction(x) for x in s]
    u = [[Fraction(x) for x in row] for row in u]
    frame = prod(1 - s_i for s_i in s)
    singles = [prod(1 - s_i * (1 - row[k]) for s_i, row in zip(s, u)) - frame for k in range(len(u[0]))]
    total = sum(singles) + frame
    return None if total == 0 else [m / total for m in singles + [frame]]


def activation_cases(rng):
    """(activations, memberships) rows: each S_VALUE on all prototypes, then
    random mixtures of them, for I in (1, 6, 200) and K in (2, 3)."""
    for n_proto in (1, 6, 200):
        for n_classes in (2, 3):
            u = rng.dirichlet(np.ones(n_classes), n_proto)
            for value in S_VALUES:
                yield np.full(n_proto, value), u
            for _ in range(4):
                yield rng.choice(S_VALUES, size=n_proto), u


def layer_at_activations(alpha, u):
    """An enn layer whose prototypes all sit at the origin of a 1-d feature
    space, so the input 0 activates prototype i with s_i = params.alpha[i]
    exactly (which is `alpha` up to the logit/sigmoid round trip)."""
    return enn_from_constrained(np.zeros((len(alpha), 1)), alpha, np.ones(len(alpha)), u)


class TestExactRationalOracle:
    def test_singletons_match_to_relative_1e12(self):
        rng = np.random.default_rng(40)
        checked = conflicts = 0
        for alpha, u in activation_cases(rng):
            params = layer_at_activations(alpha, u)
            exact = exact_enn_masses(params.alpha, params.memberships)
            if exact is None:
                with pytest.raises(TotalConflict):
                    enn_forward_batch(params, np.zeros((1, 1)))
                conflicts += 1
                continue
            mass, cache = enn_forward_batch(params, np.zeros((1, 1)))
            assert np.array_equal(cache["s"][0], params.alpha)  # the oracle saw the layer's own activations
            for got, want in zip(mass[0], exact):
                if want >= Fraction(1e-300):
                    assert abs(Fraction(got) - want) <= Fraction(1e-12) * want, (alpha, got, float(want))
                    checked += 1
        assert checked > 100
        assert conflicts == 0  # Dirichlet memberships are positive: no class is ever excluded

    def test_far_inputs_keep_their_digits(self):
        # s ~ 3e-11 on every prototype: the product form loses ~6e-4 of the singletons here
        u = np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        params = enn_from_constrained(np.zeros((3, 1)), np.full(3, 0.5), np.full(3, 0.1), u)
        x = np.array([[np.sqrt(-np.log(6e-11) / 0.1)]])
        mass, cache = enn_forward_batch(params, x)
        assert 1e-11 < cache["s"][0, 0] < 1e-10
        exact = exact_enn_masses(cache["s"][0], params.memberships)
        for got, want in zip(mass[0], exact):
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * want

    def test_total_conflict_only_when_every_class_is_excluded(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TotalConflict):
            enn_forward_batch(layer_at_activations(np.ones(2), u), np.zeros((1, 1)))
        # one class excluded, the other only nearly so: all mass on the survivor
        mass, _ = enn_forward_batch(layer_at_activations(np.array([1.0, 1.0 - 1e-12]), u), np.zeros((1, 1)))
        np.testing.assert_array_equal(mass[0], [1.0, 0.0, 0.0])


W_VALUES = (0.0, 1e-300, 1e-12, 1e-3, 1.0, 30.0, 700.0, 745.0, 800.0, 1e6)
# exp(-1e-300) has ~300 nines before the digits that 1 - exp(-1e-300) keeps
EXACT = decimal.Context(prec=450, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def exact_rbf_masses(wp, wm):
    """Masses of the weight-of-evidence combination at totals (w+, w-), in
    450-digit decimals: (1 - e^-w+) e^-w-, (1 - e^-w-) e^-w+ and e^-(w+ + w-),
    each over 1 - kappa = e^-w+ + e^-w- - e^-(w+ + w-)."""
    with decimal.localcontext(EXACT):
        ep, em = Decimal(-wp).exp(), Decimal(-wm).exp()
        frame = ep * em
        denom = ep + em - frame
        return [m / denom for m in ((1 - ep) * em, (1 - em) * ep, frame)]


def test_rbf_masses_match_a_450_digit_oracle():
    # two prototypes at the origin with gamma = 1 and v = (w+, -w-): the input 0
    # is at distance 0 from both, so the pooled totals are exactly w+ and w-
    checked = 0
    for wp in W_VALUES:
        for wm in W_VALUES:
            params = rbf_from_constrained(np.zeros((2, 1)), np.ones(2), np.array([wp, -wm]))
            mass, cache = rbf_forward_batch(params, np.zeros((1, 1)))
            assert np.all(cache["d2"] == 0.0)
            assert (cache["wp"][0], cache["wm"][0]) == (wp, wm)
            for got, want in zip(mass[0], exact_rbf_masses(wp, wm)):
                err = abs(Decimal(float(got)) - want)
                if want >= Decimal(1e-300):
                    assert err <= Decimal("1e-12") * want, (wp, wm, float(got), want)
                    checked += 1
                else:
                    assert err <= Decimal(1e-300), (wp, wm, float(got), want)
    assert checked > 150, checked


class TestManyPrototypes:
    """I = 1500 prototypes of reliability 0.9 around the inputs: the products
    of the 1500 discounting factors underflow, the pooled masses do not."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(41)
        n = 1500
        params = enn_from_constrained(
            rng.standard_normal((n, 2)), np.full(n, 0.9), np.full(n, 0.01), rng.dirichlet(np.ones(2), n)
        )
        return params, 0.1 * rng.standard_normal((4, 2)), rng.standard_normal((4, 3))

    def test_masses_are_normalized_and_exact(self, case):
        params, X, _ = case
        mass, cache = enn_forward_batch(params, X)
        assert np.all(mass >= 0)
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, atol=1e-12)
        exact = exact_enn_masses(cache["s"][0], params.memberships)
        for got, want in zip(mass[0], exact):
            if want >= Fraction(1e-300):
                assert abs(Fraction(got) - want) <= Fraction(1e-12) * want

    def test_backward_is_finite_and_matches_finite_differences(self, case):
        params, X, upstream = case
        X = X.copy()
        _, cache = enn_forward_batch(params, X)
        grads, d_x = enn_backward_batch(params, cache, upstream)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        numeric = fd_gradients(lambda: float(np.sum(upstream * enn_forward_batch(params, X)[0])), {"x": X})
        assert np.linalg.norm(d_x) > 0
        assert grad_rel_error({"x": d_x}, numeric) < 1e-6


def random_enn(rng, n_proto, n_feat, n_classes=3):
    return enn_from_constrained(
        rng.standard_normal((n_proto, n_feat)),
        rng.uniform(0.1, 0.9, n_proto),
        rng.uniform(0.05, 0.5, n_proto),
        rng.dirichlet(np.ones(n_classes), n_proto),
    )


def random_rbf(rng, n_proto, n_feat, n_classes=2):
    """A weight-of-evidence layer; the frame is binary whatever `n_classes` says."""
    return rbf_from_constrained(rng.standard_normal((n_proto, n_feat)), rng.uniform(0.05, 0.5, n_proto),
                                rng.standard_normal(n_proto))


LAYERS = {"enn": (random_enn, enn_forward_batch), "rbf": (random_rbf, rbf_forward_batch)}


@pytest.mark.parametrize("kind", list(LAYERS))
def test_translation_invariance(kind):
    make, forward = LAYERS[kind]
    rng = np.random.default_rng(42)
    params = make(rng, 5, 3)
    X = rng.standard_normal((20, 3))
    before = forward(params, X)[0]
    params.proto += 1e3
    after = forward(params, X + 1e3)[0]
    np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", list(LAYERS))
def test_forward_cache_holds_no_per_feature_array(kind):
    make, forward = LAYERS[kind]
    n, i, h = 40, 32, 16
    rng = np.random.default_rng(43)
    _, cache = forward(make(rng, i, h), rng.standard_normal((n, h)))
    sizes = {name: v.size for name, v in cache.items() if isinstance(v, np.ndarray)}
    assert max(sizes.values()) <= n * i, sizes


@pytest.mark.parametrize("kind,loss", [("enn", "sse"), ("enn", "dice"),
                                       ("rbf", "cross-entropy"), ("rbf", "dice")])
def test_gradients_at_seven_prototypes_in_five_dimensions(kind, loss):
    make, _ = LAYERS[kind]
    rng = np.random.default_rng(44)
    n_classes = 2 if loss == "dice" or kind == "rbf" else 3
    layer = make(rng, 7, 5, n_classes)
    X = rng.standard_normal((12, 5))
    y = rng.integers(0, n_classes, size=12)
    assert grad_check(EvidentialModel(kind, layer), X, y, TrainConfig(loss_kind=loss, lam=1e-3)) < 1e-4

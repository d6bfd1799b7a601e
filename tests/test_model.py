"""The composite model and the layer protocol: construction, kind checks,
input validation, checkpoints, and the shared objective."""

import numpy as np
import pytest
from helpers import POOLING, far_field_inputs, far_inputs, fd_by_name, force_pooling, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit import enn, mlp, numeric, rbf
from evidkit.datasets import gen_half_moons
from evidkit.enn import enn_forward_batch, enn_from_constrained, enn_init_random
from evidkit.errors import DimensionMismatch, Empty, MalformedInput, OutOfRange, TotalConflict
from evidkit.mlp import head_init, mlp_init
from evidkit.model import LAYERS, EvidentialModel, class_count, decide, make_layer
from evidkit.rbf import rbf_forward_batch, rbf_from_constrained, rbf_init_random
from evidkit.training import TrainConfig, _evaluate, _fit_set, model_loss_and_grads, train

KINDS = list(LAYERS)


@pytest.fixture(scope="module")
def moons():
    return gen_half_moons(40, 0.1, seed=3)


class TestMakeLayer:
    @pytest.mark.parametrize("kind", KINDS)
    def test_random_and_kmeans_layers(self, kind, moons):
        random = make_layer(kind, 4, 2, 2, seed=1)
        clustered = make_layer(kind, 4, 2, 2, seed=1, data=(moons.points, moons.labels))
        for layer in (random, clustered):
            assert isinstance(layer, LAYERS[kind]) and layer.kind == kind
            assert layer.proto.shape[0] == 4 and layer.n_features == 2 and layer.n_classes == 2
        assert not np.array_equal(random.proto, clustered.proto)

    def test_enn_class_count(self):
        assert make_layer("enn", 3, 2, 4, seed=0).n_classes == 4

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            make_layer("svm", 3, 2, 2, seed=0)

    def test_class_count_is_at_least_two(self):
        assert class_count(np.zeros(5, dtype=int)) == 2
        assert class_count(np.array([0, 2, 1])) == 3

    def test_class_count_of_no_labels(self):
        with pytest.raises(Empty):
            class_count(np.zeros(0, dtype=int))

    def test_class_count_rejects_negative_labels(self):
        with pytest.raises(OutOfRange):
            class_count(np.array([0, -1, 1]))


class TestKindCheck:
    def test_layer_of_the_other_kind(self):
        with pytest.raises(OutOfRange):
            EvidentialModel("rbf", enn_init_random(3, 2, 2, seed=0))
        with pytest.raises(OutOfRange):
            EvidentialModel("enn", rbf_init_random(3, 2, seed=0))

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            EvidentialModel("svm", enn_init_random(3, 2, 2, seed=0))

    def test_the_pretraining_head_has_no_checkpoint(self):
        # the head is not in LAYERS: a model under it cannot reload
        data = EvidentialModel("head", head_init(2, 2, seed=0), mlp_init([2, 4, 2], seed=0)).to_dict()
        with pytest.raises(MalformedInput, match="unknown model 'head'"):
            EvidentialModel.from_dict(data)

    def test_feature_net_width_must_match_the_layer(self):
        with pytest.raises(DimensionMismatch):
            EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0), mlp_init([2, 4, 3], seed=0))


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("with_net", [False, True])
    def test_non_finite_rows_rejected(self, bad, with_net):
        net = mlp_init([2, 4, 2], seed=0) if with_net else None
        model = EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0), net)

        def train_step(X):  # the checked way into the cached forward, `forward_checked`
            return model_loss_and_grads(model, X, [0], TrainConfig())

        for call in (model.predict, model.masses, train_step):
            with pytest.raises(MalformedInput):
                call([[bad, 0.0]])
        assert model.predict([[0.0, 0.0]]).shape == (1,)

    def test_dimension_checked_at_the_boundary(self):
        model = EvidentialModel("rbf", rbf_init_random(3, 2, seed=0), mlp_init([3, 4, 2], seed=0))
        with pytest.raises(DimensionMismatch):
            model.masses(np.zeros((2, 2)))
        assert model.masses(np.zeros(3)).shape == (1, 3)


class TestProtocol:
    @pytest.mark.parametrize("kind, batch_forward", [("enn", enn_forward_batch), ("rbf", rbf_forward_batch)])
    def test_forward_is_the_batch_function(self, kind, batch_forward, moons):
        layer = make_layer(kind, 4, 2, 2, seed=2)
        np.testing.assert_array_equal(layer.forward(moons.points)[0], batch_forward(layer, moons.points)[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_regularizer_gradient(self, kind):
        layer = make_layer(kind, 4, 2, 2, seed=5)

        def regularizer():
            return layer.regularizer(layer.forward(np.zeros((1, 2)))[1])

        value, grads = regularizer()
        numeric = fd_by_name(lambda: regularizer()[0], {name: layer.trainable_arrays()[name] for name in grads})
        for name, g in grads.items():
            np.testing.assert_allclose(g, numeric[name], atol=1e-8)
        assert value > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoint_round_trip(self, kind, moons, tmp_path):
        model = EvidentialModel(kind, make_layer(kind, 3, 2, 2, seed=4), mlp_init([2, 5, 2], seed=4))
        model.save(tmp_path / "m.json")
        back = EvidentialModel.load(tmp_path / "m.json")
        assert back.kind == kind and back.n_classes == model.n_classes
        np.testing.assert_allclose(back.masses(moons.points), model.masses(moons.points), atol=1e-12)


# saturated and infinite unconstrained values: alpha_raw = 40 is alpha = 1 in
# floating point, +-inf is what logit gives for alpha = 1 and alpha = 0
EXTREMES = {"enn": ("alpha_raw", [40.0, np.inf, -np.inf, -0.0]), "rbf": ("v", [40.0, -0.0, 5e-324, -1e300])}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("hidden", [[5], []])
def test_checkpoint_is_bit_exact(kind, hidden, tmp_path):
    model = EvidentialModel(kind, make_layer(kind, 4, 3, 2, seed=7), mlp_init([2, *hidden, 3], seed=7))
    name, values = EXTREMES[kind]
    model.layer.trainable_arrays()[name][:] = values
    model.save(tmp_path / "m.json")
    back = EvidentialModel.load(tmp_path / "m.json").trainable_arrays()
    arrays = model.trainable_arrays()
    assert back.keys() == arrays.keys()
    for key, arr in arrays.items():
        assert np.array_equal(back[key], arr) and back[key].tobytes() == arr.tobytes(), key


@pytest.mark.parametrize("kind, loss", [("enn", "sse"), ("enn", "dice"), ("rbf", "cross-entropy"),
                                        ("rbf", "dice")])
def test_training_and_evaluation_share_the_objective(kind, loss, moons):
    model = EvidentialModel(kind, make_layer(kind, 4, 2, 2, seed=6, data=(moons.points, moons.labels)))
    config = TrainConfig(loss_kind=loss, lam=0.3)
    value, _, masses = model_loss_and_grads(model, moons.points, moons.labels, config)
    fit_set = _fit_set(model, moons, config)
    eval_value, err = _evaluate(model, fit_set, config)
    assert eval_value == value
    if loss == "cross-entropy":  # the K-class target of the one cross-entropy: one-hot rows
        assert fit_set.target.tobytes() == np.eye(2)[moons.labels].tobytes()
    assert err == np.mean(np.argmax(masses[:, :-1], axis=1) != moons.labels)


class TestClassMajorLayout:
    """The layers' masses are (N, K+1) views of class-major (K+1, N) arrays;
    training hands the layer its mass-space gradient in the same layout,
    and asks each backward only for the gradients the fit reads."""

    @pytest.mark.parametrize("kind, loss", [("enn", "sse"), ("enn", "dice"), ("rbf", "cross-entropy"),
                                            ("rbf", "dice")])
    @pytest.mark.parametrize("hidden", [None, [5]])
    def test_a_training_step_hands_the_layer_class_rows(self, kind, loss, hidden, moons, monkeypatch):
        seen = []

        def spy(module, name):
            backward = getattr(module, name)

            def recorded(params, cache, upstream, *rest):
                if module is not mlp:  # the net, and a layer under cross-entropy, take deltas in row order
                    assert cache["mass"].T.flags.c_contiguous
                    assert (upstream if loss == "cross-entropy" else upstream.T).flags.c_contiguous
                seen.append((name, np.shape(upstream), rest[-1]))
                return backward(params, cache, upstream, *rest)
            monkeypatch.setattr(module, name, recorded)

        for module, name in [(enn, "enn_backward_batch"), (rbf, "rbf_backward_batch"), (mlp, "mlp_backward_batch")]:
            spy(module, name)
        net = None if hidden is None else mlp_init([2, *hidden, 2], seed=1)
        model = EvidentialModel(kind, make_layer(kind, 4, 2, 2, seed=6), net)
        train(model, moons, TrainConfig(loss_kind=loss, epochs=2))
        n = len(moons.points)
        layer_call = (f"{kind}_backward_batch", (n, 2) if loss == "cross-entropy" else (n, 3), net is not None)
        net_call = ("mlp_backward_batch", (n, 2), False)
        assert seen == ([layer_call] if net is None else [layer_call, net_call]) * 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_pignistic_backward_into_class_major_storage(self, k):
        rng = np.random.default_rng(k)
        d_probs = rng.standard_normal((300, k))
        d_probs[::7] = -0.0
        want = numeric.pignistic_backward(d_probs)
        out = np.empty((k + 1, 300)).T
        got = numeric.pignistic_backward(d_probs, out)
        assert got is out and got.flags.f_contiguous
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_pignistic_backward_frame_is_the_row_sum(self, k):
        # every pair (triple) of signed zeros, infinities, NaN and finite values
        edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1.5, 1e308])
        d_probs = np.stack(np.meshgrid(*[edge] * k), axis=-1).reshape(-1, k)
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.add.reduce(d_probs, axis=1) / k
            got = numeric.pignistic_backward(d_probs)
        assert got[:, k].tobytes() == want.tobytes() and got[:, :k].tobytes() == d_probs.tobytes()

    @pytest.mark.parametrize("class_major", [False, True])
    def test_decide_keeps_ties_at_the_lowest_class(self, class_major):
        masses = np.array([[0.3, 0.3, 0.3, 0.1],    # three-way tie: class 0
                           [0.2, 0.4, 0.4, 0.0],    # classes 1 and 2 tie: class 1
                           [0.1, 0.2, 0.5, 0.2],
                           [0.0, -0.0, 0.0, 1.0],   # signed zeros tie: class 0
                           [0.25, 0.5, 0.25, 0.0],
                           [np.nan, 0.9, np.nan, 0.1],  # the first NaN wins, as in argmax
                           [0.1, np.nan, 0.9, 0.0]])
        if class_major:
            masses = np.ascontiguousarray(masses.T).T
        got = decide(masses)
        assert got.dtype == np.intp and got.tolist() == [0, 1, 2, 0, 1, 0, 1]
        assert np.array_equal(got, np.argmax(masses[:, :-1], axis=1))


class TestCacheFreeMasses:
    """`masses` runs the layer forward without its backward cache: the same
    bits as the cached forward, an empty cache, and less memory."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("with_net", [False, True])
    @pytest.mark.parametrize("n_proto, n_feat", [(6, 2), (256, 64)])
    def test_same_bits_as_the_cached_forward(self, kind, with_net, n_proto, n_feat):
        rng = np.random.default_rng(n_proto + with_net)
        net = mlp_init([3, 8, n_feat], seed=1) if with_net else None
        model = EvidentialModel(kind, make_layer(kind, n_proto, n_feat, 3, seed=2), net)
        for n in (1, 2, 7, 300):
            X = rng.standard_normal((n, model.n_features))
            X[::3] *= 1e4  # far rows: activations flushed to 0
            want = model.forward_checked(X)[0]
            got = model.masses(X)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            mass, cache = model.layer.forward(model.features(X), keep_cache=False)
            assert cache == {} and mass.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_total_conflict_is_raised(self, n):
        layer = enn_from_constrained(np.zeros((2, 1)), np.ones(2), np.ones(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(TotalConflict):
            EvidentialModel("enn", layer).masses(np.zeros((n, 1)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("keep_cache", [False, True])
    def test_no_mass_is_negative_zero(self, kind, keep_cache):
        # far rows whose activations all underflow get singleton masses of +0.0
        layer = make_layer(kind, 6, 2, 2, seed=5)
        X = far_field_inputs(np.random.default_rng(6), layer.proto, layer.gamma, 2000)
        mass = layer.forward(X, keep_cache=keep_cache)[0]
        assert np.any(mass == 0) and not np.any(np.signbit(mass))

    @pytest.mark.parametrize("regime", [None, *POOLING])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_proto, dim", [(6, 2), (256, 64)])
    def test_far_rows_get_positive_zero_singletons(self, kind, n_proto, dim, regime, monkeypatch):
        # rows whose activations are all 0 or below 2**-54, in each pooling regime
        force_pooling(monkeypatch, regime)
        layer = make_layer(kind, n_proto, dim, 2, seed=n_proto)
        rng = np.random.default_rng(dim)
        X = far_inputs(rng, layer.proto, layer.gamma, 2000, t_min=40.0)
        for keep_cache in (False, True):
            mass, cache = layer.forward(X, keep_cache=keep_cache)
            assert not np.signbit(mass).any()
        assert cache["s"].max() < numeric.LOG1P_EXACT
        vacuous = ~cache["s"].any(axis=0)
        assert vacuous.any() and (mass[vacuous, :-1] == 0).all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_memory_below_the_cached_forward(self, kind):
        n, n_proto = 12500, 6
        model = EvidentialModel(kind, make_layer(kind, n_proto, 2, 2, seed=3))
        X = np.random.default_rng(4).standard_normal((n, 2))
        peaks = [traced_peak(call, X)[1] for call in (model.masses, model.forward_checked)]
        assert peaks[0] <= peaks[1] - n_proto * n * 8  # at least one (I, N) float64 array less

    # ids end in the RESCALE_MIN that forces the regime, or in "sparse".  The
    # sparse regime holds an index per lane at or above 2**-54, so it runs
    # where few are: on the wide inputs (0.2%), not on the tall ones (53%)
    @pytest.mark.parametrize("n, n_proto, dim, loop_peak, regime", [
        pytest.param(*case, regime, id="-".join(map(str, (*case, rid))))
        for case, regimes in [((12500, 6, 2, 1_603_152), ("rescaled", "plain")),
                              ((250, 256, 64, 1_117_424), ("rescaled", "plain", "sparse"))]
        for regime, rid in zip(regimes, ("-inf", "inf", "sparse"))])
    def test_far_field_peak_memory(self, n, n_proto, dim, loop_peak, regime, monkeypatch):
        # the rescaled pooling of tiny activations holds its blocks in the
        # room of the one (I, N) product it replaced, the sparse one its few
        # indexes in the room of the (C, I) -w it does not hold, and the
        # count that picks the regime takes less: in each regime no peak
        # above the bytes the whole-batch pooling loop alone peaked at on
        # these inputs.
        force_pooling(monkeypatch, regime)
        rng = np.random.default_rng(dim)
        proto, gamma = rng.standard_normal((n_proto, dim)), rng.uniform(0.5, 2.0, n_proto)
        layer = enn_from_constrained(proto, rng.uniform(0.1, 0.9, n_proto), gamma, rng.dirichlet(np.ones(2), n_proto))
        model, X = EvidentialModel("enn", layer), far_field_inputs(rng, proto, gamma, n)
        model.masses(X)
        assert traced_peak(model.masses, X)[1] <= loop_peak


# properties of the masses in every pooling regime, by hypothesis

@st.composite
def mass_cases(draw):
    """A model of up to 2000 prototypes and up to 40 inputs on, near and far
    from them, the prototypes and inputs moved by one translation: `enn`
    with reliabilities 0, 1, subnormal or between (activations s anywhere
    in [0, 1]), `rbf` with totals w+ and w- up to at most 1e6."""
    kind = draw(st.sampled_from(KINDS))
    n_proto = draw(st.one_of(st.integers(1, 12), st.integers(13, 2000)))
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    proto, gamma = rng.standard_normal((n_proto, dim)), 10.0 ** rng.uniform(-2, 1, n_proto)
    X = far_field_inputs(rng, proto, gamma, n)
    on = draw(st.integers(0, min(n, n_proto)))
    X[:on] = proto[:on]
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.standard_normal(dim)
    proto, X = proto + shift, X + shift
    if kind == "enn":
        alpha = rng.uniform(size=n_proto)
        edge = rng.random(n_proto) < 0.3
        alpha[edge] = rng.choice([0.0, 1.0, 1e-310], size=edge.sum())
        u = rng.dirichlet(np.ones(draw(st.integers(2, 3))), n_proto)
        u[0] = np.eye(u.shape[1])[0]  # with alpha 1, an input on it rules out every other class
        layer = enn_from_constrained(proto, alpha, gamma, u)
    else:
        v = rng.uniform(-1.0, 1.0, n_proto)
        v *= 10.0 ** draw(st.floats(-3.0, 6.0)) / max(np.maximum(v, 0.0).sum(), np.maximum(-v, 0.0).sum())
        v[rng.random(n_proto) < 0.1] = 0.0  # on the kink
        layer = rbf_from_constrained(proto, gamma, v)
    return EvidentialModel(kind, layer), X


@settings(max_examples=100, deadline=None)
@given(case=mass_cases())
def test_masses_are_one_distribution_in_every_pooling_regime(case):
    model, X = case
    got = []
    for regime in (None, *POOLING):  # the rule, then each regime forced
        with pytest.MonkeyPatch.context() as mp:
            force_pooling(mp, regime)
            got.append(model.masses(X))
    masses = got[0]
    assert all(m.tobytes() == masses.tobytes() for m in got[1:])
    assert masses.min() >= 0.0  # NaN fails too
    assert np.abs(masses.sum(axis=1) - 1.0).max() <= 1e-12

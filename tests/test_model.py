"""The composite model and the layer protocol: construction, kind checks,
input validation, checkpoints, and the shared objective."""

import numpy as np
import pytest
from helpers import far_field_inputs, fd_by_name, traced_peak

from evidkit import numeric
from evidkit.datasets import gen_half_moons
from evidkit.enn import enn_forward_batch, enn_from_constrained, enn_init_random
from evidkit.errors import DimensionMismatch, Empty, MalformedInput, OutOfRange, TotalConflict
from evidkit.mlp import mlp_init
from evidkit.model import LAYERS, EvidentialModel, class_count, make_layer
from evidkit.rbf import rbf_forward_batch, rbf_init_random
from evidkit.training import TrainConfig, _evaluate, model_loss_and_grads

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
    eval_value, err = _evaluate(model, moons.points, moons.labels, config)
    assert eval_value == value
    assert err == np.mean(np.argmax(masses[:, :-1], axis=1) != moons.labels)


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_memory_below_the_cached_forward(self, kind):
        n, n_proto = 12500, 6
        model = EvidentialModel(kind, make_layer(kind, n_proto, 2, 2, seed=3))
        X = np.random.default_rng(4).standard_normal((n, 2))
        peaks = [traced_peak(call, X)[1] for call in (model.masses, model.forward_checked)]
        assert peaks[0] <= peaks[1] - n_proto * n * 8  # at least one (I, N) float64 array less

    @pytest.mark.parametrize("rescale_min", [-np.inf, np.inf])
    @pytest.mark.parametrize("n, n_proto, dim, loop_peak", [(12500, 6, 2, 1_603_152), (250, 256, 64, 1_117_424)])
    def test_far_field_peak_memory(self, n, n_proto, dim, loop_peak, rescale_min, monkeypatch):
        # the rescaled pooling of tiny activations holds its blocks in the
        # room of the one (I, N) product it replaced, and the count that
        # picks the path takes less: on either path no peak above the bytes
        # the whole-batch pooling loop alone peaked at on these inputs.
        monkeypatch.setattr(numeric, "RESCALE_MIN", rescale_min)
        rng = np.random.default_rng(dim)
        proto, gamma = rng.standard_normal((n_proto, dim)), rng.uniform(0.5, 2.0, n_proto)
        layer = enn_from_constrained(proto, rng.uniform(0.1, 0.9, n_proto), gamma, rng.dirichlet(np.ones(2), n_proto))
        model, X = EvidentialModel("enn", layer), far_field_inputs(rng, proto, gamma, n)
        model.masses(X)
        assert traced_peak(model.masses, X)[1] <= loop_peak

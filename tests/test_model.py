"""The composite model and the layer protocol: construction, kind checks,
input validation, checkpoints, and the shared objective."""

import numpy as np
import pytest

from evidkit.datasets import gen_half_moons
from evidkit.enn import enn_forward_batch, enn_init_random
from evidkit.errors import DimensionMismatch, MalformedInput, OutOfRange
from evidkit.mlp import mlp_init
from evidkit.model import LAYERS, EvidentialModel, class_count, make_layer
from evidkit.rbf import rbf_forward_batch, rbf_init_random
from evidkit.training import TrainConfig, _evaluate, fd_gradients, model_loss_and_grads

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
            assert layer.n_prototypes == 4 and layer.n_features == 2 and layer.n_classes == 2
        assert not np.array_equal(random.proto, clustered.proto)

    def test_enn_class_count(self):
        assert make_layer("enn", 3, 2, 4, seed=0).n_classes == 4

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            make_layer("svm", 3, 2, 2, seed=0)

    def test_class_count_is_at_least_two(self):
        assert class_count(np.zeros(5, dtype=int)) == 2
        assert class_count(np.array([0, 2, 1])) == 3


class TestKindCheck:
    def test_layer_of_the_other_kind(self):
        with pytest.raises(OutOfRange):
            EvidentialModel("rbf", enn_init_random(3, 2, 2, seed=0))
        with pytest.raises(OutOfRange):
            EvidentialModel("enn", rbf_init_random(3, 2, seed=0))

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            EvidentialModel("svm", enn_init_random(3, 2, 2, seed=0))


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("with_net", [False, True])
    def test_non_finite_rows_rejected(self, bad, with_net):
        net = mlp_init([2, 4, 2], seed=0) if with_net else None
        model = EvidentialModel("enn", enn_init_random(3, 2, 2, seed=0), net)
        for call in (model.predict, model.masses, model.forward_with_cache):
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
        value, grads = layer.regularizer()
        numeric = fd_gradients(lambda: layer.regularizer()[0],
                               {name: layer.trainable_arrays()[name] for name in grads})
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


@pytest.mark.parametrize("kind, loss", [("enn", "sse"), ("enn", "dice"), ("rbf", "cross-entropy"),
                                        ("rbf", "dice")])
def test_training_and_evaluation_share_the_objective(kind, loss, moons):
    model = EvidentialModel(kind, make_layer(kind, 4, 2, 2, seed=6, data=(moons.points, moons.labels)))
    config = TrainConfig(loss_kind=loss, lam=0.3)
    value, _, masses = model_loss_and_grads(model, moons.points, moons.labels, config)
    eval_value, err = _evaluate(model, moons.points, moons.labels, config)
    assert eval_value == value
    assert err == np.mean(np.argmax(masses[:, :-1], axis=1) != moons.labels)

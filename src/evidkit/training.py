"""Losses, the optimizer, the training loop, and `fit`, which builds and
trains every new model: plain, or by the staged protocol for a feature net.

Loss pairings follow the layer families: the prototype-membership layer is
trained with a regularized sum-of-squares loss on its probability outputs
(penalty on the reliabilities), the weight-of-evidence layer with regularized
cross-entropy on its logistic output (penalty on the squared output weights),
and either layer trains against a soft overlap (Dice) loss for segmentation.

Training is full-batch gradient descent: datasets here are small enough that
determinism is worth more than minibatch noise.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import AllZeroDenominator, Empty, NonFiniteLoss, OutOfRange, ShapeMismatch
from .mlp import head_init, mlp_backward_batch, mlp_forward_batch, mlp_init
from .metrics import error_rate
from .model import EvidentialModel, class_count, decide, make_layer
from .numeric import as_batch, buffer, log_rows, pignistic, pignistic_backward, require_finite, softmax_rows

P_CLAMP = 1e-12
PLATEAU_PATIENCE = 10  # epochs without a lower objective before the learning rate is cut
PLATEAU_FACTOR = 0.1
MIN_LR = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# --- losses

def loss_sse(probs, onehot):
    """Summed squared error on probability outputs.

    Returns (value, d/d(probs)).
    """
    probs = np.asarray(probs, dtype=float)
    onehot = np.asarray(onehot, dtype=float)
    if probs.shape != onehot.shape:
        raise ShapeMismatch(f"{probs.shape} vs {onehot.shape}")
    diff = probs - onehot
    return float((diff**2).sum()), 2.0 * diff


def loss_ce(p1, targets):
    """Summed binary cross-entropy on the first-class probability.
    Probabilities are clamped to [1e-12, 1 - 1e-12].

    Returns (value, d/d(p1)).
    """
    p1 = np.asarray(p1, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if p1.shape != targets.shape:
        raise ShapeMismatch(f"{p1.shape} vs {targets.shape}")
    p = np.clip(p1, P_CLAMP, 1.0 - P_CLAMP)
    value = -float((targets * np.log(p) + (1.0 - targets) * np.log1p(-p)).sum())
    d_p1 = (p - targets) / (p * (1.0 - p))
    return value, d_p1


def loss_dice(soft_pred, truth):
    """Soft overlap loss 1 - 2*sum(S*G)/(sum(S)+sum(G)).

    Returns (value, d/d(soft_pred)).
    """
    s = np.asarray(soft_pred, dtype=float)
    g = np.asarray(truth, dtype=float)
    if s.shape != g.shape:
        raise ShapeMismatch(f"{s.shape} vs {g.shape}")
    denom = float(s.sum() + g.sum())
    if denom == 0.0:
        raise AllZeroDenominator("prediction and ground truth are both empty")
    overlap = float((s * g).sum())
    value = 1.0 - 2.0 * overlap / denom
    d_s = 2.0 * overlap / denom**2 - 2.0 * g / denom
    return value, d_s


# --- optimizer

class ParamVector:
    """Named float arrays laid end to end in one float64 vector, `vector`;
    `views[name]` is each array's slice of it in the array's shape."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.vector = np.concatenate([np.ravel(a) for a in arrays.values()]).astype(float, copy=False)
        ends = np.cumsum([np.size(a) for a in arrays.values()])
        self.slices = {name: slice(end - np.size(a), end) for (name, a), end in zip(arrays.items(), ends)}
        self.views = {name: self.vector[sl].reshape(np.shape(arrays[name])) for name, sl in self.slices.items()}

    def flatten(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Same-named arrays (gradients, say) laid out as in `vector`."""
        return np.concatenate([grads[name] for name in self.slices], axis=None)


def _array_slots(owner):
    """(holder, key) of every array of a parameter dataclass: its array
    fields in the instance dict, and the items of its list fields."""
    for f in fields(owner):
        value = getattr(owner, f.name)
        if isinstance(value, list):
            yield from ((value, i) for i in range(len(value)))
        else:
            yield owner.__dict__, f.name


@contextmanager
def flat_parameters(arrays: dict[str, np.ndarray], *owners):
    """A `ParamVector` of `arrays` that is, inside the block, the storage of
    the parameter dataclasses `owners` (None skipped): each of their fields
    holding one of the arrays is rebound to its view.  On exit each array
    takes the vector's values and each field gets its own array back, so
    arrays held from before the block end up with the final values."""
    flat = ParamVector(arrays)
    names = {id(a): name for name, a in arrays.items()}
    slots = [(holder, key, holder[key]) for owner in owners if owner is not None
             for holder, key in _array_slots(owner) if id(holder[key]) in names]
    for holder, key, array in slots:
        holder[key] = flat.views[names[id(array)]]
    try:
        yield flat
    finally:
        for name, array in arrays.items():
            array[...] = flat.views[name]
        for holder, key, array in slots:
            holder[key] = array


class Adam:
    """Adam on one float64 parameter vector, updated in place."""

    def __init__(self, vector: np.ndarray, lr: float):
        self.vector = vector
        self.lr = lr
        self.m = np.zeros_like(vector)
        self.v = np.zeros_like(vector)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad**2
        self.vector -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + ADAM_EPS)


# --- configuration and history

@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    lam: float = 0.0
    loss_kind: str = "sse"       # sse | cross-entropy | dice
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise OutOfRange("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise OutOfRange(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.lam < math.inf:
            raise OutOfRange(f"lam must be >= 0 and finite, got {self.lam}")
        if self.loss_kind not in ("sse", "cross-entropy", "dice"):
            raise OutOfRange(f"unknown loss {self.loss_kind!r}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_error: float
    val_error: float
    mean_ignorance: float


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)

    def csv_rows(self):
        yield "epoch,loss,train_err,val_err,mean_ignorance"
        for r in self.records:
            yield f"{r.epoch},{r.loss!r},{r.train_error!r},{r.val_error!r},{r.mean_ignorance!r}"


def _unpack(data) -> tuple[np.ndarray, np.ndarray]:
    """Finite inputs (N >= 1, H) and N labels, from `points` and `labels` or a pair."""
    x, y = (data.points, data.labels) if hasattr(data, "points") else data
    x, y = require_finite(np.atleast_2d(np.asarray(x, dtype=float))), np.asarray(y)
    if y.shape != (len(x),):
        raise ShapeMismatch(f"{len(x)} input rows but labels of shape {y.shape}")
    if not len(y):
        raise Empty("no rows to train on")
    return x, y


# --- loss glue: masses -> objective and gradients

@dataclass
class _FitSet:
    """Checked inputs `x`, labels `y` and their loss target: one-hot rows
    (sse), the first-class indicator (cross-entropy) or the truth (dice)."""

    x: np.ndarray
    y: np.ndarray
    target: np.ndarray

    def error_rate(self, masses) -> float:
        return np.count_nonzero(decide(masses) != self.y) / len(self.y)


def _fit_set(model: EvidentialModel, data, config: TrainConfig) -> _FitSet:
    """`data` (see `_unpack`) checked against the model and loss."""
    x, y = _unpack(data)
    _check_labels(model.layer, y)
    kind = config.loss_kind
    if kind not in model.layer.losses:
        raise OutOfRange(f"the {kind} loss does not train the {model.kind} layer")
    if kind == "dice" and model.n_classes != 2:
        raise OutOfRange("the overlap loss is defined for binary frames")
    target = (np.eye(model.n_classes)[y.astype(int)] if kind == "sse" else
              (y == 0).astype(float) if kind == "cross-entropy" else y.astype(float))
    return _FitSet(as_batch(x, model.n_features), y, target)


def _objective(model: EvidentialModel, masses, layer_cache: dict, target, config: TrainConfig, buffers=None):
    """Objective value, its gradient with respect to the layer output, and
    the layer regularizer's parameter gradients, against a `_FitSet` target.

    Every objective is a data term plus lam times the layer's regularizer.
    The output gradient is in mass space, except for cross-entropy, which
    reads the weight-of-evidence layer's logistic output p1 and returns
    d/d(p1).  The regularizer gradients are not yet scaled by lam.
    """
    if config.loss_kind == "cross-entropy":
        value, upstream = loss_ce(layer_cache["p1"], target)
    else:
        probs = pignistic(masses)
        if config.loss_kind == "sse":
            value, d_p = loss_sse(probs, target)
        else:
            # soft foreground probability: pignistic probability of class 1
            value, d_s = loss_dice(probs[:, 1], target)
            d_p = buffer(buffers, "d_p", probs.shape)
            d_p[:, 0], d_p[:, 1] = 0.0, d_s
        upstream = pignistic_backward(d_p, buffer(buffers, "upstream", masses.shape))
    reg_value, reg_grads = model.layer.regularizer(layer_cache)
    return value + config.lam * reg_value, upstream, reg_grads


def model_loss_and_grads(model: EvidentialModel, X, y, config: TrainConfig, buffers=None):
    """Full-batch objective and gradients of every trainable array, at
    inputs X and labels y or at the `_FitSet` y, in the caller's `buffers`
    (`numeric.buffer`) when given."""
    fit_set = y if isinstance(y, _FitSet) else _fit_set(model, (X, y), config)
    masses, caches = model.forward_checked(fit_set.x, buffers)
    value, upstream, reg_grads = _objective(model, masses, caches[1], fit_set.target, config, buffers)
    grads = model.backward(caches, upstream, buffers)
    for name, g in reg_grads.items():
        grads[f"layer.{name}"] = grads[f"layer.{name}"] + config.lam * g
    return value, grads, masses


# --- training loop

def _check_labels(layer, *label_sets) -> None:
    """OutOfRange unless every label set (None skipped) lies in the layer's classes."""
    for y in label_sets:
        if y is not None and (np.min(y) < 0 or np.max(y) >= layer.n_classes):
            raise OutOfRange(f"labels {np.min(y)}..{np.max(y)} outside the {layer.kind} layer's "
                             f"classes 0..{layer.n_classes - 1}")


def train(model: EvidentialModel, train_data, config: TrainConfig, val_data=None):
    """Full-batch training with a reduce-on-plateau schedule.

    Returns (trained model, history).  When a validation set is given, the
    returned model carries the parameters that scored the best validation
    objective; otherwise the final parameters.
    """
    fit_set = _fit_set(model, train_data, config)
    val = _fit_set(model, val_data, config) if val_data is not None else None

    with flat_parameters(model.trainable_arrays(), model.layer, model.feature_net) as params:
        optimizer = Adam(params.vector, config.learning_rate)
        history = TrainHistory()
        buffers = {}  # the training set's alone: validation allocates its own

        best_val = math.inf
        best_vector = None
        plateau_best = math.inf
        bad_epochs = 0

        for epoch in range(1, config.epochs + 1):
            value, grads, masses = model_loss_and_grads(model, fit_set.x, fit_set, config, buffers)
            if not math.isfinite(value):
                raise NonFiniteLoss(f"objective became {value} at epoch {epoch}")

            train_err = fit_set.error_rate(masses)
            ignorance = float(masses[:, -1].sum()) / len(fit_set.y)

            if value < plateau_best - 1e-15:
                plateau_best = value
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= PLATEAU_PATIENCE:
                    optimizer.lr = max(optimizer.lr * PLATEAU_FACTOR, MIN_LR)
                    bad_epochs = 0

            optimizer.step(params.flatten(grads))

            val_err = math.nan
            if val is not None:
                val_value, val_err = _evaluate(model, val.x, val, config)
                if val_value < best_val:
                    best_val = val_value
                    best_vector = params.vector.copy()

            history.records.append(EpochRecord(epoch, value, train_err, val_err, ignorance))

        if best_vector is not None:
            params.vector[...] = best_vector
    return model, history


def _evaluate(model: EvidentialModel, X, y, config: TrainConfig) -> tuple[float, float]:
    """Objective value and error rate, without gradients."""
    fit_set = y if isinstance(y, _FitSet) else _fit_set(model, (X, y), config)
    masses, (_, layer_cache) = model.forward_checked(fit_set.x)
    value = _objective(model, masses, layer_cache, fit_set.target, config)[0]
    return value, fit_set.error_rate(masses)


# --- feature-net pretraining and model construction

def pretrain_feature_net(net, head, train_data, config: TrainConfig, val_data=None):
    """Train the feature network by summed cross-entropy through a one-layer
    head net whose outputs are the class logits, scoring `val_data` each step."""
    x_train, y_train = _unpack(train_data)
    val = None if val_data is None else _unpack(val_data)
    onehot = np.eye(head.sizes[-1])[np.asarray(y_train, dtype=int)]

    # net and head both name their arrays W0, b0, ...: prefix the head's
    head_arrays = {f"head.{k}": v for k, v in head.trainable_arrays().items()}
    with flat_parameters(net.trainable_arrays() | head_arrays, net, head) as params:
        optimizer = Adam(params.vector, config.learning_rate)
        history = TrainHistory()

        net_buffers, head_buffers = {}, {}
        for epoch in range(1, config.epochs + 1):
            feats, cache = mlp_forward_batch(net, x_train, net_buffers)
            logits, head_cache = mlp_forward_batch(head, feats, head_buffers)
            probs = softmax_rows(logits)
            value = float(-np.sum(onehot * log_rows(probs, floor=P_CLAMP)))
            if not math.isfinite(value):
                raise NonFiniteLoss(f"pretraining objective became {value} at epoch {epoch}")
            head_grads, d_feats = mlp_backward_batch(head, head_cache, probs - onehot)
            net_grads, _ = mlp_backward_batch(net, cache, d_feats)
            optimizer.step(params.flatten(net_grads | {f"head.{k}": g for k, g in head_grads.items()}))

            err = error_rate(np.argmax(probs, axis=1), y_train)
            val_err = math.nan if val is None else error_rate(
                np.argmax(mlp_forward_batch(head, mlp_forward_batch(net, val[0])[0])[0], axis=1), val[1])
            history.records.append(EpochRecord(epoch, value, err, val_err, math.nan))
    return history


def fit(kind: str, init: str, n_prototypes: int, data, config: TrainConfig, hidden=None,
        n_features: int = 2, val_data=None):
    """A new `kind` model of `n_prototypes` prototypes, trained on `data`.

    `hidden`, when given, holds the hidden widths of a feature net of
    `n_features` outputs in front of the layer, drawn by `mlp_init` with
    seed `config.seed`.  The layer's prototypes come from k-means on its inputs
    (`init` "kmeans") or at random.  Without a net, or with random
    prototypes, the model trains as it is.  A net with k-means runs the
    staged protocol: pretrain the net through a one-layer head, fit the
    layer alone on the frozen features at learning rate 1e-2 (this function
    without a net), then fine-tune the whole model at 1e-4.

    Returns (model, histories): `histories["train"]` is the returned model's
    training history, and a staged run adds "pretrain" and "layer".
    """
    x, y = _unpack(data)
    net = None if hidden is None else mlp_init([x.shape[1], *hidden, n_features], seed=config.seed)
    if net is None or init == "random":
        kmeans_data = (x, y) if init == "kmeans" else None
        n_in = x.shape[1] if net is None else n_features
        layer = make_layer(kind, n_prototypes, n_in, class_count(y), config.seed, kmeans_data)
        model, history = train(EvidentialModel(kind, layer, net), (x, y), config, val_data)
        return model, {"train": history}

    x_val, y_val = _unpack(val_data) if val_data is not None else (None, None)
    n_classes = class_count(y)
    # a random layer of the kind has the class count the staged one will have
    # (2 for rbf): check the labels against it before pretraining for them
    _check_labels(make_layer(kind, n_prototypes, n_features, n_classes, config.seed), y, y_val)
    head = head_init(n_features, n_classes, seed=config.seed + 1)
    pretrain_history = pretrain_feature_net(net, head, (x, y), config, val_data)

    feats, _ = mlp_forward_batch(net, x)
    val_feats = None if val_data is None else (mlp_forward_batch(net, x_val)[0], y_val)
    layer_model, layer_histories = fit(kind, "kmeans", n_prototypes, (feats, y),
                                       replace(config, learning_rate=1e-2), val_data=val_feats)
    model, history = train(EvidentialModel(kind, layer_model.layer, net), (x, y),
                           replace(config, learning_rate=1e-4), val_data)
    return model, {"pretrain": pretrain_history, "layer": layer_histories["train"], "train": history}


# --- gradient checking

def fd_gradients(loss_fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss with respect to every
    entry of the contiguous float array `x`, perturbed in place and restored."""
    flat = x.reshape(-1)
    grad = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = loss_fn()
        flat[idx] = orig - eps
        down = loss_fn()
        flat[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
    return grad.reshape(x.shape)


def grad_check(model: EvidentialModel, X, y, config: TrainConfig, eps: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    The differences run over the model's parameters as one vector.  The
    comparison is a norm ratio per named parameter array; arrays whose
    analytic and numeric gradients are both below the finite-difference
    noise floor count as exact.
    """
    with flat_parameters(model.trainable_arrays(), model.layer, model.feature_net) as params:
        analytic = params.flatten(model_loss_and_grads(model, X, y, config)[1])
        numeric = fd_gradients(lambda: model_loss_and_grads(model, X, y, config)[0], params.vector, eps)
    worst = 0.0
    for sl in params.slices.values():
        a, n = analytic[sl], numeric[sl]
        denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-5)
        worst = max(worst, float(np.linalg.norm(a - n) / denom))
    return worst


__all__ = [
    "Adam",
    "EpochRecord",
    "TrainConfig",
    "TrainHistory",
    "fd_gradients",
    "fit",
    "flat_parameters",
    "grad_check",
    "loss_ce",
    "loss_dice",
    "loss_sse",
    "model_loss_and_grads",
    "pretrain_feature_net",
    "train",
]

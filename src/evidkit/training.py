"""Losses, the optimizer, the training loop, and the staged initialization protocol.

Loss pairings follow the layer families: the prototype-membership layer is
trained with a regularized sum-of-squares loss on its probability outputs
(penalty on the reliabilities), the weight-of-evidence layer with regularized
cross-entropy on its logistic output (penalty on the squared output weights),
and either layer trains against a soft overlap (Dice) loss for segmentation.

Training is full-batch gradient descent: datasets here are small enough that
determinism is worth more than minibatch noise.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AllZeroDenominator, NonFiniteLoss, OutOfRange, ShapeMismatch
from .mlp import head_init, mlp_backward_batch, mlp_forward_batch, mlp_init
from .metrics import error_rate
from .model import EvidentialModel, class_count, make_layer
from .numeric import log_rows, pignistic, pignistic_backward, require_finite, softmax_rows

P_CLAMP = 1e-12
PLATEAU_PATIENCE = 10  # epochs without a lower objective before the learning rate is cut
PLATEAU_FACTOR = 0.1
MIN_LR = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def loss_sse(probs, onehot):
    """Summed squared error on probability outputs.

    Returns (value, d/d(probs)).
    """
    probs = np.asarray(probs, dtype=float)
    onehot = np.asarray(onehot, dtype=float)
    if probs.shape != onehot.shape:
        raise ShapeMismatch(f"{probs.shape} vs {onehot.shape}")
    diff = probs - onehot
    return float(np.sum(diff**2)), 2.0 * diff


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
    value = float(-np.sum(targets * np.log(p) + (1.0 - targets) * np.log1p(-p)))
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
    denom = float(np.sum(s) + np.sum(g))
    if denom == 0.0:
        raise AllZeroDenominator("prediction and ground truth are both empty")
    overlap = float(np.sum(s * g))
    value = 1.0 - 2.0 * overlap / denom
    d_s = 2.0 * overlap / denom**2 - 2.0 * g / denom
    return value, d_s


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

class Adam:
    def __init__(self, arrays: dict, lr: float):
        self.arrays = arrays
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.t = 0

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for name, arr in self.arrays.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g**2
            arr -= self.lr * (self.m[name] / b1c) / (np.sqrt(self.v[name] / b2c) + ADAM_EPS)


# --------------------------------------------------------------------------
# configuration and history
# --------------------------------------------------------------------------

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
        if self.learning_rate <= 0:
            raise OutOfRange("learning_rate must be positive")
        if self.lam < 0:
            raise OutOfRange("lam must be >= 0")
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
    x, y = (data.points, data.labels) if hasattr(data, "points") else data
    return require_finite(np.asarray(x, dtype=float)), np.asarray(y)


# --------------------------------------------------------------------------
# loss glue: model masses -> objective value and parameter gradients
# --------------------------------------------------------------------------

def _objective(model: EvidentialModel, masses, layer_cache: dict, y, config: TrainConfig):
    """Objective value and its gradient with respect to the layer output.

    Every objective is a data term plus lam times the layer's regularizer,
    whose parameter gradient is left to the caller.  The gradient is in mass
    space, except for cross-entropy, which reads the weight-of-evidence
    layer's logistic output p1 and returns d/d(p1).
    """
    if config.loss_kind not in model.layer.losses:
        raise OutOfRange(f"the {config.loss_kind} loss does not train the {model.kind} layer")
    if config.loss_kind == "sse":
        onehot = np.eye(model.n_classes)[np.asarray(y, dtype=int)]
        value, d_p = loss_sse(pignistic(masses), onehot)
        upstream = pignistic_backward(d_p)
    elif config.loss_kind == "cross-entropy":
        targets = (np.asarray(y) == 0).astype(float)  # first class means label 0
        value, upstream = loss_ce(layer_cache["p1"], targets)
    else:
        if model.n_classes != 2:
            raise OutOfRange("the overlap loss is defined for binary frames")
        # soft foreground probability: pignistic probability of class 1
        value, d_s = loss_dice(pignistic(masses)[:, 1], np.asarray(y, dtype=float))
        upstream = pignistic_backward(np.column_stack([np.zeros_like(d_s), d_s]))
    return value + config.lam * model.layer.regularizer()[0], upstream


def model_loss_and_grads(model: EvidentialModel, X, y, config: TrainConfig):
    """Full-batch objective and gradients for every trainable array."""
    masses, caches = model.forward_with_cache(X)
    value, upstream = _objective(model, masses, caches[1], y, config)
    grads = model.backward(caches, upstream)
    for name, g in model.layer.regularizer()[1].items():
        grads[f"layer.{name}"] = grads[f"layer.{name}"] + config.lam * g
    return value, grads, masses


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

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
    x_train, y_train = _unpack(train_data)
    x_val, y_val = _unpack(val_data) if val_data is not None else (None, None)
    _check_labels(model.layer, y_train, y_val)

    arrays = model.trainable_arrays()
    optimizer = Adam(arrays, config.learning_rate)
    history = TrainHistory()

    best_val = math.inf
    best_arrays = None
    plateau_best = math.inf
    bad_epochs = 0

    for epoch in range(1, config.epochs + 1):
        value, grads, masses = model_loss_and_grads(model, x_train, y_train, config)
        if not math.isfinite(value):
            raise NonFiniteLoss(f"objective became {value} at epoch {epoch}")

        train_err = error_rate(np.argmax(masses[:, :-1], axis=1), y_train)
        ignorance = float(np.mean(masses[:, -1]))

        if value < plateau_best - 1e-15:
            plateau_best = value
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= PLATEAU_PATIENCE:
                optimizer.lr = max(optimizer.lr * PLATEAU_FACTOR, MIN_LR)
                bad_epochs = 0

        optimizer.step(grads)

        val_err = math.nan
        if x_val is not None:
            val_value, val_err = _evaluate(model, x_val, y_val, config)
            if val_value < best_val:
                best_val = val_value
                best_arrays = {k: v.copy() for k, v in arrays.items()}

        history.records.append(EpochRecord(epoch, value, train_err, val_err, ignorance))

    if best_arrays is not None:
        for name, arr in arrays.items():
            arr[...] = best_arrays[name]
    return model, history


def _evaluate(model: EvidentialModel, X, y, config: TrainConfig) -> tuple[float, float]:
    """Objective value and error rate without touching gradients."""
    masses, (_, layer_cache) = model.forward_with_cache(X)
    value, _ = _objective(model, masses, layer_cache, y, config)
    return value, error_rate(np.argmax(masses[:, :-1], axis=1), y)


# --------------------------------------------------------------------------
# feature-net pretraining and the staged initialization protocol
# --------------------------------------------------------------------------

def pretrain_feature_net(net, head, train_data, config: TrainConfig):
    """Train the feature network by summed cross-entropy through a one-layer
    head net whose outputs are the class logits."""
    x_train, y_train = _unpack(train_data)
    onehot = np.eye(head.sizes[-1])[np.asarray(y_train, dtype=int)]

    # net and head both name their arrays W0, b0, ...: prefix the head's
    head_arrays = {f"head.{k}": v for k, v in head.trainable_arrays().items()}
    optimizer = Adam(net.trainable_arrays() | head_arrays, config.learning_rate)
    history = TrainHistory()

    for epoch in range(1, config.epochs + 1):
        feats, cache = mlp_forward_batch(net, x_train)
        logits, head_cache = mlp_forward_batch(head, feats)
        probs = softmax_rows(logits)
        value = float(-np.sum(onehot * log_rows(probs, floor=P_CLAMP)))
        if not math.isfinite(value):
            raise NonFiniteLoss(f"pretraining objective became {value} at epoch {epoch}")
        head_grads, d_feats = mlp_backward_batch(head, head_cache, probs - onehot)
        net_grads, _ = mlp_backward_batch(net, cache, d_feats)
        optimizer.step(net_grads | {f"head.{k}": g for k, g in head_grads.items()})

        err = error_rate(np.argmax(probs, axis=1), y_train)
        history.records.append(EpochRecord(epoch, value, err, math.nan, math.nan))
    return history


@dataclass
class StagedInitResult:
    model: EvidentialModel
    pretrain_history: TrainHistory
    layer_history: TrainHistory
    finetune_history: TrainHistory
    prototypes_init: np.ndarray
    net_after_pretrain: object
    net_before_finetune: object


def four_stage_init(train_data, arch: dict, config: TrainConfig, val_data=None) -> StagedInitResult:
    """Chained initialization: pretrain features, cluster them, train the
    evidential layer on frozen features (learning rate 1e-2), then fine-tune
    the whole model end to end (learning rate 1e-4)."""
    x_train, y_train = _unpack(train_data)
    x_val, y_val = _unpack(val_data) if val_data is not None else (None, None)
    kind = arch["kind"]
    n_proto = arch["n_prototypes"]
    n_feat = arch["n_features"]
    hidden = arch.get("hidden", [16])
    n_classes = class_count(y_train)
    # a random layer of the kind has the class count the staged one will have
    # (2 for rbf): check the labels against it before pretraining for them
    _check_labels(make_layer(kind, n_proto, n_feat, n_classes, config.seed), y_train, y_val)

    net = mlp_init([x_train.shape[1], *hidden, n_feat], seed=config.seed)
    head = head_init(n_feat, n_classes, seed=config.seed + 1)
    pre_hist = pretrain_feature_net(net, head, (x_train, y_train), config)
    net_after_pretrain = copy.deepcopy(net)

    feats, _ = mlp_forward_batch(net, x_train)
    layer = make_layer(kind, n_proto, n_feat, n_classes, config.seed, (feats, y_train))
    prototypes_init = layer.proto.copy()

    layer_model = EvidentialModel(kind, layer, None)
    val_feats = None
    if val_data is not None:
        val_feats = (mlp_forward_batch(net, x_val)[0], y_val)
    _, layer_hist = train(layer_model, (feats, y_train), replace(config, learning_rate=1e-2), val_feats)
    net_before_finetune = copy.deepcopy(net)

    full = EvidentialModel(kind, layer_model.layer, net)
    _, fine_hist = train(full, (x_train, y_train), replace(config, learning_rate=1e-4), val_data)

    return StagedInitResult(
        model=full,
        pretrain_history=pre_hist,
        layer_history=layer_hist,
        finetune_history=fine_hist,
        prototypes_init=prototypes_init,
        net_after_pretrain=net_after_pretrain,
        net_before_finetune=net_before_finetune,
    )


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def fd_gradients(loss_fn, arrays: dict, eps: float = 1e-6) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss with respect to every entry
    of every array in `arrays` (dict name -> ndarray, perturbed in place)."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn()
            flat[idx] = orig - eps
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def grad_check(model: EvidentialModel, X, y, config: TrainConfig, eps: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    The comparison is a norm ratio per parameter array; arrays whose analytic
    and numeric gradients are both below the finite-difference noise floor
    count as exact.
    """
    _, analytic, _ = model_loss_and_grads(model, X, y, config)
    numeric = fd_gradients(lambda: model_loss_and_grads(model, X, y, config)[0],
                           model.trainable_arrays(), eps)
    worst = 0.0
    for name, num in numeric.items():
        a, n = np.asarray(analytic[name]).ravel(), num.ravel()
        denom = max(np.linalg.norm(a) + np.linalg.norm(n), 1e-5)
        worst = max(worst, float(np.linalg.norm(a - n) / denom))
    return worst


__all__ = [
    "Adam",
    "EpochRecord",
    "StagedInitResult",
    "TrainConfig",
    "TrainHistory",
    "fd_gradients",
    "four_stage_init",
    "grad_check",
    "loss_ce",
    "loss_dice",
    "loss_sse",
    "model_loss_and_grads",
    "pretrain_feature_net",
    "train",
]

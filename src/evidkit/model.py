"""Composite classifier: optional feature network feeding an evidential layer.

Parameter arrays are exposed as one dict with `layer.` / `mlp.` prefixes.
Training, the optimizer and the gradient checks lay that dict end to end in
one float64 vector (`training.flat_parameters(model)`), with each named
array a view into it, so they treat every model shape uniformly.

The two layers, `enn.EnnParams` and `rbf.RbfParams`, and the pretraining
head `mlp.SoftmaxHead` share one protocol, so outside `make_layer` no code
asks which one it holds: `kind` (a layer's key in `LAYERS`; "head" is not
one), `losses` (the loss names it trains with, the default first),
`n_features`, `n_classes` (2 for `rbf`), `trainable_arrays()`,
`forward(X, keep_cache=True) -> (masses (N, K+1), cache)`, the cache {}
when `keep_cache` is false (`masses`),
`backward(cache, upstream, buffers=None, input_grad=True) -> (parameter
grads, input grads)`, which may spend the cache and take scratch from a
training run's `buffers` (`numeric.buffer`), and gives None for the input
gradient when `input_grad` is false (a model with no feature net to feed);
`upstream` is (N, K+1) d(loss)/d(masses), in training the `.T` view of
class-major (K+1, N) storage, or under cross-entropy (N, K) d(loss)/d(logits)
of the softmax probabilities a layer that trains by it caches as `probs`; and
`regularizer(cache) -> (value, {array name: gradient})`, the
prototype-shrinking penalty that every loss weighs by lambda, read from the
constrained values a forward pass cached.

Checkpoints store every field of the layer and feature-net dataclasses as
it was trained (`params_to_dict` / `params_from_dict`), so a reload is
bit-exact and a new array field needs no serializer of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import enn, mlp, rbf
from .errors import DimensionMismatch, EvidkitError, MalformedInput, OutOfRange
from .numeric import as_batch, class_labels, require_finite

LAYERS = {"enn": enn.EnnParams, "rbf": rbf.RbfParams}
CHECKPOINT_FORMAT = 2


def class_count(labels) -> int:
    """Classes implied by labels that `class_labels` accepts: the largest plus one, at least 2."""
    return max(int(class_labels(labels, np.size(labels)).max()) + 1, 2)


def params_to_dict(params) -> dict:
    """Every field of a parameter dataclass as nested JSON lists: each field is
    an array, or a list of arrays (`MlpParams.weights`/`biases`)."""
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        out[f.name] = [a.tolist() for a in value] if isinstance(value, list) else value.tolist()
    return out


def params_from_dict(cls, data: dict):
    """`cls` rebuilt from `params_to_dict` output, through its own shape
    checks.  Missing, ragged, non-numeric or mismatched fields and NaN
    parameters raise MalformedInput; infinities are kept."""
    try:
        params = cls(**{f.name: data[f.name] for f in fields(cls)})
    except (LookupError, TypeError, ValueError, EvidkitError) as exc:
        raise MalformedInput(f"bad {cls.__name__} checkpoint: {type(exc).__name__}: {exc}") from None
    if any(np.isnan(a).any() for a in params.trainable_arrays().values()):
        raise MalformedInput(f"{cls.__name__} checkpoint holds NaN parameters")
    return params


def make_layer(kind: str, n_prototypes: int, n_features: int, n_classes: int, seed: int, data=None):
    """A new layer of `kind`: prototypes from k-means when `data` is given as
    (features, labels), random ones otherwise.  `rbf` is binary and ignores
    `n_classes`."""
    if kind == "enn":
        if data is None:
            return enn.enn_init_random(n_prototypes, n_features, n_classes, seed=seed)
        return enn.enn_init_kmeans(*data, n_prototypes, n_classes, seed=seed)
    if kind == "rbf":
        if data is None:
            return rbf.rbf_init_random(n_prototypes, n_features, seed=seed)
        return rbf.rbf_init_kmeans(*data, n_prototypes, seed=seed)
    raise OutOfRange(f"unknown layer kind {kind!r}")


def decide(masses) -> np.ndarray:
    """Class indexes of (N, K+1) masses by maximal singleton mass, as
    `np.argmax` picks them: ties go to the lowest index and the first NaN
    wins.  The classes are read as rows of `masses.T`, contiguous for the
    layers' class-major masses.

    With singleton-plus-frame focal sets this argmax coincides with the
    maximum-belief, maximum-plausibility, optimism-weighted, and
    probability-transform decision rules.
    """
    rows = masses.T
    last = len(rows) - 2
    pred = np.zeros(len(masses), dtype=np.intp)
    best = rows[0]
    for c in range(1, last + 1):
        # above best or NaN, unless best is NaN: argmax stops at its first NaN
        take = np.greater(best == best, rows[c] <= best)
        np.copyto(pred, c, where=take)
        if c < last:
            best = np.where(take, rows[c], best)
    return pred


@dataclass
class EvidentialModel:
    kind: str                      # "enn" | "rbf", or "head" in pretraining
    layer: object                  # EnnParams | RbfParams | SoftmaxHead
    feature_net: mlp.MlpParams | None = None

    def __post_init__(self):
        if getattr(self.layer, "kind", None) != self.kind:
            raise OutOfRange(f"model kind {self.kind!r} does not match its {type(self.layer).__name__} layer")
        if self.feature_net is not None and self.feature_net.sizes[-1] != self.layer.n_features:
            raise DimensionMismatch(f"the feature net emits {self.feature_net.sizes[-1]} features; "
                                    f"the {self.kind} layer takes {self.layer.n_features}")

    @property
    def n_features(self) -> int:
        if self.feature_net is not None:
            return self.feature_net.sizes[0]
        return self.layer.n_features

    @property
    def n_classes(self) -> int:
        return self.layer.n_classes

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        out = {f"layer.{k}": v for k, v in self.layer.trainable_arrays().items()}
        if self.feature_net is not None:
            out.update({f"mlp.{k}": v for k, v in self.feature_net.trainable_arrays().items()})
        return out

    def features(self, X) -> np.ndarray:
        X = require_finite(as_batch(X, self.n_features))
        return X if self.feature_net is None else mlp.mlp_forward_batch(self.feature_net, X)[0]

    def masses(self, X) -> np.ndarray:
        """(N, K+1) output masses; evaluation only, with no cache."""
        return self.layer.forward(self.features(X), keep_cache=False)[0]

    def predict(self, X) -> np.ndarray:
        """Class indexes of the inputs by `decide`."""
        return decide(self.masses(X))

    def forward_checked(self, X, buffers=None):
        """(masses, caches) of a finite (N, n_features) float batch, with the
        feature net's and the layer's backward caches: the training forward."""
        mlp_cache = None
        if self.feature_net is not None:
            X, mlp_cache = mlp.mlp_forward_batch(self.feature_net, X, buffers)
        masses, layer_cache = self.layer.forward(X)
        return masses, (mlp_cache, layer_cache)

    def backward(self, caches, upstream, buffers=None) -> dict[str, np.ndarray]:
        """Backpropagate an upstream gradient (mass-space, or logit-space under
        cross-entropy) into the flat parameter-gradient dict, spending the
        caches."""
        mlp_cache, layer_cache = caches
        net = self.feature_net
        layer_grads, d_feats = self.layer.backward(layer_cache, upstream, buffers, net is not None)
        grads = {f"layer.{k}": v for k, v in layer_grads.items()}
        if net is not None:
            mlp_grads, _ = mlp.mlp_backward_batch(net, mlp_cache, d_feats, False)
            grads.update({f"mlp.{k}": v for k, v in mlp_grads.items()})
        return grads

    def to_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "model": self.kind,
            "layer": params_to_dict(self.layer),
            "feature_net": None if self.feature_net is None else params_to_dict(self.feature_net),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @staticmethod
    def from_dict(data: dict) -> "EvidentialModel":
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise MalformedInput(f"not a format-{CHECKPOINT_FORMAT} checkpoint")
        kind, kinds = data.get("model"), list(LAYERS)
        if kind not in kinds:  # a list, not the dict: a corrupt file may hold an unhashable value
            raise MalformedInput(f"checkpoint of unknown model {kind!r}; expected one of {kinds}")
        net = data.get("feature_net")
        net = None if net is None else params_from_dict(mlp.MlpParams, net)
        layer = params_from_dict(LAYERS[kind], data.get("layer"))
        try:
            return EvidentialModel(kind, layer, net)
        except DimensionMismatch as exc:
            raise MalformedInput(f"bad checkpoint: {exc}") from None

    @staticmethod
    def load(path) -> "EvidentialModel":
        try:
            data = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedInput(f"{path}: not a JSON checkpoint: {exc}") from None
        return EvidentialModel.from_dict(data)

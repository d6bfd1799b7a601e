"""Composite classifier: optional feature network feeding an evidential layer.

Parameter arrays are exposed as one flat dict with `layer.` / `mlp.`
prefixes so the optimizer and checkpoint code treat every model shape
uniformly.

The two layers, `enn.EnnParams` and `rbf.RbfParams`, share one protocol, so
outside `make_layer` and checkpoint loading no code asks which one it holds:
`kind` (its key in `LAYERS`), `losses` (the loss names it trains with, the
default first), `n_features`, `n_classes` (2 for `rbf`), `trainable_arrays()`,
`to_dict()`, `forward(X) -> (masses (N, K+1), cache)`,
`backward(cache, upstream) -> (parameter grads, input grads)` and
`regularizer() -> (value, {array name: gradient})`, the prototype-shrinking
penalty that every loss weighs by lambda.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import enn, mlp, rbf
from .errors import OutOfRange
from .numeric import as_batch, require_finite

LAYERS = {"enn": enn.EnnParams, "rbf": rbf.RbfParams}


def class_count(labels) -> int:
    """Classes implied by integer labels: the largest label plus one, at least 2."""
    return max(int(np.max(labels)) + 1, 2)


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


@dataclass
class EvidentialModel:
    kind: str                      # "enn" | "rbf"
    layer: object                  # EnnParams | RbfParams
    feature_net: mlp.MlpParams | None = None

    def __post_init__(self):
        if getattr(self.layer, "kind", None) != self.kind:
            raise OutOfRange(f"model kind {self.kind!r} does not match its {type(self.layer).__name__} layer")

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

    def _features(self, X) -> tuple[np.ndarray, dict | None]:
        """Layer inputs for X, and the feature net's cache (None without one)."""
        X = require_finite(as_batch(X, self.n_features))
        if self.feature_net is None:
            return X, None
        return mlp.mlp_forward_batch(self.feature_net, X)

    def features(self, X) -> np.ndarray:
        return self._features(X)[0]

    def masses(self, X) -> np.ndarray:
        """(N, K+1) output masses; evaluation only."""
        return self.layer.forward(self.features(X))[0]

    def predict(self, X) -> np.ndarray:
        """Class indexes by maximal singleton mass (ties to the lowest index).

        With singleton-plus-frame focal sets this argmax coincides with the
        maximum-belief, maximum-plausibility, optimism-weighted, and
        probability-transform decision rules.
        """
        m = self.masses(X)
        return np.argmax(m[:, :-1], axis=1)

    def forward_with_cache(self, X):
        feats, mlp_cache = self._features(X)
        masses, layer_cache = self.layer.forward(feats)
        return masses, (mlp_cache, layer_cache)

    def backward(self, caches, upstream) -> dict[str, np.ndarray]:
        """Backpropagate an upstream gradient (mass-space, or p1-space for the
        weight-of-evidence layer) into the flat parameter-gradient dict."""
        mlp_cache, layer_cache = caches
        layer_grads, d_feats = self.layer.backward(layer_cache, upstream)
        grads = {f"layer.{k}": v for k, v in layer_grads.items()}
        if self.feature_net is not None:
            mlp_grads, _ = mlp.mlp_backward_batch(self.feature_net, mlp_cache, d_feats)
            grads.update({f"mlp.{k}": v for k, v in mlp_grads.items()})
        return grads

    def to_dict(self) -> dict:
        return {
            "model": self.kind,
            "layer": self.layer.to_dict(),
            "feature_net": mlp.mlp_to_dict(self.feature_net) if self.feature_net else None,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @staticmethod
    def from_dict(data: dict) -> "EvidentialModel":
        kind = data["model"]
        layer = enn.enn_from_dict(data["layer"]) if kind == "enn" else rbf.rbf_from_dict(data["layer"])
        net = mlp.mlp_from_dict(data["feature_net"]) if data.get("feature_net") else None
        return EvidentialModel(kind, layer, net)

    @staticmethod
    def load(path) -> "EvidentialModel":
        return EvidentialModel.from_dict(json.loads(Path(path).read_text()))

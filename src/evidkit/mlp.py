"""Small fully-connected feature extractor, and its pretraining head.

Hidden layers are affine maps followed by PReLU with one learnable slope per
layer; the final layer is affine so features are unbounded.  Pretraining
reads class probabilities off the features through `SoftmaxHead`, a
one-layer net under the layer protocol of `evidkit.model`.

Training works in arrays the fit owns: given its `buffers`, the forward
writes each preactivation, PReLU mask and activation into the arrays of the
epoch before.  The backward spends the cache, writing its deltas and PReLU
factors over them.  Inference passes no `buffers` and allocates anew.
Training never reads the net's input gradient, so it passes
`input_grad=False` and the first layer's delta times W0^T is not formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange, StaleCache
from .numeric import as_batch, buffer, seeded_rng, softmax_rows

INIT_SLOPE = 0.25
_ONE_BITS = np.float64(1.0).view(np.uint64)


@dataclass
class MlpParams:
    weights: list      # [(d0, d1), (d1, d2), ...]
    biases: list       # [(d1,), (d2,), ...]
    slopes: np.ndarray  # one PReLU slope per hidden layer (len = n_layers - 1)

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        self.slopes = np.asarray(self.slopes, dtype=float)
        if len(self.weights) != len(self.biases) or len(self.weights) < 1:
            raise DimensionMismatch("need one bias per weight matrix")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"weight {w.shape} incompatible with bias {b.shape}")
        for wa, wb in zip(self.weights, self.weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise DimensionMismatch(f"layers {wa.shape} -> {wb.shape} do not chain")
        if self.slopes.shape != (len(self.weights) - 1,):
            raise DimensionMismatch("need one PReLU slope per hidden layer")

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = w
            out[f"b{i}"] = b
        out["slopes"] = self.slopes
        return out


def mlp_init(layer_sizes, seed: int) -> MlpParams:
    """Scaled-normal weights (variance 2/fan_in), zero biases, slope 0.25."""
    if len(layer_sizes) < 2:
        raise OutOfRange("need at least input and output sizes")
    if min(layer_sizes) < 1:
        raise OutOfRange(f"every layer needs a width of at least 1, got {list(layer_sizes)}")
    rng = seeded_rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.standard_normal((d_in, d_out)) * np.sqrt(2.0 / d_in))
        biases.append(np.zeros(d_out))
    return MlpParams(weights, biases, np.full(len(layer_sizes) - 2, INIT_SLOPE))


class SoftmaxHead(MlpParams):
    """A one-layer net of class logits under the layer protocol: softmax
    probabilities as singleton masses, 0 on the frame, trained by K-class
    cross-entropy alone.  Not in `model.LAYERS`: no checkpoint names it."""

    kind = "head"
    losses = ("cross-entropy",)

    @property
    def n_features(self) -> int:
        return self.sizes[0]

    @property
    def n_classes(self) -> int:
        return self.sizes[-1]

    def forward(self, X, keep_cache: bool = True) -> tuple[np.ndarray, dict]:
        logits, cache = mlp_forward_batch(self, X)
        probs = softmax_rows(logits)
        masses = np.zeros((self.n_classes + 1, len(probs)))  # class-major, as the layers'
        masses[:-1] = probs.T
        return masses.T, {"mlp": cache, "probs": probs} if keep_cache else {}

    def backward(self, cache: dict, upstream, buffers=None,
                 input_grad=True) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        return mlp_backward_batch(self, cache["mlp"], upstream, input_grad)

    def regularizer(self, cache: dict) -> tuple[float, dict[str, np.ndarray]]:
        return 0.0, {}


def head_init(n_features: int, n_classes: int, seed: int) -> SoftmaxHead:
    """One affine layer to class logits: variance 1/n_features, zero biases."""
    rng = seeded_rng(seed)
    return SoftmaxHead([rng.standard_normal((n_features, n_classes)) * np.sqrt(1.0 / n_features)],
                       [np.zeros(n_classes)], np.empty(0))


def _prelu_factor(neg, slope, out) -> np.ndarray:
    """where(neg, slope, 1.0) in `out` for any slope, with no slow masked
    ufunc: the bits of 1.0, xor those of slope xor 1.0 where neg."""
    bits = out.view(np.uint64)
    np.multiply(neg, np.float64(slope).view(np.uint64) ^ _ONE_BITS, out=bits)
    bits ^= _ONE_BITS
    return out


def mlp_forward_batch(params: MlpParams, X, buffers=None) -> tuple[np.ndarray, dict]:
    """Features (N, d_out) of a batch (N, d_in) and the backward cache, in
    `buffers` (`numeric.buffer`; one dict per net) when given."""
    X = as_batch(X, params.sizes[0])
    activations, preacts, negs = [X], [], []
    h = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        shape = (len(X), w.shape[1])
        z = np.matmul(h, w, out=buffer(buffers, f"z{i}", shape))
        z += b
        preacts.append(z)
        if i < last:
            # where(z > 0, z, slope z) as z times where(z <= 0, slope, 1)
            neg = np.less_equal(z, 0.0, out=buffer(buffers, f"neg{i}", shape, bool))
            negs.append(neg)
            h = _prelu_factor(neg, params.slopes[i], buffer(buffers, f"h{i}", shape))
            h *= z
        else:
            h = z
        activations.append(h)
    cache = {"params": params, "activations": activations, "preacts": preacts, "negs": negs}
    return h, cache


def mlp_backward_batch(params: MlpParams, cache: dict, upstream,
                       input_grad=True) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Standard backpropagation; returns parameter grads and d(loss)/d(input),
    None without `input_grad`.  Spends the cache: each delta goes into the
    activation its weight gradient has just read, the masked preactivation
    and PReLU factor into the preactivation."""
    if cache.get("params") is not params:
        raise StaleCache("cache from different parameters, or spent by a backward pass")
    upstream = np.asarray(upstream, dtype=float)
    activations, preacts, negs = cache["activations"], cache["preacts"], cache["negs"]
    if upstream.shape != activations[-1].shape:
        raise DimensionMismatch(f"upstream shape {upstream.shape} vs output {activations[-1].shape}")
    del cache["params"]  # spent

    grads: dict[str, np.ndarray] = {"slopes": np.zeros_like(params.slopes)}
    last = len(params.weights) - 1
    delta = upstream
    for i in range(last, -1, -1):
        if i < last:
            z, neg = preacts[i], negs[i]
            np.multiply(z.view(np.uint64), neg, out=z.view(np.uint64))  # where(neg, z, 0.0)
            grads["slopes"][i] = np.add.reduce(np.multiply(delta, z, out=z), axis=None)
            delta *= _prelu_factor(neg, params.slopes[i], z)
        grads[f"W{i}"] = activations[i].T @ delta
        grads[f"b{i}"] = np.add.reduce(delta, axis=0)
        if i or input_grad:
            delta = np.matmul(delta, params.weights[i].T, out=activations[i] if i else None)
    return grads, delta if input_grad else None

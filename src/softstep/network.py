"""Reference feedforward binary classifier with manual reverse-mode gradients.

The network is fixed at dense layers of widths input->32->16->1: ReLU plus
dropout after each hidden layer, sigmoid on the output. Dropout is inverted
(masks scaled by 1/(1-rate) at train time) so inference needs no rescaling.
Forward passes cache activations on the model; backward consumes that cache
and returns parameter gradients for the optimizer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import write_atomic
from .heaviside import logistic

HIDDEN_WIDTHS = (32, 16)
CHECKPOINT_MAGIC = b"SSTEPNN1"

# Adam's moment decay rates and the term that keeps its division finite
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_STABILITY = 1e-8


class StaleCacheError(RuntimeError):
    """backward() called without a matching forward() cache."""


def check_dropout(rate: float) -> None:
    """Refuse a dropout rate outside [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {rate}")


@dataclass
class MlpModel:
    """Weights, biases and dropout rates; mutated in place by the optimizer.

    All parameters live in one contiguous float64 buffer ``flat``, in the
    order w0, b0, w1, b1, w2, b2 (the checkpoint order). ``weights`` and
    ``biases`` are tuples of views into it, so writing through a view or
    through ``flat`` changes the same numbers.
    """

    weights: tuple
    biases: tuple
    dropout_rates: tuple
    flat: np.ndarray = field(init=False, repr=False)
    _cache: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        """Check that the layers chain and pack them into ``flat``."""
        for rate in self.dropout_rates:
            check_dropout(rate)
        weights = [np.asarray(w, dtype=float) for w in self.weights]
        biases = [np.asarray(b, dtype=float) for b in self.biases]
        if len(weights) != 3 or len(biases) != 3:
            raise ValueError(f"expected 3 weight matrices and 3 bias "
                             f"vectors, got {len(weights)} and {len(biases)}")
        fan_in = weights[0].shape[0] if weights[0].ndim == 2 else 0
        if fan_in < 1:
            raise ValueError(f"layer 0 weights have shape {weights[0].shape}, "
                             f"expected (input_dim, {HIDDEN_WIDTHS[0]})")
        for layer, fan_out in enumerate(HIDDEN_WIDTHS + (1,)):
            if weights[layer].shape != (fan_in, fan_out):
                raise ValueError(
                    f"layer {layer} weights have shape "
                    f"{weights[layer].shape}, expected ({fan_in}, {fan_out})")
            if biases[layer].shape != (fan_out,):
                raise ValueError(
                    f"layer {layer} biases have shape {biases[layer].shape}, "
                    f"expected ({fan_out},)")
            fan_in = fan_out
        params = _interleave(weights, biases)
        self.flat = np.concatenate([p.ravel() for p in params])
        ends = np.cumsum([p.size for p in params])
        views = [chunk.reshape(p.shape) for chunk, p
                 in zip(np.split(self.flat, ends[:-1]), params)]
        self.weights = tuple(views[0::2])
        self.biases = tuple(views[1::2])

    @classmethod
    def create(cls, input_dim: int, dropout: float = 0.5, *,
               rng: np.random.Generator) -> "MlpModel":
        """Glorot-uniform weights (range +-sqrt(6/(fan_in+fan_out))), zero biases."""
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        widths = (input_dim,) + HIDDEN_WIDTHS + (1,)
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases,
                   dropout_rates=(dropout, dropout))

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def parameters(self):
        """Views of the parameter arrays, weights interleaved with biases."""
        return _interleave(self.weights, self.biases)

    def copy_parameters(self):
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params):
        for target, source in zip(self.parameters(), params):
            if target.shape != source.shape:
                raise ValueError("parameter shape mismatch")
            target[...] = source


def _interleave(weights, biases) -> list:
    return [p for pair in zip(weights, biases) for p in pair]


@dataclass
class ModelGrads:
    weights: list
    biases: list

    def flat(self) -> np.ndarray:
        """The gradients in the order of ``MlpModel.flat``, in one array."""
        # unrolled: inside a training step this measured about 6 us per
        # call against 11 us for a loop over parameters() (2-vCPU VM)
        (w0, w1, w2), (b0, b1, b2) = self.weights, self.biases
        return np.concatenate((w0.ravel(), b0, w1.ravel(), b1, w2.ravel(), b2))


def forward(model: MlpModel, features: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None) -> np.ndarray:
    """Predictions in (0,1) for a feature matrix of shape (n, input_dim).

    train_mode applies inverted dropout after each hidden ReLU and requires
    an rng; eval mode is deterministic. The forward cache for backward() is
    stored on the model and overwritten by each call: the input, each hidden
    layer's output after ReLU and dropout, the dropout masks (None in eval
    mode) and the predictions.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ValueError(f"feature width {x.shape[1]} does not match "
                         f"input layer width {model.input_dim}")
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout masks")

    cache = {"x": x, "a": [], "mask": []}
    activ = x
    for layer in (0, 1):
        # one array per layer: the affine map, then ReLU and dropout in place
        relu = activ @ model.weights[layer]
        relu += model.biases[layer]
        np.maximum(relu, 0.0, out=relu)
        rate = model.dropout_rates[layer]
        if train_mode and rate > 0.0:
            # the same doubles as rng.uniform(size=...), turned into the
            # float mask in place
            mask = rng.random(relu.shape)
            np.greater_equal(mask, rate, out=mask)
            mask *= 1.0 / (1.0 - rate)
            relu *= mask
        else:
            mask = None
        cache["a"].append(relu)
        cache["mask"].append(mask)
        activ = relu
    z_out = activ @ model.weights[2]
    z_out += model.biases[2]
    preds = logistic(z_out[:, 0])
    cache["preds"] = preds
    model._cache = cache
    return preds


def backward(model: MlpModel, loss_grad: np.ndarray) -> ModelGrads:
    """Parameter gradients of the scalar loss, given d(loss)/d(prediction).

    Requires the cache left by the most recent forward() on this model with
    a loss_grad of the same batch length; anything else raises
    StaleCacheError rather than returning silently wrong gradients.
    """
    cache = model._cache
    if cache is None:
        raise StaleCacheError("no cached forward pass on this model")
    loss_grad = np.asarray(loss_grad, dtype=float)
    n = cache["x"].shape[0]
    if loss_grad.shape != (n,):
        raise StaleCacheError(
            f"loss_grad shape {loss_grad.shape} does not match cached "
            f"batch of {n} samples")

    preds = cache["preds"]
    dz = (loss_grad * preds * (1.0 - preds))[:, None]
    grads_w = [None, None, None]
    grads_b = [None, None, None]
    grads_w[2] = cache["a"][1].T @ dz
    grads_b[2] = dz.sum(axis=0)
    da = dz @ model.weights[2].T
    for layer in (1, 0):
        if cache["mask"][layer] is not None:
            da *= cache["mask"][layer]
        # a > 0 is z > 0 wherever the mask kept the unit; where it dropped
        # the unit, da is already zero
        da *= cache["a"][layer] > 0.0
        inputs = cache["a"][layer - 1] if layer == 1 else cache["x"]
        grads_w[layer] = inputs.T @ da
        grads_b[layer] = da.sum(axis=0)
        if layer == 1:
            da = da @ model.weights[1].T
    return ModelGrads(weights=grads_w, biases=grads_b)


@dataclass
class AdamState:
    """Flat moment buffers (laid out like ``MlpModel.flat``), step and rate."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.001

    @classmethod
    def create(cls, model: MlpModel, lr: float = 0.001) -> "AdamState":
        if not (np.isfinite(lr) and lr > 0.0):
            raise ValueError(
                f"learning rate must be positive and finite, got {lr}")
        return cls(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat),
                   lr=lr)


def adam_step(state: AdamState, model: MlpModel, grads: ModelGrads) -> None:
    """One optimizer update, mutating the model parameters and state in place.

    One vectorized pass over ``model.flat``; each element sees the same
    operations in the same order as the textbook per-array update
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    param -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    grad = grads.flat()
    if grad.shape != model.flat.shape:
        raise ValueError("gradient shape mismatch")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    np.square(grad, out=grad)
    grad *= 1.0 - ADAM_BETA2
    v += grad
    update = m / (1.0 - ADAM_BETA1 ** t)
    update *= state.lr
    denom = v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_STABILITY
    update /= denom
    model.flat -= update


def save_checkpoint(model: MlpModel, path) -> None:
    """Versioned binary checkpoint: magic, dropout rates, shapes, float64 data.

    Written atomically: a reader sees the old file or the whole new one.
    """
    blob = [CHECKPOINT_MAGIC]
    blob.append(struct.pack("<dd", *model.dropout_rates))
    params = model.parameters()
    blob.append(struct.pack("<I", len(params)))
    for p in params:
        blob.append(struct.pack("<I", p.ndim))
        blob.append(struct.pack(f"<{p.ndim}I", *p.shape))
        blob.append(np.ascontiguousarray(p, dtype="<f8").tobytes())
    write_atomic(path, b"".join(blob))


def load_checkpoint(path) -> MlpModel:
    """Read a save_checkpoint file; ValueError names what is wrong with it.

    Refused: a wrong magic, short data, bytes after the last array, and
    arrays whose shapes do not form the input->32->16->1 network.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = 0

    def take(size, what):
        """Claim the next ``size`` bytes and return where they start."""
        nonlocal offset
        if offset + size > len(raw):
            raise ValueError(
                f"checkpoint is truncated: {what} needs {size} bytes at "
                f"offset {offset}, the file has {len(raw)}")
        offset += size
        return offset - size

    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint or unsupported version")
    take(8, "the magic")
    rates = struct.unpack_from("<dd", raw, take(16, "the dropout rates"))
    (n_params,) = struct.unpack_from("<I", raw, take(4, "the array count"))
    if n_params != 6:
        raise ValueError(f"expected 6 parameter arrays, found {n_params}")
    params = []
    for index in range(n_params):
        (ndim,) = struct.unpack_from("<I", raw,
                                     take(4, f"array {index}'s rank"))
        if ndim not in (1, 2):
            raise ValueError(f"array {index} has rank {ndim}, expected 1 or 2")
        shape = struct.unpack_from(f"<{ndim}I", raw,
                                   take(4 * ndim, f"array {index}'s shape"))
        count = math.prod(shape)
        start = take(8 * count, f"array {index}'s data")
        params.append(np.frombuffer(raw, dtype="<f8", count=count,
                                    offset=start).reshape(shape))
    if offset != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - offset} bytes after "
                         f"its last array")
    return MlpModel(weights=params[0::2], biases=params[1::2],
                    dropout_rates=rates)

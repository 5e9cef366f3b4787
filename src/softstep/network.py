"""Reference feedforward binary classifier with manual reverse-mode gradients.

The network is fixed at dense layers of widths input->32->16->1: ReLU plus
dropout after each hidden layer, sigmoid on the output. Dropout is inverted
(masks scaled by 1/(1-rate) at train time) so inference needs no rescaling.
Forward passes cache activations on the model; backward consumes that cache
and returns parameter gradients for the optimizer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .heaviside import logistic

HIDDEN_WIDTHS = (32, 16)
CHECKPOINT_MAGIC = b"SSTEPNN1"


class StaleCacheError(RuntimeError):
    """backward() called without a matching forward() cache."""


@dataclass
class MlpModel:
    """Weights, biases and dropout rates; mutated in place by the optimizer."""

    weights: list
    biases: list
    dropout_rates: tuple
    _cache: dict | None = field(default=None, repr=False)

    @classmethod
    def create(cls, input_dim: int, dropout: float = 0.5,
               rng: np.random.Generator | None = None) -> "MlpModel":
        """Glorot-uniform weights (range +-sqrt(6/(fan_in+fan_out))), zero biases."""
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
        if rng is None:
            rng = np.random.default_rng()
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
        """Flat list of parameter arrays, weights interleaved with biases."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self):
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params):
        for target, source in zip(self.parameters(), params):
            if target.shape != source.shape:
                raise ValueError("parameter shape mismatch")
            target[...] = source


@dataclass
class ModelGrads:
    weights: list
    biases: list

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


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
            mask = (rng.uniform(size=relu.shape) >= rate) / (1.0 - rate)
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
    """Moment buffers and hyperparameters for the bias-corrected update."""

    m: list
    v: list
    step: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    stability: float = 1e-8

    @classmethod
    def create(cls, model: MlpModel, lr: float = 0.001, beta1: float = 0.9,
               beta2: float = 0.999, stability: float = 1e-8) -> "AdamState":
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        params = model.parameters()
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params],
                   lr=lr, beta1=beta1, beta2=beta2, stability=stability)


def adam_step(state: AdamState, model: MlpModel, grads: ModelGrads) -> None:
    """One optimizer update, mutating the model parameters and state in place."""
    state.step += 1
    t = state.step
    for i, (param, grad) in enumerate(zip(model.parameters(),
                                          grads.parameters())):
        if param.shape != grad.shape:
            raise ValueError("gradient shape mismatch")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * grad
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * grad ** 2
        m_hat = state.m[i] / (1.0 - state.beta1 ** t)
        v_hat = state.v[i] / (1.0 - state.beta2 ** t)
        param -= state.lr * m_hat / (np.sqrt(v_hat) + state.stability)


def save_checkpoint(model: MlpModel, path) -> None:
    """Versioned binary checkpoint: magic, dropout rates, shapes, float64 data."""
    blob = [CHECKPOINT_MAGIC]
    blob.append(struct.pack("<dd", *model.dropout_rates))
    params = model.parameters()
    blob.append(struct.pack("<I", len(params)))
    for p in params:
        blob.append(struct.pack("<I", p.ndim))
        blob.append(struct.pack(f"<{p.ndim}I", *p.shape))
        blob.append(np.ascontiguousarray(p, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def load_checkpoint(path) -> MlpModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint or unsupported version")
    offset = 8
    rates = struct.unpack_from("<dd", raw, offset)
    offset += 16
    (n_params,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    params = []
    for _ in range(n_params):
        (ndim,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}I", raw, offset)
        offset += 4 * ndim
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count,
                            offset=offset).reshape(shape).copy()
        offset += 8 * count
        params.append(arr)
    if len(params) != 6:
        raise ValueError(f"expected 6 parameter arrays, found {len(params)}")
    weights = [params[0], params[2], params[4]]
    biases = [params[1], params[3], params[5]]
    return MlpModel(weights=weights, biases=biases,
                    dropout_rates=(rates[0], rates[1]))

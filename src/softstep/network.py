"""Reference feedforward binary classifier with manual reverse-mode gradients.

The network is fixed at dense layers of widths input->32->16->1: ReLU plus
dropout after each hidden layer, sigmoid on the output. Dropout is inverted
(masks scaled by 1/(1-rate) at train time) so inference needs no rescaling.
forward returns a Pass of the activations it computed and leaves the model
as it was; backward takes that Pass and returns the parameter gradient as
one vector laid out like ``MlpModel.flat``, which adam_step applies to
``flat`` in one pass.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import write_atomic
from .heaviside import logistic

HIDDEN_WIDTHS = (32, 16)
CHECKPOINT_MAGIC = b"SSTEPNN1"

# Adam's moment decay rates and the term that keeps its division finite
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_STABILITY = 1e-8


def check_dropout(rate: float) -> tuple[int, int]:
    """The rate as the masks draw it, rounded to the nearest m / 2^16 (ties
    down), as m / 2^k in lowest terms (0, 0 drops nothing). ValueError
    outside [0, 1) and above 1 - 2^-17, which would round to 1."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout must lie in [0, 1), got {rate}")
    m = math.ceil(rate * 65536 - 0.5)
    if m == 65536:
        raise ValueError(f"dropout {rate} rounds to 1 in steps of 2^-16")
    zeros = (m & -m).bit_length() - 1 if m else 16    # trailing zero bits
    return m >> zeros, 16 - zeros


@dataclass
class MlpModel:
    """Weights, biases and dropout rates; mutated in place by the optimizer.

    All parameters live in one contiguous float64 buffer ``flat``, in the
    order w0, b0, w1, b1, w2, b2 (the checkpoint order). ``weights`` and
    ``biases`` are tuples of views into it, so writing through a view or
    through ``flat`` changes the same numbers. ``dropout_fractions`` holds
    each rate as the (m, k) of ``check_dropout``, which forward reads.
    """

    weights: tuple
    biases: tuple
    dropout_rates: tuple
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        """Check the rates and that the layers chain; pack them into ``flat``."""
        self.dropout_fractions = tuple(map(check_dropout, self.dropout_rates))
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


def _interleave(weights, biases) -> list:
    return [p for pair in zip(weights, biases) for p in pair]


class Pass(NamedTuple):
    """What backward() reads of one forward pass: the (n,) predictions, the
    input, each hidden layer's output after ReLU and dropout, and each
    layer's float mask scale * keep * [z > 0] (None without dropout)."""

    preds: np.ndarray
    x: np.ndarray
    hidden: tuple
    masks: tuple


class DropoutBytes:
    """The bytes of successive ``rng.bytes(n)`` calls, drawn in blocks.

    ``Generator.bytes(n)`` is the first n bytes of the next ⌈n/4⌉ uint32
    words of a stream that does not depend on where it is cut; this draws
    ``BLOCK`` words (64 KiB) at a time and cuts them the same way."""

    BLOCK = 1 << 14

    def __init__(self, rng: np.random.Generator):
        self._rng, self._words, self._start = rng, b"", 0

    def bytes(self, n: int) -> bytes:
        count = -(-n // 4)
        start = self._start
        if start + n > len(self._words):
            self._words = self._words[start:] + self._rng.bytes(
                4 * max(self.BLOCK, count))
            start = 0
        self._start = start + 4 * count
        return self._words[start:start + n]


def forward(model: MlpModel, features: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None) -> Pass:
    """The Pass of a feature matrix of shape (n, input_dim); preds in (0,1).

    train_mode applies inverted dropout after each hidden ReLU and requires
    an rng, a Generator or the DropoutBytes that training wraps it in; eval
    mode is deterministic. The model is not changed. At a rate m / 2^k a
    unit is kept when k bits of ``rng.bytes`` read as u give u >= m
    (README, "Forward pass"), and scaled by 2^k / (2^k - m).
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ValueError(f"feature width {x.shape[1]} does not match "
                         f"input layer width {model.input_dim}")
    if train_mode and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout masks")

    hidden, masks = [], []
    activ = x
    for layer in (0, 1):
        # one array per layer: the affine map, then ReLU and dropout in place
        relu = activ @ model.weights[layer]
        relu += model.biases[layer]
        m, k = model.dropout_fractions[layer]
        mask = None
        if train_mode and m:
            runs = np.frombuffer(rng.bytes(k * -(-relu.size // 8)),
                                 np.uint8).reshape(k, -1)
            keep = runs[0]    # u >= m on bits 0..t, from bit 0 (m is odd)
            for t in range(1, k):
                keep = runs[t] & keep if m >> t & 1 else runs[t] | keep
            keep = np.unpackbits(keep, count=relu.size, bitorder="little")
            keep &= relu.ravel() > 0.0
            mask = keep.reshape(relu.shape) * (2.0 ** k / (2 ** k - m))
            relu *= mask    # the ReLU as well: -0.0 where z < 0
        else:
            np.maximum(relu, 0.0, out=relu)
        hidden.append(relu)
        masks.append(mask)
        activ = relu
    z_out = activ @ model.weights[2]
    z_out += model.biases[2]
    return Pass(logistic(z_out[:, 0]), x, tuple(hidden), tuple(masks))


class EvalKernel:
    """Eval-mode ``forward`` over one feature matrix, for scoring it often.

    Each layer's bias is folded into its product: every layer's input has a
    last column of ones, and ``model.flat`` holds each bias as the row after
    its weights, so [a | 1] @ [W; b] is one matmul over a view of ``flat``.
    The bias enters each sum last, so for three or more rows the predictions
    equal ``forward(model, features)`` bit for bit (one row may take BLAS's
    gemv path, which sums in another order). Every layer writes into a
    buffer built once.
    """

    def __init__(self, features: np.ndarray):
        x = np.asarray(features, dtype=float)
        self._inputs = [np.ones((len(x), width + 1))
                        for width in (x.shape[1],) + HIDDEN_WIDTHS]
        self._inputs[0][:, :-1] = x
        # each product fills all but the next input's column of ones
        self._products = [a[:, :-1] for a in self._inputs[1:]]
        self._products.append(np.empty((len(x), 1)))

    def __call__(self, model: MlpModel) -> np.ndarray:
        start = 0
        for layer, (activ, product) in enumerate(zip(self._inputs,
                                                     self._products)):
            fan_in, fan_out = model.weights[layer].shape
            end = start + (fan_in + 1) * fan_out
            np.matmul(activ, model.flat[start:end].reshape(fan_in + 1,
                                                           fan_out),
                      out=product)
            start = end
            if layer < 2:
                # ReLU over the whole contiguous input keeps its ones and
                # ran about 3x faster than over the strided product
                following = self._inputs[layer + 1]
                np.maximum(following, 0.0, out=following)
        return logistic(self._products[2][:, 0])


def backward(model: MlpModel, loss_grad: np.ndarray, fwd: Pass) -> np.ndarray:
    """Gradient of the scalar loss through ``fwd``, given d(loss)/d(preds).

    Returns one new float64 vector in the layout of ``model.flat``
    (w0, b0, w1, b1, w2, b2). ``fwd`` is the Pass forward() returned for
    this model's current parameters; a loss_grad of another shape than
    its preds raises ValueError.
    """
    loss_grad = np.asarray(loss_grad, dtype=float)
    preds = fwd.preds
    if loss_grad.shape != preds.shape:
        raise ValueError(f"loss_grad shape {loss_grad.shape} does not match "
                         f"the pass's {preds.shape} predictions")

    # bias sums as ones @ a, a BLAS gemv: 3.8 against 11.9 us for
    # a.sum(axis=0) at 256 x 32, in another summation order
    ones = np.ones(len(preds))
    dz = (loss_grad * preds * (1.0 - preds))[:, None]
    grads = [fwd.hidden[1].T @ dz, ones @ dz]    # w2, b2
    da = dz @ model.weights[2].T    # one product an entry, as dz * w2
    for layer in (1, 0):
        # a train pass's mask holds the ReLU gate; else a > 0 is z > 0
        mask = fwd.masks[layer]
        da *= fwd.hidden[layer] > 0.0 if mask is None else mask
        inputs = fwd.hidden[0] if layer == 1 else fwd.x
        grads += [inputs.T @ da, ones @ da]
        if layer == 1:
            da = da @ model.weights[1].T
    # unrolled: inside a training step this measured about 6 us per call
    # against 11 us for a loop over the six arrays (2-vCPU VM)
    w2, b2, w1, b1, w0, b0 = grads
    return np.concatenate((w0.ravel(), b0, w1.ravel(), b1, w2.ravel(), b2))


@dataclass
class AdamState:
    """Flat moment buffers (laid out like ``MlpModel.flat``), step and rate."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.001

    @classmethod
    def create(cls, model: MlpModel, lr: float = 0.001) -> "AdamState":
        return cls(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat),
                   lr=lr)


def adam_step(state: AdamState, model: MlpModel, grad: np.ndarray) -> None:
    """One optimizer update, mutating the model parameters and state in place.

    ``grad`` is laid out like ``model.flat``, as backward() returns it, and
    is left unchanged. One vectorized pass over ``model.flat``; each element
    sees the same operations in the same order as the textbook per-array
    update m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
    param -= lr * m_hat / (sqrt(v_hat) + eps).
    """
    if grad.shape != model.flat.shape:
        raise ValueError("gradient shape mismatch")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grad)
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
    params = _interleave(model.weights, model.biases)
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

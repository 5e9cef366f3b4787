import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softstep.confusion import LabeledBatch
from softstep.metrics import LossConfig, bce_loss, fbeta_loss
from softstep.network import (
    AdamState,
    DropoutBytes,
    EvalKernel,
    MlpModel,
    Pass,
    adam_step,
    backward,
    check_dropout,
    forward,
    load_checkpoint,
    save_checkpoint,
)


def toy_model(input_dim=3, dropout=0.0, seed=0):
    return MlpModel.create(input_dim, dropout=dropout,
                           rng=np.random.default_rng(seed))


def param_arrays(model):
    """w0, b0, w1, b1, w2, b2: the order of ``model.flat``."""
    return [p for pair in zip(model.weights, model.biases) for p in pair]


def param_blocks(model):
    """The indices of each of ``param_arrays(model)`` within ``model.flat``."""
    ends = np.cumsum([p.size for p in param_arrays(model)])
    return np.split(np.arange(model.flat.size), ends[:-1])


def param_gradient_fd(model, features, labels, loss_fn, coord, h=1e-5):
    """Central difference of the scalar loss along ``model.flat[coord]``."""
    original = model.flat[coord]
    model.flat[coord] = original + h
    up, _ = loss_fn(LabeledBatch(forward(model, features).preds, labels))
    model.flat[coord] = original - h
    dn, _ = loss_fn(LabeledBatch(forward(model, features).preds, labels))
    model.flat[coord] = original
    return (up - dn) / (2.0 * h)


# ------------------------------------------------------------------ forward


def test_forward_zero_parameters_gives_half():
    model = toy_model()
    model.flat[:] = 0.0
    preds = forward(model, np.random.default_rng(1).normal(size=(7, 3))).preds
    assert np.all(preds == 0.5)


def test_forward_eval_mode_deterministic():
    model = toy_model(seed=3)
    x = np.random.default_rng(4).normal(size=(20, 3))
    assert np.array_equal(forward(model, x).preds, forward(model, x).preds)


def test_forward_single_row_and_range():
    model = toy_model(seed=5)
    x = np.random.default_rng(6).normal(size=(1, 3)) * 50
    preds = forward(model, x).preds
    assert preds.shape == (1,)
    assert 0.0 <= preds[0] <= 1.0


def test_forward_shape_validation():
    model = toy_model()
    with pytest.raises(ValueError):
        forward(model, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        forward(model, np.zeros(3))
    with pytest.raises(ValueError):
        forward(model, np.zeros((4, 3)), train_mode=True, rng=None)


def test_forward_train_mode_drops_units():
    model = toy_model(dropout=0.5, seed=7)
    x = np.abs(np.random.default_rng(8).normal(size=(50, 3))) + 0.5
    rng = np.random.default_rng(9)
    a = forward(model, x, train_mode=True, rng=rng)
    b = forward(model, x, train_mode=True, rng=rng)
    assert not np.array_equal(a.preds, b.preds)


@pytest.mark.parametrize("train_mode", [False, True])
def test_forward_leaves_the_model_unchanged(train_mode):
    model = toy_model(dropout=0.5, seed=10)
    keys = set(vars(model))
    flat = model.flat.tobytes()
    x = np.random.default_rng(11).normal(size=(6, 3))
    forward(model, x, train_mode, np.random.default_rng(12))
    assert set(vars(model)) == keys
    assert model.flat.tobytes() == flat


def test_dropout_expectation_matches_eval_preactivation():
    # inverted dropout: mean train-mode pre-activation of the second hidden
    # layer over many masks equals the eval value, within 3 standard errors;
    # 0.3 draws at its rounded rate and scale
    for rate in (0.5, 0.3):
        check_expectation_at(rate)


def check_expectation_at(rate):
    model = toy_model(dropout=rate, seed=11)
    x = np.random.default_rng(12).normal(size=(1, 3))

    def layer2_preactivation(fwd):
        return (fwd.hidden[0] @ model.weights[1] + model.biases[1])[0]

    z_eval = layer2_preactivation(forward(model, x, train_mode=False))
    rng = np.random.default_rng(13)
    n_masks = 10_000
    samples = np.empty((n_masks, z_eval.shape[0]))
    for i in range(n_masks):
        samples[i] = layer2_preactivation(
            forward(model, x, train_mode=True, rng=rng))
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_masks)
    assert np.all(np.abs(mean - z_eval) <= 3.0 * se + 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(3, 300),
       input_dim=st.integers(1, 11),
       log_scales=st.tuples(*[st.floats(-4.0, 4.0)] * 3))
def test_eval_kernel_gives_forward_bit_for_bit(seed, rows, input_dim,
                                               log_scales):
    # weights, biases and inputs each over eight orders of magnitude
    rng = np.random.default_rng(seed)
    model = toy_model(input_dim, dropout=0.5, seed=seed)
    w_scale, b_scale, x_scale = 10.0 ** np.array(log_scales)
    x = rng.normal(scale=x_scale, size=(rows, input_dim))
    kernel = EvalKernel(x)
    for _ in range(2):
        # the second round checks that the kernel reads the moved weights
        for weights, biases in zip(model.weights, model.biases):
            weights[:] = rng.normal(scale=w_scale, size=weights.shape)
            biases[:] = rng.normal(scale=b_scale, size=biases.shape)
        preds = kernel(model)
        assert preds.tobytes() == forward(model, x).preds.tobytes()


# ----------------------------------------------------------------- backward


def test_backward_rejects_mismatched_loss_grad():
    model = toy_model()
    fwd = forward(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="loss_grad shape"):
        backward(model, np.zeros(5), fwd)


def test_backward_uses_only_the_pass_it_is_given():
    # a train-mode pass on batch A, then an eval pass on another batch B of
    # the same length: backward through A's pass gives A's gradient
    model = toy_model(dropout=0.3, seed=15)
    rng = np.random.default_rng(16)
    batch_a, batch_b = rng.normal(size=(2, 8, 3))
    loss_grad = rng.normal(size=8)

    def train_pass():
        return forward(model, batch_a, train_mode=True,
                       rng=np.random.default_rng(17))

    clean = backward(model, loss_grad, train_pass())
    fwd = train_pass()
    other = forward(model, batch_b)
    assert backward(model, loss_grad, fwd).tobytes() == clean.tobytes()
    assert not np.array_equal(backward(model, loss_grad, other), clean)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4096),
       log_scales=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)))
def test_broadcast_outer_product_equals_the_k1_matmul(seed, rows,
                                                      log_scales):
    # dz @ w.T with K = 1 is one product per entry, from gemm or (one row)
    # gemv; BLAS adds that product to +0.0, so where it is -0.0 the matmul
    # gives +0.0 and only the sign of that zero differs
    rng = np.random.default_rng(seed)
    dz_scale, w_scale = 10.0 ** np.array(log_scales)
    dz = rng.normal(scale=dz_scale, size=(rows, 1))
    w = rng.normal(scale=w_scale, size=(16, 1))
    assert (dz * w[:, 0]).tobytes() == (dz @ w.T).tobytes()
    dz[::3] = 0.0
    assert np.array_equal(dz * w[:, 0], dz @ w.T)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4096),
       width=st.sampled_from((1, 16, 32)), log_scale=st.floats(-4.0, 4.0))
def test_blas_bias_sums_are_column_sums_within_rounding(seed, rows, width,
                                                        log_scale):
    # backward's ones @ a sums each column in BLAS's order, not numpy's
    # pairwise one; any two orders of n terms differ by at most
    # (n - 1) 2^-52 sum |a| per column
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=10.0 ** log_scale, size=(rows, width))
    bound = rows * 2.0 ** -52 * np.abs(a).sum(axis=0)
    assert np.all(np.abs(np.ones(rows) @ a - a.sum(axis=0)) <= bound)


def gated_backward_reference(model, loss_grad, preds, x, hidden, masks):
    """backward() with each dropout mask, then the gate a > 0, as before
    the gate was folded into the masks; the bias sums are backward's."""
    ones = np.ones(len(preds))
    dz = (loss_grad * preds * (1.0 - preds))[:, None]
    grads = [hidden[1].T @ dz, ones @ dz]
    da = dz * model.weights[2][:, 0]
    for layer in (1, 0):
        da *= masks[layer]
        da *= hidden[layer] > 0.0
        inputs = hidden[0] if layer == 1 else x
        grads += [inputs.T @ da, ones @ da]
        if layer == 1:
            da = da @ model.weights[1].T
    w2, b2, w1, b1, w0, b0 = grads
    return np.concatenate((w0.ravel(), b0, w1.ravel(), b1, w2.ravel(), b2))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300),
       scale=st.floats(1.0, 1e4), keep_rate=st.floats(0.0, 1.0),
       log_scales=st.tuples(*[st.floats(-4.0, 4.0)] * 3))
def test_folded_gate_backward_equals_the_gated_form_bit_for_bit(
        seed, rows, scale, keep_rate, log_scales):
    # any keep bits and scale, and pre-activations with exact zeros: the
    # folded pass (scale * keep * [z > 0], hidden z * mask) against the
    # old one (scale * keep, hidden relu(z) * mask, then a > 0)
    rng = np.random.default_rng(seed)
    x_scale, z_scale, g_scale = 10.0 ** np.array(log_scales)
    model = toy_model(input_dim=4, dropout=0.5, seed=seed)
    model.flat[:] = rng.normal(size=model.flat.size)
    x = rng.normal(scale=x_scale, size=(rows, 4))
    folded, hidden, old_masks, old_hidden = [], [], [], []
    for width in (32, 16):
        z = rng.normal(scale=z_scale, size=(rows, width))
        z[rng.random(z.shape) < 0.1] = 0.0
        keep = rng.random(z.shape) < keep_rate
        mask = scale * (keep & (z > 0.0))
        folded.append(mask)
        hidden.append(z * mask)
        old_masks.append(scale * keep)
        old_hidden.append(np.maximum(z, 0.0) * (scale * keep))
    preds = rng.uniform(size=rows)
    loss_grad = rng.normal(scale=g_scale, size=rows)
    fwd = Pass(preds, x, tuple(hidden), tuple(folded))
    expected = gated_backward_reference(model, loss_grad, preds, x,
                                        old_hidden, old_masks)
    assert backward(model, loss_grad, fwd).tobytes() == expected.tobytes()


def test_backward_zero_loss_grad_gives_zero_param_grads():
    model = toy_model(seed=17)
    fwd = forward(model, np.random.default_rng(18).normal(size=(6, 3)))
    grad = backward(model, np.zeros(6), fwd)
    assert grad.shape == model.flat.shape and grad.dtype == np.float64
    assert np.all(grad == 0.0)


def test_backward_matches_finite_differences_bce():
    model = toy_model(seed=19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    fwd = forward(model, x)
    _, loss_grad = bce_loss(LabeledBatch(fwd.preds, y))
    grad = backward(model, loss_grad, fwd)
    for block in param_blocks(model):
        coords = block if len(block) < 40 else \
            rng.choice(block, 25, replace=False)
        for coord in coords:
            fd = param_gradient_fd(model, x, y, bce_loss, int(coord))
            assert grad[coord] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_backward_matches_finite_differences_fbeta():
    config = LossConfig(objective="f_beta", tau_train=0.5)
    loss_fn = lambda batch: fbeta_loss(batch, config)
    boundaries = (0.25, 0.5, 0.75)
    rng = np.random.default_rng(21)
    attempt = 0
    while True:
        attempt += 1
        model = toy_model(seed=100 + attempt)
        x = rng.normal(size=(10, 3))
        y = rng.integers(0, 2, 10).astype(float)
        fwd = forward(model, x)
        if min(abs(p - b) for p in fwd.preds for b in boundaries) > 1e-3:
            break
    _, loss_grad = loss_fn(LabeledBatch(fwd.preds, y))
    grad = backward(model, loss_grad, fwd)
    for block in param_blocks(model):
        coords = rng.choice(block, min(20, len(block)), replace=False)
        for coord in coords:
            fd = param_gradient_fd(model, x, y, loss_fn, int(coord))
            assert grad[coord] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_backward_with_active_dropout_matches_fd_under_fixed_masks():
    # re-seeding the rng identically before every forward fixes the masks,
    # making the dropped-out loss a deterministic function of parameters
    model = toy_model(dropout=0.4, seed=23)
    data_rng = np.random.default_rng(24)
    x = data_rng.normal(size=(12, 3))
    y = data_rng.integers(0, 2, 12).astype(float)

    def masked_forward():
        return forward(model, x, train_mode=True,
                       rng=np.random.default_rng(999))

    fwd = masked_forward()
    _, loss_grad = bce_loss(LabeledBatch(fwd.preds, y))
    grad = backward(model, loss_grad, fwd)
    h = 1e-5
    for block in param_blocks(model)[0::2]:    # the weight matrices
        for coord in (block[0], block[len(block) // 2], block[-1]):
            original = model.flat[coord]
            model.flat[coord] = original + h
            up, _ = bce_loss(LabeledBatch(masked_forward().preds, y))
            model.flat[coord] = original - h
            dn, _ = bce_loss(LabeledBatch(masked_forward().preds, y))
            model.flat[coord] = original
            fd = (up - dn) / (2 * h)
            assert grad[coord] == pytest.approx(fd, rel=1e-4, abs=1e-10)


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_parameters():
    model = toy_model(seed=29)
    before = model.flat.copy()
    state = AdamState.create(model)
    adam_step(state, model, np.zeros_like(model.flat))
    assert np.array_equal(model.flat, before)
    assert state.step == 1


def test_adam_step_counter():
    model = toy_model()
    state = AdamState.create(model)
    g = np.ones_like(model.flat)
    for _ in range(7):
        adam_step(state, model, g)
    assert state.step == 7


def test_adam_constant_gradient_step_approaches_lr():
    model = toy_model(seed=31)
    state = AdamState.create(model, lr=0.001)
    g = np.full_like(model.flat, 0.5)
    for _ in range(500):
        before = model.weights[0][0, 0]
        adam_step(state, model, g)
    delta = before - model.weights[0][0, 0]
    assert delta == pytest.approx(0.001, rel=0.05)


def per_array_adam_step(state, params, grads):
    """The update one array at a time, as textbook Adam writes it."""
    state["step"] += 1
    t = state["step"]
    for i, (param, grad) in enumerate(zip(params, grads)):
        state["m"][i] = 0.9 * state["m"][i] + (1.0 - 0.9) * grad
        state["v"][i] = 0.999 * state["v"][i] + (1.0 - 0.999) * grad ** 2
        m_hat = state["m"][i] / (1.0 - 0.9 ** t)
        v_hat = state["v"][i] / (1.0 - 0.999 ** t)
        param -= state["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), input_dim=st.integers(1, 6),
       steps=st.integers(1, 12),
       lr=st.sampled_from([1e-4, 0.001, 0.003, 0.1]),
       log_scale=st.floats(-9.0, 3.0))
def test_fused_adam_matches_per_array_update_bit_for_bit(
        seed, input_dim, steps, lr, log_scale):
    rng = np.random.default_rng(seed)
    model = MlpModel.create(input_dim, rng=rng)
    reference = [p.copy() for p in param_arrays(model)]
    ref_state = {"step": 0, "lr": lr,
                 "m": [np.zeros_like(p) for p in reference],
                 "v": [np.zeros_like(p) for p in reference]}
    state = AdamState.create(model, lr=lr)
    for _ in range(steps):
        grads = [rng.normal(scale=10.0 ** log_scale, size=p.shape)
                 * (rng.random(p.shape) < 0.8) for p in reference]
        per_array_adam_step(ref_state, reference, grads)
        grad = np.concatenate([g.ravel() for g in grads])
        given = grad.copy()
        adam_step(state, model, grad)
        # the caller's gradient is read, never written
        assert grad.tobytes() == given.tobytes()
    assert state.step == steps
    assert model.flat.tobytes() == np.concatenate(
        [p.ravel() for p in reference]).tobytes()
    for flat, arrays in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
        assert flat.tobytes() == np.concatenate(
            [a.ravel() for a in arrays]).tobytes()


def test_adam_rejects_gradients_of_another_size():
    model = toy_model()
    wider = toy_model(input_dim=4).flat
    for grad in (np.zeros_like(wider), np.zeros((1, model.flat.size))):
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(AdamState.create(model), model, grad)


# ------------------------------------------------------- flat parameter buffer


def assert_views_of_flat(model):
    params = param_arrays(model)
    assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
    assert model.flat.size == sum(p.size for p in params)
    offset = 0
    for p in params:
        assert p.base is model.flat
        assert np.shares_memory(p, model.flat)
        assert p.ctypes.data == model.flat.ctypes.data + 8 * offset
        offset += p.size
    # a write through the buffer is seen through the views, and back
    model.flat[0] += 1.0
    assert model.weights[0][0, 0] == model.flat[0]
    model.biases[2][0] = 0.25
    assert model.flat[-1] == 0.25


def test_parameters_are_views_of_one_flat_buffer(tmp_path):
    model = toy_model(input_dim=4, seed=43)
    assert_views_of_flat(model)
    for i, p in enumerate(param_arrays(model)):
        p[...] = i
    assert np.array_equal(model.flat, np.repeat(
        np.arange(6.0), [4 * 32, 32, 32 * 16, 16, 16, 1]))
    assert_views_of_flat(model)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    assert_views_of_flat(load_checkpoint(path))
    direct = MlpModel(weights=[np.ones((2, 32)), np.ones((32, 16)),
                               np.ones((16, 1))],
                      biases=[np.zeros(32), np.zeros(16), np.zeros(1)],
                      dropout_rates=(0.0, 0.0))
    assert_views_of_flat(direct)


def test_model_refuses_layers_that_do_not_chain():
    good_w = [np.ones((3, 32)), np.ones((32, 16)), np.ones((16, 1))]
    good_b = [np.zeros(32), np.zeros(16), np.zeros(1)]
    bad = [
        (good_w[:2], good_b),
        ([np.ones((3, 32)), np.ones((31, 16)), np.ones((16, 1))], good_b),
        ([np.ones((3, 33)), np.ones((33, 16)), np.ones((16, 1))], good_b),
        (good_w, [np.zeros(32), np.zeros(15), np.zeros(1)]),
        ([np.ones(32), np.ones((32, 16)), np.ones((16, 1))], good_b),
        ([np.ones((0, 32)), np.ones((32, 16)), np.ones((16, 1))], good_b),
    ]
    for weights, biases in bad:
        with pytest.raises(ValueError):
            MlpModel(weights=weights, biases=biases, dropout_rates=(0.5, 0.5))
    with pytest.raises(ValueError, match="dropout"):
        MlpModel(weights=good_w, biases=good_b,
                 dropout_rates=(0.5, float("nan")))


def reference_keep(stream, shape, rate):
    """Keep bits by the rule, from a fresh generator's ``bytes``.

    The rate rounds to the nearest m / 2^16, ties down, in lowest terms
    m / 2^k; unit i reads bit i of each of k runs of ceil(units / 8)
    bytes, run t giving bit t of its integer u, and is kept when u >= m.
    """
    m, k = math.ceil(rate * 2 ** 16 - 0.5), 16
    while m % 2 == 0:
        m, k = m // 2, k - 1
    units = math.prod(shape)
    runs = np.frombuffer(stream.bytes(k * math.ceil(units / 8)), np.uint8)
    bits = np.unpackbits(runs.reshape(k, -1), axis=1, bitorder="little")
    u = sum(bits[t, :units].astype(np.int64) << t for t in range(k))
    return (u >= m).reshape(shape), 2.0 ** k / (2.0 ** k - m)


def test_train_mode_masks_follow_the_bit_rule():
    # the mask is scale * keep * [z > 0]: the dropout mask with the ReLU
    # gate folded in; 0.3 rounds to 19661 / 65536
    for rate, fraction in ((0.5, (1, 1)), (0.25, (1, 2)),
                           (0.3, (19661, 16))):
        assert check_dropout(rate) == fraction
        check_masks_at(rate)


def check_masks_at(rate):
    model = toy_model(dropout=rate, seed=47)
    x = np.random.default_rng(48).normal(size=(9, 3))
    fwd = forward(model, x, train_mode=True, rng=np.random.default_rng(49))
    stream = np.random.default_rng(49)
    activ = x
    for layer, width in enumerate((32, 16)):
        z = activ @ model.weights[layer] + model.biases[layer]
        keep, scale = reference_keep(stream, (9, width), rate)
        expected = scale * (keep & (z > 0.0))
        mask = fwd.masks[layer]
        assert mask.dtype == np.float64
        assert mask.tobytes() == expected.tobytes()
        assert np.array_equal(fwd.hidden[layer], np.maximum(z, 0.0) * mask)
        activ = fwd.hidden[layer]


@pytest.mark.parametrize("rate", [0.5, 0.25, 0.3, 0.75, 0.1])
def test_mask_bits_are_independent_bernoulli_draws(rate):
    # every pre-activation is 1, so the masks show the keep bits alone;
    # fixed seed, tolerances pinned at 3 to 5 standard errors of the
    # 16-unit layer's estimates
    model = toy_model(input_dim=2, dropout=rate, seed=0)
    for weights, biases in zip(model.weights, model.biases):
        weights[:] = 0.0
        biases[:] = 1.0
    fwd = forward(model, np.zeros((20_000, 2)), train_mode=True,
                  rng=np.random.default_rng(50))
    m, k = check_dropout(rate)
    p_keep = 1.0 - m / 2 ** k
    for mask in fwd.masks:
        keep = mask > 0.0
        assert abs(keep.mean() - p_keep) < 0.004
        for first, second in ((keep[:, :-1], keep[:, 1:]),   # adjacent units
                              (keep[:-1], keep[1:])):        # adjacent rows
            assert abs((first & second).mean() - p_keep ** 2) < 0.004
            assert abs(np.corrcoef(first.ravel(), second.ravel())[0, 1]) \
                < 0.006


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       block=st.one_of(st.none(), st.integers(1, 2048)),
       sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=40))
@example(seed=0, block=None, sizes=[4999] * 14 + [1, 2, 3, 5, 4096])
@example(seed=1, block=1, sizes=[1, 5, 3, 4, 9, 8, 2])
def test_dropout_bytes_are_the_generators_bytes(seed, block, sizes):
    # any request sizes, odd ones and those that are not whole words,
    # across block refills: the bytes of successive Generator.bytes calls
    # on a twin generator
    source = DropoutBytes(np.random.default_rng(seed))
    if block is not None:
        source.BLOCK = block
    twin = np.random.default_rng(seed)
    for n in sizes:
        assert source.bytes(n) == twin.bytes(n)


def test_check_dropout_refuses_a_rate_that_rounds_to_one():
    largest = 1.0 - 2.0 ** -17
    assert check_dropout(largest) == (65535, 16)
    for rate in (np.nextafter(largest, 1.0), 0.999999):
        with pytest.raises(ValueError, match="rounds to 1"):
            check_dropout(rate)
        with pytest.raises(ValueError, match="rounds to 1"):
            MlpModel.create(3, dropout=rate, rng=np.random.default_rng(0))


def test_a_rate_that_rounds_to_zero_draws_no_mask():
    assert check_dropout(2.0 ** -17) == (0, 0)
    model = toy_model(dropout=2.0 ** -17, seed=51)
    x = np.random.default_rng(52).normal(size=(5, 3))
    rng = np.random.default_rng(53)
    fwd = forward(model, x, train_mode=True, rng=rng)
    assert fwd.masks == (None, None)
    assert fwd.preds.tobytes() == forward(model, x).preds.tobytes()
    assert rng.bytes(8) == np.random.default_rng(53).bytes(8)


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    model = toy_model(input_dim=5, dropout=0.3, seed=37)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dropout_rates == model.dropout_rates
    assert np.array_equal(loaded.flat, model.flat)
    x = np.random.default_rng(38).normal(size=(9, 5))
    assert np.array_equal(forward(loaded, x).preds, forward(model, x).preds)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    model = toy_model()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def random_model(seed, input_dim, dropout):
    rng = np.random.default_rng(seed)
    model = MlpModel.create(input_dim, dropout=dropout, rng=rng)
    model.flat[:] = rng.normal(scale=1e3, size=model.flat.size)
    model.flat[rng.random(model.flat.size) < 0.05] = -0.0
    return model


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), input_dim=st.integers(1, 9),
       dropout=st.sampled_from([0.0, 0.25, 0.5, 0.9]))
def test_checkpoint_roundtrip_is_exact(tmp_path_factory, seed, input_dim,
                                       dropout):
    model = random_model(seed, input_dim, dropout)
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dropout_rates == model.dropout_rates
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert [p.shape for p in param_arrays(loaded)] == \
        [p.shape for p in param_arrays(model)]


def test_checkpoint_refuses_every_truncation(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(random_model(51, 1, 0.5), path)
    whole = path.read_bytes()
    for length in range(len(whole)):
        path.write_bytes(whole[:length])
        with pytest.raises(ValueError):
            load_checkpoint(path)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), input_dim=st.integers(1, 9),
       cut=st.integers(1, 2**20), junk=st.binary(min_size=1, max_size=64))
def test_checkpoint_refuses_truncation_and_appended_bytes(
        tmp_path_factory, seed, input_dim, cut, junk):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(random_model(seed, input_dim, 0.5), path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-(cut % len(whole) or 1)])
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_bytes(whole + junk)
    with pytest.raises(ValueError, match="after its last array"):
        load_checkpoint(path)


def checkpoint_bytes(shapes, rates=(0.5, 0.5)):
    blob = [b"SSTEPNN1", struct.pack("<dd", *rates),
            struct.pack("<I", len(shapes))]
    for shape in shapes:
        blob.append(struct.pack(f"<I{len(shape)}I", len(shape), *shape))
        blob.append(np.zeros(shape).tobytes())
    return b"".join(blob)


@pytest.mark.parametrize("shapes, message", [
    ([(3, 32), (32,), (32, 16), (16,), (16, 1)], "expected 6"),
    ([(3, 32), (32,), (32, 16), (16,), (16, 1), (1,), (1,)], "expected 6"),
    ([(3, 32), (32,), (32, 16), (16,), (16, 2), (2,)], "layer 2 weights"),
    ([(3, 32), (32,), (31, 16), (16,), (16, 1), (1,)], "layer 1 weights"),
    ([(3, 32), (16,), (32, 16), (16,), (16, 1), (1,)], "layer 0 biases"),
    ([(3, 32, 1), (32,), (32, 16), (16,), (16, 1), (1,)], "rank 3"),
    ([(96,), (32,), (32, 16), (16,), (16, 1), (1,)], "layer 0 weights"),
])
def test_checkpoint_refuses_shapes_that_do_not_chain(tmp_path, shapes,
                                                      message):
    path = tmp_path / "model.bin"
    path.write_bytes(checkpoint_bytes(shapes))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_checkpoint_refuses_a_bad_dropout_rate(tmp_path):
    shapes = [(3, 32), (32,), (32, 16), (16,), (16, 1), (1,)]
    path = tmp_path / "model.bin"
    path.write_bytes(checkpoint_bytes(shapes))
    assert load_checkpoint(path).dropout_rates == (0.5, 0.5)
    path.write_bytes(checkpoint_bytes(shapes, rates=(0.5, 1.0)))
    with pytest.raises(ValueError, match="dropout"):
        load_checkpoint(path)


# --------------------------------------------------------------------- init


def test_create_glorot_ranges_and_zero_biases():
    model = MlpModel.create(10, dropout=0.5, rng=np.random.default_rng(41))
    widths = (10, 32, 16, 1)
    for layer, w in enumerate(model.weights):
        limit = np.sqrt(6.0 / (widths[layer] + widths[layer + 1]))
        assert w.shape == (widths[layer], widths[layer + 1])
        assert np.all(np.abs(w) <= limit)
        assert np.all(model.biases[layer] == 0.0)


def test_create_validation():
    with pytest.raises(ValueError):
        MlpModel.create(0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        MlpModel.create(3, dropout=1.0, rng=np.random.default_rng(0))

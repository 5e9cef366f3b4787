import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softstep.confusion import LabeledBatch
from softstep.metrics import LossConfig, bce_loss, fbeta_loss
from softstep.network import (
    AdamState,
    MlpModel,
    ModelGrads,
    StaleCacheError,
    adam_step,
    backward,
    forward,
    load_checkpoint,
    save_checkpoint,
)


def toy_model(input_dim=3, dropout=0.0, seed=0):
    return MlpModel.create(input_dim, dropout=dropout,
                           rng=np.random.default_rng(seed))


def grad_arrays(grads):
    """Gradient arrays in the order of ``model.parameters()``."""
    return [g for pair in zip(grads.weights, grads.biases) for g in pair]


def param_gradient_fd(model, features, labels, loss_fn, index, coord, h=1e-5):
    """Central difference of the scalar loss along one parameter coordinate."""
    param = model.parameters()[index]
    flat = param.reshape(-1)
    original = flat[coord]
    flat[coord] = original + h
    up, _ = loss_fn(LabeledBatch(forward(model, features), labels))
    flat[coord] = original - h
    dn, _ = loss_fn(LabeledBatch(forward(model, features), labels))
    flat[coord] = original
    return (up - dn) / (2.0 * h)


# ------------------------------------------------------------------ forward


def test_forward_zero_parameters_gives_half():
    model = toy_model()
    for p in model.parameters():
        p[...] = 0.0
    preds = forward(model, np.random.default_rng(1).normal(size=(7, 3)))
    assert np.all(preds == 0.5)


def test_forward_eval_mode_deterministic():
    model = toy_model(seed=3)
    x = np.random.default_rng(4).normal(size=(20, 3))
    assert np.array_equal(forward(model, x), forward(model, x))


def test_forward_single_row_and_range():
    model = toy_model(seed=5)
    x = np.random.default_rng(6).normal(size=(1, 3)) * 50
    preds = forward(model, x)
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
    assert not np.array_equal(a, b)


def test_dropout_expectation_matches_eval_preactivation():
    # inverted dropout: mean train-mode pre-activation of the second hidden
    # layer over many masks equals the eval value, within 3 standard errors
    model = toy_model(dropout=0.5, seed=11)
    x = np.random.default_rng(12).normal(size=(1, 3))

    def layer2_preactivation():
        return (model._cache["a"][0] @ model.weights[1] + model.biases[1])[0]

    forward(model, x, train_mode=False)
    z_eval = layer2_preactivation()
    rng = np.random.default_rng(13)
    n_masks = 10_000
    samples = np.empty((n_masks, z_eval.shape[0]))
    for i in range(n_masks):
        forward(model, x, train_mode=True, rng=rng)
        samples[i] = layer2_preactivation()
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_masks)
    assert np.all(np.abs(mean - z_eval) <= 3.0 * se + 1e-12)


# ----------------------------------------------------------------- backward


def test_backward_requires_forward_cache():
    model = toy_model()
    with pytest.raises(StaleCacheError):
        backward(model, np.zeros(4))


def test_backward_rejects_mismatched_loss_grad():
    model = toy_model()
    forward(model, np.zeros((4, 3)))
    with pytest.raises(StaleCacheError):
        backward(model, np.zeros(5))


def test_backward_zero_loss_grad_gives_zero_param_grads():
    model = toy_model(seed=17)
    forward(model, np.random.default_rng(18).normal(size=(6, 3)))
    grads = backward(model, np.zeros(6))
    for g in grad_arrays(grads):
        assert np.all(g == 0.0)


def test_backward_matches_finite_differences_bce():
    model = toy_model(seed=19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    preds = forward(model, x)
    _, loss_grad = bce_loss(LabeledBatch(preds, y))
    grads = backward(model, loss_grad)
    for index, grad in enumerate(grad_arrays(grads)):
        flat = grad.reshape(-1)
        coords = range(len(flat)) if len(flat) < 40 else \
            rng.choice(len(flat), 25, replace=False)
        for coord in coords:
            fd = param_gradient_fd(model, x, y, bce_loss, index, int(coord))
            assert flat[int(coord)] == pytest.approx(fd, rel=1e-5, abs=1e-10)


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
        preds = forward(model, x)
        if min(abs(p - b) for p in preds for b in boundaries) > 1e-3:
            break
    _, loss_grad = loss_fn(LabeledBatch(preds, y))
    grads = backward(model, loss_grad)
    for index, grad in enumerate(grad_arrays(grads)):
        flat = grad.reshape(-1)
        coords = rng.choice(len(flat), min(20, len(flat)), replace=False)
        for coord in coords:
            fd = param_gradient_fd(model, x, y, loss_fn, index, int(coord))
            assert flat[int(coord)] == pytest.approx(fd, rel=1e-4, abs=1e-9)


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

    preds = masked_forward()
    _, loss_grad = bce_loss(LabeledBatch(preds, y))
    grads = backward(model, loss_grad)
    h = 1e-5
    for index in (0, 2, 4):
        flat_param = model.parameters()[index].reshape(-1)
        flat_grad = grad_arrays(grads)[index].reshape(-1)
        for coord in (0, len(flat_param) // 2, len(flat_param) - 1):
            original = flat_param[coord]
            flat_param[coord] = original + h
            up, _ = bce_loss(LabeledBatch(masked_forward(), y))
            flat_param[coord] = original - h
            dn, _ = bce_loss(LabeledBatch(masked_forward(), y))
            flat_param[coord] = original
            fd = (up - dn) / (2 * h)
            assert flat_grad[coord] == pytest.approx(fd, rel=1e-4, abs=1e-10)


# --------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_parameters():
    model = toy_model(seed=29)
    before = model.copy_parameters()
    state = AdamState.create(model)
    zero = ModelGrads(weights=[np.zeros_like(w) for w in model.weights],
                      biases=[np.zeros_like(b) for b in model.biases])
    adam_step(state, model, zero)
    for p, q in zip(model.parameters(), before):
        assert np.array_equal(p, q)
    assert state.step == 1


def test_adam_step_counter():
    model = toy_model()
    state = AdamState.create(model)
    g = ModelGrads(weights=[np.ones_like(w) for w in model.weights],
                   biases=[np.ones_like(b) for b in model.biases])
    for _ in range(7):
        adam_step(state, model, g)
    assert state.step == 7


def test_adam_constant_gradient_step_approaches_lr():
    model = toy_model(seed=31)
    state = AdamState.create(model, lr=0.001)
    g = ModelGrads(weights=[np.full_like(w, 0.5) for w in model.weights],
                   biases=[np.full_like(b, 0.5) for b in model.biases])
    for _ in range(500):
        before = model.weights[0][0, 0]
        adam_step(state, model, g)
    delta = before - model.weights[0][0, 0]
    assert delta == pytest.approx(0.001, rel=0.05)


def test_adam_state_validation():
    with pytest.raises(ValueError):
        AdamState.create(toy_model(), lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_adam_state_rejects_non_finite_lr(lr):
    with pytest.raises(ValueError, match="finite"):
        AdamState.create(toy_model(), lr=lr)


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
    reference = model.copy_parameters()
    ref_state = {"step": 0, "lr": lr,
                 "m": [np.zeros_like(p) for p in reference],
                 "v": [np.zeros_like(p) for p in reference]}
    state = AdamState.create(model, lr=lr)
    for _ in range(steps):
        grads = [rng.normal(scale=10.0 ** log_scale, size=p.shape)
                 * (rng.random(p.shape) < 0.8) for p in reference]
        per_array_adam_step(ref_state, reference, grads)
        adam_step(state, model, ModelGrads(weights=grads[0::2],
                                           biases=grads[1::2]))
    assert state.step == steps
    assert model.flat.tobytes() == np.concatenate(
        [p.ravel() for p in reference]).tobytes()
    for flat, arrays in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
        assert flat.tobytes() == np.concatenate(
            [a.ravel() for a in arrays]).tobytes()


def test_adam_rejects_gradients_of_another_size():
    model = toy_model()
    grads = ModelGrads(weights=[np.zeros((4, 32)), np.zeros((32, 16)),
                                np.zeros((16, 1))],
                       biases=[np.zeros(n) for n in (32, 16, 1)])
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(AdamState.create(model), model, grads)


# ------------------------------------------------------- flat parameter buffer


def assert_views_of_flat(model):
    params = model.parameters()
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
    model.set_parameters([np.full_like(p, i)
                          for i, p in enumerate(model.parameters())])
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


def test_train_mode_masks_are_the_uniform_threshold_masks():
    # forward draws the same doubles as rng.uniform(size=shape) and keeps
    # them as float masks scaled by 1/(1 - rate)
    model = toy_model(dropout=0.3, seed=47)
    x = np.random.default_rng(48).normal(size=(9, 3))
    forward(model, x, train_mode=True, rng=np.random.default_rng(49))
    reference = np.random.default_rng(49)
    for layer, width in enumerate((32, 16)):
        expected = (reference.uniform(size=(9, width)) >= 0.3) / (1.0 - 0.3)
        mask = model._cache["mask"][layer]
        assert mask.dtype == np.float64
        assert mask.tobytes() == expected.tobytes()


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    model = toy_model(input_dim=5, dropout=0.3, seed=37)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dropout_rates == model.dropout_rates
    for p, q in zip(loaded.parameters(), model.parameters()):
        assert np.array_equal(p, q)
    x = np.random.default_rng(38).normal(size=(9, 5))
    assert np.array_equal(forward(loaded, x), forward(model, x))


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
    assert [p.shape for p in loaded.parameters()] == \
        [p.shape for p in model.parameters()]


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

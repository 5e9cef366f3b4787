import numpy as np
import pytest

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
    for g in grads.parameters():
        assert np.all(g == 0.0)


def test_backward_matches_finite_differences_bce():
    model = toy_model(seed=19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, 8).astype(float)
    preds = forward(model, x)
    _, loss_grad = bce_loss(LabeledBatch(preds, y))
    grads = backward(model, loss_grad)
    for index, grad in enumerate(grads.parameters()):
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
    for index, grad in enumerate(grads.parameters()):
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
        flat_grad = grads.parameters()[index].reshape(-1)
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
        MlpModel.create(0)
    with pytest.raises(ValueError):
        MlpModel.create(3, dropout=1.0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softstep.confusion import (
    HardCounts,
    LabeledBatch,
    SoftCounts,
    aggregate_hard,
    aggregate_soft,
    aggregate_soft_grad,
)
from softstep.heaviside import (
    HeavisideParams,
    fit_sigmoid,
    heaviside_approx,
)


P_DEFAULT = HeavisideParams(0.5, 0.1)


CELLS = ("tp", "fp", "fn", "tn")


def random_batch(rng, n):
    return LabeledBatch(rng.uniform(0.0, 1.0, n), rng.integers(0, 2, n))


def memberships(p, y, approx=P_DEFAULT):
    """The four soft cells of one sample: soft counts of a one-sample batch."""
    return aggregate_soft(LabeledBatch(np.array([p], dtype=float),
                                       np.array([y], dtype=float)), approx)


# ------------------------------------------------------------------- batches


def test_batch_validation():
    with pytest.raises(ValueError):
        LabeledBatch(np.array([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LabeledBatch(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        LabeledBatch(np.array([0.5]), np.array([2.0]))
    with pytest.raises(ValueError):
        LabeledBatch(np.array([1.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        LabeledBatch(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        LabeledBatch(np.array([[0.5]]), np.array([[1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.001, 1.001])
def test_batch_refuses_each_bad_prediction_anywhere(bad):
    for position in range(3):
        preds = np.array([0.0, 0.5, 1.0])
        preds[position] = bad
        with pytest.raises(ValueError, match="predictions"):
            LabeledBatch(preds, np.array([0.0, 1.0, 1.0]))


# labels near the float limit overflow in x * (x - 1), on the way to the
# ValueError
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(labels=arrays(np.float64, st.integers(1, 8),
                     elements=st.one_of(st.sampled_from([0.0, 1.0, -0.0]),
                                        st.floats(allow_nan=True,
                                                  allow_infinity=True,
                                                  allow_subnormal=True))))
def test_batch_accepts_exactly_zero_one_labels(labels):
    preds = np.full(len(labels), 0.5)
    if np.all((labels == 0.0) | (labels == 1.0)):
        assert LabeledBatch(preds, labels).n == len(labels)
    else:
        with pytest.raises(ValueError, match="labels"):
            LabeledBatch(preds, labels)


# --------------------------------------------------------- soft memberships


def test_tp_soft_examples():
    assert memberships(1.0, 1).tp == 1.0
    assert memberships(0.0, 1).tp == 0.0
    assert memberships(0.75, 1).tp == pytest.approx(0.9, abs=1e-12)
    assert memberships(0.75, 1).fn == pytest.approx(0.1, abs=1e-12)


def test_soft_membership_branch_table():
    # all four cells for a positive above threshold and a negative below
    p_hi, p_lo = 0.75, 0.25
    h_hi = heaviside_approx(p_hi, P_DEFAULT)   # 0.9
    h_lo = heaviside_approx(p_lo, P_DEFAULT)   # 0.1
    hi = memberships(p_hi, 1)
    assert hi.tp == pytest.approx(h_hi)
    assert hi.fp == pytest.approx(1 - h_hi)
    assert hi.fn == pytest.approx(1 - h_hi)
    assert hi.tn == pytest.approx(1 - h_hi)
    lo = memberships(p_lo, 0)
    assert lo.tp == pytest.approx(h_lo)
    assert lo.fp == pytest.approx(h_lo)
    # fn branch "y=1 or p>=tau" is false here, so the else case applies
    assert lo.fn == pytest.approx(h_lo)
    assert lo.tn == pytest.approx(1 - h_lo)


def test_soft_membership_cross_class_contribution():
    # a rejected negative still adds surrogate(p) to soft TP by the
    # "y=1 or p<tau" branch; this is the defined behavior, not a bug
    assert memberships(0.25, 0).tp == pytest.approx(0.1, abs=1e-12)
    assert memberships(0.25, 0).tp > 0.0


def test_soft_membership_range():
    rng = np.random.default_rng(61)
    for _ in range(20):
        batch = random_batch(rng, 64)
        for p, y in zip(batch.predictions, batch.labels):
            cells = memberships(p, y)
            for field in CELLS:
                assert 0.0 <= getattr(cells, field) <= 1.0


def test_soft_membership_continuous_at_threshold():
    # both branch expressions evaluate to 0.5 at p=tau
    eps = 1e-9
    for y in (0, 1):
        at = memberships(0.5, y)
        just_below = memberships(0.5 - eps, y)
        for field in CELLS:
            assert getattr(at, field) == pytest.approx(0.5, abs=1e-12)
            assert abs(getattr(at, field) - getattr(just_below, field)) < 1e-8


def test_membership_does_not_sum_to_one():
    # the four soft cells of one sample are not a partition of 1
    cells = memberships(0.5, 1)
    total = cells.tp + cells.fp + cells.fn + cells.tn
    assert total == pytest.approx(2.0, abs=1e-12)


# ----------------------------------------------------------- soft aggregate


def test_aggregate_soft_saturated_equals_hard():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = 50
        preds = rng.integers(0, 2, n).astype(float)
        labels = rng.integers(0, 2, n)
        batch = LabeledBatch(preds, labels)
        soft = aggregate_soft(batch, P_DEFAULT)
        hard = aggregate_hard(batch, 0.5)
        assert soft.tp == hard.tp
        assert soft.fp == hard.fp
        assert soft.fn == hard.fn
        assert soft.tn == hard.tn


def test_aggregate_soft_single_sample_at_threshold():
    batch = LabeledBatch(np.array([0.5]), np.array([1.0]))
    counts = aggregate_soft(batch, P_DEFAULT)
    assert counts.tp == pytest.approx(0.5, abs=1e-12)


def test_aggregate_soft_scales_linearly():
    one = LabeledBatch(np.array([0.7]), np.array([1.0]))
    many = LabeledBatch(np.full(25, 0.7), np.ones(25))
    c1 = aggregate_soft(one, P_DEFAULT)
    c25 = aggregate_soft(many, P_DEFAULT)
    for field in ("tp", "fp", "fn", "tn"):
        assert getattr(c25, field) == pytest.approx(
            25 * getattr(c1, field), rel=1e-12)


def test_aggregate_soft_bounded_by_n():
    rng = np.random.default_rng(71)
    for _ in range(20):
        batch = random_batch(rng, 40)
        counts = aggregate_soft(batch, P_DEFAULT)
        for field in ("tp", "fp", "fn", "tn"):
            assert 0.0 <= getattr(counts, field) <= batch.n


# ------------------------------------------------------------ soft gradient


def test_aggregate_soft_grad_examples():
    batch = LabeledBatch(np.array([0.1, 0.9]), np.array([1.0, 1.0]))
    grads = aggregate_soft_grad(batch, P_DEFAULT)
    # lower segment slope 0.4, surrogate branch
    assert grads.tp[0] == pytest.approx(0.4, abs=1e-12)
    # upper segment slope 0.4, complement branch
    assert grads.fn[1] == pytest.approx(-0.4, abs=1e-12)


def test_aggregate_soft_grad_sign_for_positives():
    rng = np.random.default_rng(73)
    preds = rng.uniform(0.0, 1.0, 200)
    batch = LabeledBatch(preds, np.ones(200))
    grads = aggregate_soft_grad(batch, P_DEFAULT)
    assert np.all(grads.tp > 0.0)
    assert np.all(grads.fn < 0.0)


def test_aggregate_soft_grad_matches_finite_differences():
    rng = np.random.default_rng(79)
    params = HeavisideParams(0.6, 0.15)
    h = 1e-6
    boundaries = (params.kink_low, params.kink_high, params.tau)
    checked = 0
    while checked < 200:
        n = 16
        preds = rng.uniform(0.0, 1.0, n)
        if min(abs(p - b) for p in preds for b in boundaries) < 1e-3:
            continue
        if preds.min() < h or preds.max() > 1.0 - h:
            continue
        labels = rng.integers(0, 2, n)
        batch = LabeledBatch(preds, labels)
        grads = aggregate_soft_grad(batch, params)
        i = int(rng.integers(0, n))
        for field in ("tp", "fp", "fn", "tn"):
            up = preds.copy()
            down = preds.copy()
            up[i] += h
            down[i] -= h
            c_up = aggregate_soft(LabeledBatch(up, labels), params)
            c_dn = aggregate_soft(LabeledBatch(down, labels), params)
            fd = (getattr(c_up, field) - getattr(c_dn, field)) / (2 * h)
            analytic = getattr(grads, field)[i]
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)
        checked += 1


def test_soft_paths_accept_fitted_sigmoid():
    fit = fit_sigmoid(HeavisideParams(0.5, 0.1))
    batch = LabeledBatch(np.array([0.2, 0.5, 0.8]), np.array([0.0, 1.0, 1.0]))
    counts = aggregate_soft(batch, fit)
    grads = aggregate_soft_grad(batch, fit)
    for field in ("tp", "fp", "fn", "tn"):
        assert 0.0 <= getattr(counts, field) <= 3.0
        assert np.all(np.isfinite(getattr(grads, field)))
    # the fitted curve crosses 0.5 at its own center, so the branch switch
    # stays continuous there as well
    assert memberships(fit.tau, 1, fit).tp == pytest.approx(0.5, abs=1e-12)


# -------------------------------------------------------------- hard counts


def test_aggregate_hard_example():
    batch = LabeledBatch(np.array([0.9, 0.2, 0.8, 0.1]),
                         np.array([1.0, 0.0, 0.0, 1.0]))
    counts = aggregate_hard(batch, 0.5)
    assert counts == HardCounts(tp=1, fp=1, fn=1, tn=1)


def test_aggregate_hard_partition():
    rng = np.random.default_rng(83)
    for _ in range(50):
        batch = random_batch(rng, int(rng.integers(1, 100)))
        counts = aggregate_hard(batch, float(rng.uniform(0.1, 0.9)))
        assert counts.tp + counts.fp + counts.fn + counts.tn == batch.n


def test_aggregate_hard_all_negative():
    batch = LabeledBatch(np.full(7, 0.2), np.zeros(7))
    assert aggregate_hard(batch, 0.5) == HardCounts(tp=0, fp=0, fn=0, tn=7)


def test_aggregate_hard_tie_goes_positive():
    batch = LabeledBatch(np.array([0.5]), np.array([1.0]))
    assert aggregate_hard(batch, 0.5) == HardCounts(tp=1, fp=0, fn=0, tn=0)
    batch = LabeledBatch(np.array([0.5]), np.array([0.0]))
    assert aggregate_hard(batch, 0.5) == HardCounts(tp=0, fp=1, fn=0, tn=0)


@st.composite
def hard_cases(draw):
    """A threshold and a batch whose predictions often sit exactly on it."""
    tau = draw(st.floats(0.0, 1.0))
    n = draw(st.integers(1, 64))
    on_or_off = st.one_of(st.just(tau), st.floats(0.0, 1.0))
    preds = draw(arrays(float, n, elements=on_or_off))
    labels = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    return LabeledBatch(preds, labels), tau


@settings(max_examples=200, deadline=None)
@given(hard_cases())
def test_aggregate_hard_matches_four_mask_reference(case):
    batch, tau = case
    predicted = batch.predictions >= tau  # ties go to the positive class
    positive = batch.labels == 1.0
    reference = HardCounts(tp=int(np.sum(positive & predicted)),
                           fp=int(np.sum(~positive & predicted)),
                           fn=int(np.sum(positive & ~predicted)),
                           tn=int(np.sum(~positive & ~predicted)))
    counts = aggregate_hard(batch, tau)
    assert counts == reference
    assert all(type(getattr(counts, cell)) is int for cell in CELLS)


def test_soft_counts_type_holds_floats():
    counts = SoftCounts(tp=1.5, fp=0.25, fn=0.75, tn=2.5)
    assert counts.tp + counts.fp + counts.fn + counts.tn == pytest.approx(5.0)

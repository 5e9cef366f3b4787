import numpy as np
import pytest

from softstep.heaviside import (
    HeavisideParams,
    LookupTable,
    SigmoidFit,
    SigmoidFitError,
    UnknownThresholdError,
    _fit_logistic,
    build_lookup_table,
    cached_approximation,
    fit_sigmoid,
    heaviside_approx,
    heaviside_approx_grad,
    heaviside_exact,
    lookup,
    sigmoid_approx,
    sigmoid_approx_grad,
)

# Brute-force coarse-to-fine grid search over (k, center) minimizing the same
# 200-point SSE objective, run separately; fit_sigmoid must land on these.
SIGMOID_ORACLE = {
    (0.5, 0.1): (7.68035669, 0.50000000, 0.042235311375),
    (0.7, 0.1): (11.95812443, 0.69780840, 0.146085696021),
    (0.3, 0.2): (7.68066215, 0.31134759, 0.306248168534),
    (0.9, 0.1): (34.42036427, 0.89882917, 0.467963019475),
}


def random_params(rng):
    tau = rng.uniform(0.05, 0.95)
    delta = rng.uniform(0.01, 0.49)
    return HeavisideParams(tau, delta)


# ---------------------------------------------------------------- exact step


def test_exact_step_values_and_tie():
    assert heaviside_exact(0.49, 0.5) == 0.0
    assert heaviside_exact(0.51, 0.5) == 1.0
    # ties at the threshold go to the positive class
    assert heaviside_exact(0.5, 0.5) == 1.0


def test_exact_step_vectorized():
    out = heaviside_exact(np.array([0.0, 0.3, 0.3, 1.0]), 0.3)
    assert out.tolist() == [0.0, 1.0, 1.0, 1.0]


# ------------------------------------------------------------------- slopes


def test_segment_slopes_symmetric_case():
    params = HeavisideParams(0.5, 0.1)
    m1, m2, m3 = params.slope_low, params.slope_mid, params.slope_high
    assert m1 == pytest.approx(0.4, abs=1e-15)
    assert m2 == pytest.approx(1.6, abs=1e-15)
    assert m3 == pytest.approx(0.4, abs=1e-15)


def test_segment_slopes_asymmetric_case():
    params = HeavisideParams(0.7, 0.1)
    m1, m2, m3 = params.slope_low, params.slope_mid, params.slope_high
    assert m1 == pytest.approx(0.1 / 0.55, rel=1e-12)
    assert m2 == pytest.approx(0.8 / 0.3, rel=1e-12)
    assert m3 == pytest.approx(0.1 / 0.15, rel=1e-12)


def test_slopes_positive_for_random_params():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = random_params(rng)
        for slope in (params.slope_low, params.slope_mid,
                      params.slope_high):
            assert slope > 0.0 and np.isfinite(slope)


def test_param_validation():
    for tau in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            HeavisideParams(tau, 0.1)
    for delta in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            HeavisideParams(0.5, delta)


# -------------------------------------------------------- surrogate values


def test_surrogate_fixed_point_exactness():
    # 0, tau, 1 must come out bitwise exact, not merely close
    rng = np.random.default_rng(11)
    for _ in range(300):
        params = random_params(rng)
        assert heaviside_approx(0.0, params) == 0.0
        assert heaviside_approx(params.tau, params) == 0.5
        assert heaviside_approx(1.0, params) == 1.0


def test_surrogate_known_values():
    # on the middle segment: 0.5 + 1.6 * 0.25 at the upper kink
    assert heaviside_approx(0.75, HeavisideParams(0.5, 0.1)) == pytest.approx(
        0.9, abs=1e-12)
    # lower kink of the tau=0.7 curve sits at p=0.55 with value delta
    assert heaviside_approx(0.55, HeavisideParams(0.7, 0.1)) == pytest.approx(
        0.1, abs=1e-12)


def test_surrogate_kink_values_and_continuity():
    rng = np.random.default_rng(23)
    for _ in range(300):
        params = random_params(rng)
        lo, hi = params.kink_low, params.kink_high
        assert heaviside_approx(lo, params) == pytest.approx(
            params.delta, abs=1e-12)
        assert heaviside_approx(hi, params) == pytest.approx(
            1.0 - params.delta, abs=1e-12)
        # segment formulas agree across each kink
        lower_at_lo = params.delta * (lo / lo)
        middle_at_lo = 0.5 + params.slope_mid * (lo - params.tau)
        assert abs(lower_at_lo - middle_at_lo) < 1e-12
        upper_at_hi = 1.0 - params.delta * ((1.0 - hi) / (1.0 - hi))
        middle_at_hi = 0.5 + params.slope_mid * (hi - params.tau)
        assert abs(upper_at_hi - middle_at_hi) < 1e-12


def test_surrogate_monotone_and_bounded():
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(50):
        params = random_params(rng)
        vals = heaviside_approx(grid, params)
        assert np.all(np.diff(vals) > 0.0)
        assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_kinks_inside_unit_interval():
    rng = np.random.default_rng(37)
    for _ in range(300):
        params = random_params(rng)
        assert 0.0 < params.kink_low < params.tau < params.kink_high < 1.0


# ------------------------------------------------------------------ gradient


def test_grad_piecewise_constant_values():
    params = HeavisideParams(0.5, 0.1)
    assert heaviside_approx_grad(0.1, params) == pytest.approx(0.4)
    assert heaviside_approx_grad(0.5, params) == pytest.approx(1.6)
    assert heaviside_approx_grad(0.9, params) == pytest.approx(0.4)
    # kinks take the middle slope: the outer segments are open intervals
    assert heaviside_approx_grad(0.25, params) == pytest.approx(1.6)
    assert heaviside_approx_grad(0.75, params) == pytest.approx(1.6)


def test_grad_total_and_positive():
    rng = np.random.default_rng(41)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(50):
        params = random_params(rng)
        g = heaviside_approx_grad(grid, params)
        assert np.all(np.isfinite(g)) and np.all(g > 0.0)


def test_grad_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(43)
    h = 1e-6
    checked = 0
    while checked < 500:
        params = random_params(rng)
        p = rng.uniform(h, 1.0 - h)
        if min(abs(p - params.kink_low), abs(p - params.kink_high)) < 1e-3:
            continue
        fd = (heaviside_approx(p + h, params)
              - heaviside_approx(p - h, params)) / (2.0 * h)
        assert heaviside_approx_grad(p, params) == pytest.approx(fd, rel=1e-6)
        checked += 1


# -------------------------------------------------------------- lookup table


def test_lookup_matches_direct_evaluation_on_grid():
    table = build_lookup_table(101, [0.25, 0.5, 0.75], delta=0.1)
    for tau in (0.25, 0.5, 0.75):
        params = HeavisideParams(tau, 0.1)
        for i in range(101):
            p = i / 100
            assert lookup(table, p, tau) == pytest.approx(
                heaviside_approx(p, params), abs=1e-12)


def test_lookup_truncates_between_grid_points():
    table = build_lookup_table(11, [0.5], delta=0.1)
    # p=0.37 truncates to grid point 0.3
    expected = heaviside_approx(0.3, HeavisideParams(0.5, 0.1))
    assert lookup(table, 0.37, 0.5) == pytest.approx(expected, abs=1e-12)


def test_lookup_endpoints():
    table = build_lookup_table(1000, [0.5], delta=0.1)
    assert lookup(table, 0.0, 0.5) == 0.0
    assert lookup(table, 1.0, 0.5) == 1.0


def test_lookup_rejects_unknown_threshold():
    table = build_lookup_table(100, [0.3, 0.5], delta=0.1)
    with pytest.raises(UnknownThresholdError):
        lookup(table, 0.5, 0.4)
    # a threshold within rounding distance of a grid entry is accepted
    assert lookup(table, 0.2, 0.5 + 1e-12) == lookup(table, 0.2, 0.5)


def test_lookup_error_bounded_by_slope_times_step():
    rng = np.random.default_rng(47)
    taus = [0.3, 0.5, 0.7]
    table = build_lookup_table(500, taus, delta=0.1)
    for tau in taus:
        params = HeavisideParams(tau, 0.1)
        steepest = max(params.slope_low, params.slope_mid, params.slope_high)
        bound = steepest * table.p_step + 1e-12
        for p in rng.uniform(0.0, 1.0, 400):
            err = abs(lookup(table, p, tau) - heaviside_approx(p, params))
            assert err <= bound


def test_quantized_table_size_and_error():
    taus = [round(0.1 * i, 1) for i in range(1, 10)]
    table = build_lookup_table(111, taus, delta=0.1, quantized=True)
    assert table.nbytes == 111 * 9
    assert table.nbytes <= 1024
    rng = np.random.default_rng(53)
    for tau in taus:
        params = HeavisideParams(tau, 0.1)
        # truncation bound plus half a uint8 quantization step
        steepest = max(params.slope_low, params.slope_mid, params.slope_high)
        bound = steepest * table.p_step + 0.5 / 255 + 1e-12
        for p in rng.uniform(0.0, 1.0, 200):
            err = abs(lookup(table, p, tau) - heaviside_approx(p, params))
            assert err <= bound


def test_build_lookup_table_validation():
    with pytest.raises(ValueError):
        build_lookup_table(1, [0.5])
    with pytest.raises(ValueError):
        build_lookup_table(100, [])
    with pytest.raises(ValueError):
        LookupTable(10, (0.5,), 0.1, np.zeros(5))


# ------------------------------------------------------------- sigmoid fit


def test_fit_sigmoid_matches_grid_search_oracle():
    for (tau, delta), (k_ref, c_ref, sse_ref) in SIGMOID_ORACLE.items():
        fit = fit_sigmoid(HeavisideParams(tau, delta))
        assert fit.k == pytest.approx(k_ref, rel=1e-3)
        assert fit.tau == pytest.approx(c_ref, abs=1e-4)
        # Gauss-Newton must do at least as well as the reference search
        assert fit.residual <= sse_ref + 1e-9


def test_fit_sigmoid_symmetric_center():
    fit = fit_sigmoid(HeavisideParams(0.5, 0.1))
    assert fit.tau == pytest.approx(0.5, abs=1e-9)


def test_sigmoid_value_known_point():
    fit = SigmoidFit(k=10.0, tau=0.5, residual=0.0)
    # 1 / (1 + exp(-1))
    assert sigmoid_approx(0.6, fit) == pytest.approx(0.73105857863, rel=1e-10)
    assert sigmoid_approx(0.5, fit) == pytest.approx(0.5, abs=1e-15)


def test_sigmoid_overflow_safe():
    fit = SigmoidFit(k=1e4, tau=0.5, residual=0.0)
    with np.errstate(over="raise"):
        vals = sigmoid_approx(np.linspace(0.0, 1.0, 101), fit)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(0.0, abs=1e-300)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_grad_matches_finite_differences():
    fit = fit_sigmoid(HeavisideParams(0.7, 0.1))
    rng = np.random.default_rng(59)
    h = 1e-6
    for p in rng.uniform(h, 1.0 - h, 200):
        fd = (sigmoid_approx(p + h, fit) - sigmoid_approx(p - h, fit)) / (2 * h)
        assert sigmoid_approx_grad(p, fit) == pytest.approx(fd, rel=1e-5)


def test_sigmoid_fit_validation():
    with pytest.raises(ValueError):
        SigmoidFit(k=0.0, tau=0.5, residual=0.0)
    with pytest.raises(ValueError):
        SigmoidFit(k=-3.0, tau=0.5, residual=0.0)
    with pytest.raises(ValueError):
        SigmoidFit(k=5.0, tau=0.5, residual=float("nan"))
    with pytest.raises(ValueError):
        fit_sigmoid(HeavisideParams(0.5, 0.1), grid_size=5)


def test_fit_logistic_rejects_nonfinite_target():
    grid = np.linspace(0.0, 1.0, 50)
    target = np.full(50, np.nan)
    with pytest.raises(SigmoidFitError):
        _fit_logistic(grid, target, 4.0, 0.5)


# ------------------------------------------------------ shared approximation


def test_duck_typed_interface():
    params = HeavisideParams(0.6, 0.1)
    fit = fit_sigmoid(params)
    for approx in (params, fit):
        assert approx.tau == pytest.approx(0.6, abs=0.05)
        v = approx.value(np.array([0.2, 0.6, 0.9]))
        g = approx.grad(np.array([0.2, 0.6, 0.9]))
        assert v.shape == (3,) and g.shape == (3,)
        assert np.all(g > 0.0)


def test_cached_approximation_families():
    piecewise = cached_approximation("piecewise", 0.5, 0.1)
    assert isinstance(piecewise, HeavisideParams)
    fit1 = cached_approximation("sigmoid_fit", 0.5, 0.1)
    fit2 = cached_approximation("sigmoid_fit", 0.5, 0.1)
    assert isinstance(fit1, SigmoidFit)
    assert fit1 is fit2
    with pytest.raises(ValueError):
        cached_approximation("cubic", 0.5, 0.1)

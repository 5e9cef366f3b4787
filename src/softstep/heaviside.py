"""Step function, its piecewise-linear surrogate, and supporting machinery.

The exact step maps a probability to {0, 1} at a threshold ``tau`` (ties go
to the positive class). Thresholding is not usable for gradient training, so
this module provides a three-segment piecewise-linear surrogate parameterized
by ``tau`` and a slope parameter ``delta``: it is continuous, strictly
increasing, exact at p = 0, tau, 1 (values 0, 0.5, 1), and has a strictly
positive derivative everywhere. A precomputed lookup table gives a constant
time evaluation path, and a logistic curve fitted by least squares to the
surrogate serves as a comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

EPS_TAU_MATCH = 1e-9


class SigmoidFitError(RuntimeError):
    """Least-squares logistic fit could not reduce its residual."""


class UnknownThresholdError(KeyError):
    """Lookup requested at a threshold that is not on the table's grid."""


def _as_float_array(p):
    return np.asarray(p, dtype=float)


def _scalar_or_array(out, like):
    if np.ndim(like) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class HeavisideParams:
    """Threshold and slope parameter defining the three-segment surrogate.

    The middle segment is centered on ``tau`` and spans ``mid_width``
    = min(tau, 1 - tau), so its endpoints (the kinks) never leave [0, 1].
    Segment slopes are derived so the curve passes through (0, 0),
    (kink_low, delta), (tau, 0.5), (kink_high, 1 - delta) and (1, 1).
    """

    tau: float
    delta: float = 0.1
    mid_width: float = field(init=False, repr=False)
    kink_low: float = field(init=False, repr=False)
    kink_high: float = field(init=False, repr=False)
    slope_low: float = field(init=False, repr=False)
    slope_mid: float = field(init=False, repr=False)
    slope_high: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta}")
        mid_width = min(self.tau, 1.0 - self.tau)
        kink_low = self.tau - mid_width / 2.0
        kink_high = self.tau + mid_width / 2.0
        object.__setattr__(self, "mid_width", mid_width)
        object.__setattr__(self, "kink_low", kink_low)
        object.__setattr__(self, "kink_high", kink_high)
        object.__setattr__(self, "slope_low", self.delta / kink_low)
        object.__setattr__(self, "slope_mid", (1.0 - 2.0 * self.delta) / mid_width)
        object.__setattr__(self, "slope_high", self.delta / (1.0 - kink_high))
        for name in ("slope_low", "slope_mid", "slope_high"):
            slope = getattr(self, name)
            if not (np.isfinite(slope) and slope > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {slope}")

    def value(self, p):
        return heaviside_approx(p, self)

    def grad(self, p):
        return heaviside_approx_grad(p, self)


def heaviside_exact(p, tau: float):
    """Exact step: 1 where p >= tau, else 0. Elementwise on arrays."""
    arr = _as_float_array(p)
    out = (arr >= tau).astype(float)
    return _scalar_or_array(out, p)


def _piecewise(arr, params):
    """Surrogate values and derivatives; params may be (T, 1) columns.

    Lower segment for p < kink_low, upper for p > kink_high, middle
    otherwise, so both kinks take the middle slope and the derivative is
    total and strictly positive. The algebraic forms are arranged so that
    p = 0, tau and 1 evaluate to exactly 0.0, 0.5 and 1.0 in floating point.
    """
    below = arr < params.kink_low
    above = arr > params.kink_high
    upper = 1.0 - params.delta * ((1.0 - arr) / (1.0 - params.kink_high))
    # masked copies over the middle segment: no nested np.where temporaries
    value = np.asarray(0.5 + params.slope_mid * (arr - params.tau))
    np.copyto(value, upper, where=above)
    np.copyto(value, params.delta * (arr / params.kink_low), where=below)
    grad = np.where(below, params.slope_low,
                    np.where(above, params.slope_high, params.slope_mid))
    return value, grad


def heaviside_approx(p, params: HeavisideParams):
    """Three-segment piecewise-linear surrogate of the step at ``params.tau``."""
    return _scalar_or_array(_piecewise(_as_float_array(p), params)[0], p)


def heaviside_approx_grad(p, params: HeavisideParams):
    """Derivative of the surrogate: the active segment's slope."""
    return _scalar_or_array(_piecewise(_as_float_array(p), params)[1], p)


@dataclass(frozen=True)
class LookupTable:
    """Precomputed surrogate values on a (p, tau) grid for O(1) evaluation.

    ``values`` is flat with layout ``i * len(tau_grid) + j`` for p index i
    and threshold index j; p index i maps to p = i / (p_resolution - 1).
    In quantized mode values are stored as uint8 in steps of 1/255, which
    keeps the byte size of the table at ``p_resolution * len(tau_grid)``.
    """

    p_resolution: int
    tau_grid: tuple[float, ...]
    delta: float
    values: np.ndarray
    quantized: bool = False

    def __post_init__(self):
        if len(self.values) != self.p_resolution * len(self.tau_grid):
            raise ValueError("values length must be p_resolution * len(tau_grid)")

    @property
    def p_step(self) -> float:
        return 1.0 / (self.p_resolution - 1)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def cell(self, i: int, j: int) -> float:
        raw = self.values[i * len(self.tau_grid) + j]
        return float(raw) / 255.0 if self.quantized else float(raw)


def build_lookup_table(p_resolution: int, tau_grid, delta: float = 0.1,
                       quantized: bool = False) -> LookupTable:
    """Tabulate the surrogate at p = i/(p_resolution-1) for every grid tau."""
    if p_resolution < 2:
        raise ValueError(f"p_resolution must be >= 2, got {p_resolution}")
    taus = tuple(float(t) for t in tau_grid)
    if not taus:
        raise ValueError("tau_grid must not be empty")
    p_points = np.linspace(0.0, 1.0, p_resolution)
    table = np.empty((p_resolution, len(taus)))
    for j, tau in enumerate(taus):
        table[:, j] = heaviside_approx(p_points, HeavisideParams(tau, delta))
    flat = np.clip(table.reshape(-1), 0.0, 1.0)
    if quantized:
        flat = np.round(flat * 255.0).astype(np.uint8)
    return LookupTable(p_resolution, taus, delta, flat, quantized)


def lookup(table: LookupTable, p: float, tau: float) -> float:
    """Constant-time surrogate evaluation: truncate p to the table grid.

    ``tau`` must match a grid threshold after rounding to the nearest one;
    anything further than 1e-9 from the grid raises UnknownThresholdError.
    """
    grid = table.tau_grid
    j = min(range(len(grid)), key=lambda idx: abs(grid[idx] - tau))
    if abs(grid[j] - tau) > EPS_TAU_MATCH:
        raise UnknownThresholdError(
            f"tau={tau} is not on the table grid {grid}")
    # nudge keeps p values that sit exactly on the grid in their own bucket
    # (0.57 * 100 rounds to 56.999... in binary floating point)
    i = min(int(p * (table.p_resolution - 1) + 1e-9), table.p_resolution - 1)
    return table.cell(i, j)


@dataclass(frozen=True)
class SigmoidFit:
    """Logistic curve 1/(1 + exp(-k (p - tau))) fitted to the surrogate.

    ``tau`` is the fitted center (where the curve crosses 0.5), ``residual``
    the sum of squared errors over the fitting grid.
    """

    k: float
    tau: float
    residual: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError(f"steepness k must be positive, got {self.k}")
        if not (np.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"residual must be >= 0, got {self.residual}")

    def value(self, p):
        return sigmoid_approx(p, self)

    def grad(self, p):
        return sigmoid_approx_grad(p, self)


def logistic(z):
    """Elementwise 1 / (1 + exp(-z)), overflow-safe for any z."""
    z = np.asarray(z, dtype=float)
    # exp of a non-positive argument cannot overflow; each branch is the
    # usual stable form for its sign of z
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def _sigmoid(arr, fit):
    """Logistic values and their derivatives k * s * (1 - s) at ``arr``."""
    s = logistic(fit.k * (arr - fit.tau))
    return s, fit.k * s * (1.0 - s)


def sigmoid_approx(p, fit: SigmoidFit):
    """Evaluate the fitted logistic; overflow-safe for any k."""
    return _scalar_or_array(_sigmoid(_as_float_array(p), fit)[0], p)


def sigmoid_approx_grad(p, fit: SigmoidFit):
    """Analytic derivative k * s * (1 - s) of the fitted logistic."""
    return _scalar_or_array(_sigmoid(_as_float_array(p), fit)[1], p)


def _logistic_sse(grid, target, k, center):
    return float(np.sum((logistic(k * (grid - center)) - target) ** 2))


def _fit_logistic(grid, target, k0, center0, max_iter=100, tol=1e-10):
    """Gauss-Newton with step halving on (k, center).

    Raises SigmoidFitError when the residual is or becomes non-finite, or
    the normal equations degenerate, i.e. the iteration cannot reduce the
    residual. Stopping with residual improvement below ``tol`` counts as
    convergence.
    """
    k, center = float(k0), float(center0)
    residual = _logistic_sse(grid, target, k, center)
    if not np.isfinite(residual):
        raise SigmoidFitError("initial residual is not finite")
    for _ in range(max_iter):
        s = logistic(k * (grid - center))
        ds = s * (1.0 - s)
        r = s - target
        jac = np.column_stack(((grid - center) * ds, -k * ds))
        lhs = jac.T @ jac
        rhs = -(jac.T @ r)
        try:
            step = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SigmoidFitError("normal equations are singular") from exc
        if not np.all(np.isfinite(step)):
            raise SigmoidFitError("non-finite Gauss-Newton step")
        scale = 1.0
        improved = None
        for _ in range(30):
            k_try = k + scale * step[0]
            center_try = center + scale * step[1]
            if k_try > 0.0:
                res_try = _logistic_sse(grid, target, k_try, center_try)
                if np.isfinite(res_try) and res_try < residual:
                    improved = (k_try, center_try, res_try)
                    break
            scale /= 2.0
        if improved is None:
            break
        gain = residual - improved[2]
        k, center, residual = improved
        if gain < tol:
            break
    return k, center, residual


def fit_sigmoid(params: HeavisideParams, grid_size: int = 200) -> SigmoidFit:
    """Least-squares logistic fit to the piecewise-linear surrogate.

    The fit runs over an evenly spaced p-grid of ``grid_size`` points,
    started from center = tau and k = 4 * slope_mid (the logistic's central
    slope is k/4, so this matches middle-segment slopes).
    """
    if grid_size < 10:
        raise ValueError(f"grid_size must be >= 10, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    target = heaviside_approx(grid, params)
    k, center, residual = _fit_logistic(
        grid, target, 4.0 * params.slope_mid, params.tau)
    return SigmoidFit(k=k, tau=center, residual=residual)


# the surrogate families cached_approximation builds, by name
APPROXIMATIONS = ("piecewise", "sigmoid_fit")


@lru_cache(maxsize=512)
def cached_approximation(family: str, tau: float, delta: float):
    """Shared builder for loss code: one approximation per (family, tau, delta).

    ``family`` is "piecewise" for the linear surrogate or "sigmoid_fit" for
    the logistic fitted to it. Fitting is the expensive path, hence the cache.
    """
    params = HeavisideParams(tau, delta)
    if family == "piecewise":
        return params
    if family == "sigmoid_fit":
        return fit_sigmoid(params)
    raise ValueError(f"unknown approximation family: {family!r}")


class ApproximationStack:
    """Approximations of one family, evaluated at T thresholds in one pass.

    Each member parameter becomes a read-only (T, 1) column, which
    broadcasts a length-n prediction vector to (T, n). ``tau`` holds the
    branch thresholds: tau itself, or the fitted center of a SigmoidFit.
    """

    def __init__(self, members):
        members = tuple(members)
        for param in fields(members[0]):
            column = np.array([[getattr(m, param.name)] for m in members])
            column.flags.writeable = False
            setattr(self, param.name, column)
        self.piecewise = isinstance(members[0], HeavisideParams)

    def value_and_grad(self, p):
        """Surrogate values and derivatives at 1-D ``p``, each (T, len(p))."""
        evaluate = _piecewise if self.piecewise else _sigmoid
        return evaluate(_as_float_array(p), self)


@lru_cache(maxsize=64)
def cached_stack(family: str, taus: tuple[float, ...],
                 delta: float) -> ApproximationStack:
    """The stack of ``cached_approximation`` over ``taus``, built once."""
    return ApproximationStack(cached_approximation(family, tau, delta)
                              for tau in taus)

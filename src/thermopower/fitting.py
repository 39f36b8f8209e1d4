"""Temperature/power curve fits, the relative-residual error metric,
group aggregation, and an exact paired sign test.

All three fit families minimize the same objective, the sum of squared
relative residuals sum(((model_i - y_i)/y_i)**2), so the reported error
sqrt(objective) is exactly the minimized quantity.  Linear and quadratic
fits solve it in closed form as weighted least squares with weights
1/y_i**2.  The exponential fit uses variable projection: at each rate the
offset and scale come from the same kind of weighted solve, leaving a 1-D
Brent search over the rate (see fit_exponential).  FitResult.termination
says why a fit stopped: "converged", or the rate limit it reached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    AllTies,
    DegenerateInput,
    EmptyGroup,
    InitFailure,
    LengthMismatch,
    ZeroMeasurement,
)
from .trace import Trace

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
_LOG_TINY = -math.log(sys.float_info.min)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class FitKind(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class FitResult:
    """A fitted curve.

    coeffs ordering: Linear (a1, a0); Quadratic (a2, a1, a0);
    Exponential (a0, a1, a2).  iterations is 0 for closed-form fits and
    counts objective evaluations for the exponential one.  termination is
    "converged" or the search limit the exponential fit stopped at.
    """

    kind: FitKind
    coeffs: tuple[float, ...]
    error: float
    iterations: int
    converged: bool
    termination: str = "converged"

    def predict(self, temp):
        """The fitted power at a temperature, or at each of an array of them."""
        if self.kind is FitKind.LINEAR:
            a1, a0 = self.coeffs
            return a1 * temp + a0
        if self.kind is FitKind.QUADRATIC:
            a2, a1, a0 = self.coeffs
            return a2 * temp * temp + a1 * temp + a0
        a0, a1, a2 = self.coeffs
        return exp_curve(temp, a1, a2) + a0


def each(fn, x):
    """fn(x) for a float x, or fn of every element of a 1-D array x.

    The elements go through fn as Python floats, so an array result has
    the bits the scalar calls would give: numpy's exp, say, may differ
    from the C library's math.exp in the last place.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def exp_curve(temp, a1: float, a2: float):
    """exp((temp - a1)/a2), the temperature term of every exponential
    curve in the package, at a float or at each element of an array."""
    return each(math.exp, (temp - a1) / a2)


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    """Accept a Trace or a (temps, powers) pair; return float arrays."""
    if isinstance(data, Trace):
        return data.temp_c, data.power_w
    temps, powers = data
    t = np.asarray(temps, float)
    y = np.asarray(powers, float)
    if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
        raise LengthMismatch(f"temps ({t.shape}) and powers ({y.shape}) differ")
    return t, y


def fit_error(measured: Sequence[float], model: Sequence[float]) -> float:
    """sqrt(sum(((model_i - measured_i)/measured_i)**2))."""
    y = np.asarray(measured, float)
    m = np.asarray(model, float)
    if y.shape != m.shape or y.ndim != 1:
        raise LengthMismatch(f"measured ({y.shape}) and model ({m.shape}) differ")
    if y.size == 0:
        raise LengthMismatch("need at least one sample")
    if np.any(y == 0):
        raise ZeroMeasurement("relative residuals undefined for measured power 0")
    return float(np.sqrt(np.sum(((m - y) / y) ** 2)))


def _weighted_poly_fit(t, y, degree: int, kind: FitKind) -> FitResult:
    if np.any(y == 0):
        raise ZeroMeasurement("relative residuals undefined for measured power 0")
    if len(np.unique(t)) < degree + 1:
        raise DegenerateInput(
            f"{kind.value} fit needs >= {degree + 1} distinct temperatures"
        )
    # minimize sum((p(t_i)/y_i - 1)^2): rows [t^d/y ... 1/y], target 1
    cols = [t**k / y for k in range(degree, -1, -1)]
    design = np.column_stack(cols)
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.ones_like(y), rcond=None)
    if rank < degree + 1:
        raise DegenerateInput(f"{kind.value} fit design matrix is rank-deficient")
    model = np.polyval(coeffs, t)
    return FitResult(kind, tuple(map(float, coeffs)), fit_error(y, model), 0, True)


def fit_linear(data) -> FitResult:
    """Best P = a1*T + a0 in the relative-residual sense; coeffs (a1, a0)."""
    t, y = _as_xy(data)
    return _weighted_poly_fit(t, y, 1, FitKind.LINEAR)


def fit_quadratic(data) -> FitResult:
    """Best P = a2*T^2 + a1*T + a0; coeffs (a2, a1, a0)."""
    t, y = _as_xy(data)
    return _weighted_poly_fit(t, y, 2, FitKind.QUADRATIC)


class _Separable:
    """The exponential fit with its linear parameters solved out.

    Temperatures are scaled by the sweep span, so the rate k counts
    e-folds across the sweep: exp((T - a1)/a2) = C*exp(k*d) with
    k = span/a2 and d = (T - T_ref)/span.  For a fixed k the model
    a0 + C*exp(k*d) is linear in (a0, C), and the best pair is a two-column
    weighted least-squares solve, the same objective as _weighted_poly_fit.
    T_ref is the end of the sweep the curve rises towards, so k*d <= 0 and
    every exponential lies in (0, 1]: nothing overflows at any rate the
    search reaches.  The second column is (exp(k*d) - 1)/k, which spans the
    same plane with 1/y and tends to d as k -> 0, so the search passes
    through k = 0, the straight line, as an ordinary point.
    """

    def __init__(self, t, y):
        self.t_lo, self.t_hi = float(t.min()), float(t.max())
        self.span = self.t_hi - self.t_lo
        self.d_rising = (t - self.t_hi) / self.span
        self.d_falling = (t - self.t_lo) / self.span
        self.u = 1.0 / y
        self.uu = float(self.u @ self.u)
        self.a_u = float(self.u.sum()) / self.uu
        self.r0 = 1.0 - self.a_u * self.u  # residual of the best constant model
        self.evaluations = 0

    def _project(self, k: float):
        d = self.d_rising if k > 0 else self.d_falling
        v = (np.expm1(k * d) / k if k else d) * self.u
        w = v - (float(self.u @ v) / self.uu) * self.u  # orthogonal to 1/y
        ww = float(w @ w)
        b = float(w @ self.r0) / ww  # the coefficient of v; C = b/k
        return d, v, w, ww, b, self.r0 - b * w

    def objective(self, k: float) -> float:
        """The least sum of squared relative residuals at rate k."""
        self.evaluations += 1
        r = self._project(k)[-1]
        return float(r @ r)

    def params(self, k: float) -> tuple[float, float, float]:
        """(a0, a1, a2) at rate k; raises DegenerateInput unless C > 0.

        a0 is solved against exp(k*d) itself: from the expm1 column it
        would lose C*eps, which is large beside a0 on a steep curve.
        """
        d, _, _, _, b, _ = self._project(k)
        c = b / k if k else math.nan
        if not c > 0:
            raise DegenerateInput(
                f"best exponential scale C is {c:.3g}; the family needs C > 0"
            )
        a0 = self.a_u - c * float(self.u @ (np.exp(k * d) * self.u)) / self.uu
        a2 = self.span / k
        t_ref = self.t_hi if k > 0 else self.t_lo
        return a0, t_ref - a2 * math.log(c), a2

    def gauss_newton(self, k: float) -> float:
        """k after one Gauss-Newton step on the reduced objective.

        The Jacobian is Kaufman's: the model's derivative in k with the
        linear columns projected out (BIT 15, 1975).
        """
        if not k:
            return k
        d, v, w, ww, b, r = self._project(k)
        g = b * d * (v + self.u / k)  # C*d*exp(k*d)/y
        g -= (float(g @ self.u) / self.uu) * self.u + (float(g @ w) / ww) * w
        gg = float(g @ g)
        return k + float(g @ r) / gg if gg > 0 else k


def _bracket(f, x: float, lo: float, hi: float):
    """Walk downhill from x until f rises, doubling the step each time.

    Returns (a, x, b, f(x), limit) with a < x < b and f(x) <= f(a).  When f
    rose at b (or a), f(x) <= f(b) too and limit is None.  When the walk
    was cut at lo or hi instead, that limit is a or b and is returned as
    limit: f may then be lowest anywhere between x and it.  x must lie
    more than 2 inside [lo, hi]; the first step is 1.
    """
    fx = f(x)
    f_ahead = f(x + 1.0)
    if f_ahead < fx:
        behind, x, fx, step = x, x + 1.0, f_ahead, 2.0
    else:
        behind, step = x + 1.0, -1.0
    while True:
        ahead = min(x + step, hi) if step > 0 else max(x + step, lo)
        f_ahead = f(ahead)
        ends = (min(behind, ahead), x, max(behind, ahead), fx)
        if f_ahead > fx:
            return (*ends, None)
        if ahead in (lo, hi):
            return (*ends, ahead)
        behind, x, fx = x, ahead, f_ahead
        step *= 2


def _brent(f, a: float, x: float, b: float, fx: float):
    """Minimize f on [a, b] from a point x inside it.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5): a parabola through the three best points so far when it steps
    inside the bracket and shrinks faster than the step before last,
    otherwise a golden-section step into the larger side.  f is never
    evaluated at a or b.  Stops when x is known to within
    tol = _SQRT_EPS*(1 + |x|) and returns the final (a, x, b, f(x)), with
    b - a <= 4*tol; an end that never moved is one the minimum could not
    be told apart from.
    """
    w = v = x
    fw = fv = fx
    step = prev_step = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = _SQRT_EPS * (1.0 + abs(x))
        if abs(x - mid) <= 2 * tol - 0.5 * (b - a):
            return a, x, b, fx
        parabolic = False
        if abs(prev_step) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * prev_step) and q * (a - x) < p < q * (b - x):
                prev_step, step = step, p / q
                if min(x + step - a, b - x - step) < 2 * tol:
                    step = math.copysign(tol, mid - x)
                parabolic = True
        if not parabolic:
            prev_step = (b - x) if x < mid else (a - x)
            step = _GOLDEN * prev_step
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_exponential(data) -> FitResult:
    """Best P = exp((T - a1)/a2) + a0; coeffs (a0, a1, a2).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 1973): the
    best (a0, C) of a0 + C*exp(k*d) is solved exactly at each rate k (see
    _Separable), leaving a 1-D Brent minimization over k, finished by
    Gauss-Newton steps while they lower the objective.  The search starts
    from a log-linear regression with a0 floored at 0.95*min(power) and
    walks downhill from there, through k = 0 if need be, to bracket the
    minimum.  It stops at |k| = -ln(smallest normal double), where the
    exponential's range across the sweep leaves the double range; if the
    minimum cannot be told apart from that limit, the result has
    converged=False and termination "exp_range_limit", otherwise
    termination is "converged".  iterations counts objective evaluations.
    Raises DegenerateInput when the best C is not positive (concave data,
    say): the family cannot represent the data.
    """
    t, y = _as_xy(data)
    if np.any(y == 0):
        raise ZeroMeasurement("relative residuals undefined for measured power 0")
    if len(np.unique(t)) < 3:
        raise DegenerateInput("exponential fit needs >= 3 distinct temperatures")
    if y.size < 3:
        raise DegenerateInput("exponential fit needs >= 3 samples")

    # log-linearized starting rate
    shifted = y - 0.95 * float(np.min(y))
    if np.any(shifted <= 0):
        raise InitFailure("power - a0 floor is non-positive; cannot take logs")
    z = np.log(shifted)
    if float(np.max(z) - np.min(z)) < 1e-13:
        raise DegenerateInput("flat power data; a2 is unidentifiable")
    slope = float(np.polyfit(t, z, 1)[0])
    if slope == 0 or not math.isfinite(slope):
        raise DegenerateInput("flat power data; a2 is unidentifiable")

    model = _Separable(t, y)
    start = min(max(slope * model.span, 2.0 - _LOG_TINY), _LOG_TINY - 2.0)
    a, k, b, fk, limit = _bracket(model.objective, start, -_LOG_TINY, _LOG_TINY)
    a, k, b, fk = _brent(model.objective, a, k, b, fk)
    if limit in (a, b):
        k, termination = limit, "exp_range_limit"
    else:
        # Brent knows k to _SQRT_EPS; Gauss-Newton converges quadratically
        # where the residual vanishes, so take its steps while they help
        while True:
            k_new = model.gauss_newton(k)
            if not a < k_new < b:
                break
            f_new = model.objective(k_new)
            if not f_new < fk:
                break
            k, fk = k_new, f_new
        termination = "converged"
    a0, a1, a2 = model.params(k)
    error = fit_error(y, np.exp((t - a1) / a2) + a0)
    return FitResult(
        FitKind.EXPONENTIAL,
        (float(a0), float(a1), float(a2)),
        error,
        model.evaluations,
        termination == "converged",
        termination,
    )


_FITTERS = {
    FitKind.LINEAR: fit_linear,
    FitKind.QUADRATIC: fit_quadratic,
    FitKind.EXPONENTIAL: fit_exponential,
}


def fit(data, kind: FitKind) -> FitResult:
    return _FITTERS[kind](data)


def aggregate_error(fits: Sequence[tuple[Trace, FitResult]]) -> float:
    """Pool every per-sample relative residual in the group, then take the norm.

    Pooling means the squared sums add: two traces with residual-square
    sums s1 and s2 aggregate to sqrt(s1 + s2).
    """
    if len(fits) == 0:
        raise EmptyGroup("cannot aggregate an empty group")
    squares = []
    for trace, result in fits:
        rel = (result.predict(trace.temp_c) - trace.power_w) / trace.power_w
        squares.append(rel * rel)
    # a running sum in sample order, not numpy's pairwise one: the bits are frozen
    return math.sqrt(np.add.accumulate(np.concatenate(squares))[-1])


def sign_test(errors_a: Sequence[float], errors_b: Sequence[float]) -> float:
    """Exact two-sided paired sign test.

    Counts k = #{i : a_i < b_i} over the n non-tied pairs and returns twice
    the smaller binomial tail under Binomial(n, 1/2), clamped to <= 1.  The
    tail is an integer sum of C(n, j) for j <= min(k, n - k), each term
    from the last by C(n, j+1) = C(n, j)*(n-j)/(j+1), divided by 2**n once
    in exact rational arithmetic, so sign_test(a, b) equals sign_test(b, a)
    bit for bit.
    """
    if len(errors_a) != len(errors_b):
        raise LengthMismatch(
            f"paired lists differ in length ({len(errors_a)} vs {len(errors_b)})"
        )
    if len(errors_a) == 0:
        raise LengthMismatch("need at least one pair")
    wins = sum(1 for a, b in zip(errors_a, errors_b) if a < b)
    losses = sum(1 for a, b in zip(errors_a, errors_b) if a > b)
    n = wins + losses
    if n == 0:
        raise AllTies("all pairs are tied; the sign test is uninformative")
    term = tail = 1
    for j in range(min(wins, losses)):
        term = term * (n - j) // (j + 1)
        tail += term
    return float(min(Fraction(2 * tail, 2**n), Fraction(1)))


_PAIRS = (
    (FitKind.EXPONENTIAL, FitKind.QUADRATIC),
    (FitKind.QUADRATIC, FitKind.LINEAR),
    (FitKind.EXPONENTIAL, FitKind.LINEAR),
)


@dataclass
class ModelComparison:
    """Per-trace fits for all three families plus group-level statistics.

    results[i][kind] is the FitResult or None when that fit failed;
    failures records (trace index, kind, message) for every None;
    aggregated[kind] pools residuals over the traces where kind succeeded
    (None if it succeeded nowhere); p_values[(a, b)] is the sign test over
    traces where both families succeeded (None if that set is empty or
    fully tied).
    """

    results: list[dict[FitKind, FitResult | None]]
    failures: list[tuple[int, FitKind, str]]
    aggregated: dict[FitKind, float | None]
    p_values: dict[tuple[FitKind, FitKind], float | None]


def compare_models(traces: Sequence[Trace]) -> ModelComparison:
    """Fit all three families to every trace and test them pairwise."""
    if len(traces) == 0:
        raise EmptyGroup("need at least one trace to compare")
    results: list[dict[FitKind, FitResult | None]] = []
    failures: list[tuple[int, FitKind, str]] = []
    for i, trace in enumerate(traces):
        row: dict[FitKind, FitResult | None] = {}
        for kind, fitter in _FITTERS.items():
            try:
                row[kind] = fitter(trace)
            except Exception as exc:  # record and exclude, never abort the batch
                row[kind] = None
                failures.append((i, kind, f"{type(exc).__name__}: {exc}"))
        results.append(row)

    aggregated: dict[FitKind, float | None] = {}
    for kind in _FITTERS:
        group = [
            (trace, row[kind])
            for trace, row in zip(traces, results)
            if row[kind] is not None
        ]
        aggregated[kind] = aggregate_error(group) if group else None

    p_values: dict[tuple[FitKind, FitKind], float | None] = {}
    for ka, kb in _PAIRS:
        pairs = [
            (row[ka].error, row[kb].error)
            for row in results
            if row[ka] is not None and row[kb] is not None
        ]
        if not pairs:
            p_values[(ka, kb)] = None
            continue
        try:
            p_values[(ka, kb)] = sign_test([a for a, _ in pairs], [b for _, b in pairs])
        except AllTies:
            p_values[(ka, kb)] = None
    return ModelComparison(results, failures, aggregated, p_values)

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

Fits run over batches (fit_batch).  Traces of one length are stacked as
the rows of (m, n) arrays, up to BLOCK of them, and every numpy step
covers the whole block.  Each row goes through the same IEEE operations
in the same order as a trace fitted on its own, with row sums and dot
products taken by the same numpy and BLAS routines, so a fit does not
depend on the batch it is in; fitting one trace is a batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllTies,
    DegenerateInput,
    EmptyGroup,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    ZeroMeasurement,
)
from .trace import Trace, check_samples

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
_LOG_TINY = -math.log(sys.float_info.min)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0

# Traces fitted together: enough to spread numpy's per-call cost thin.  A
# block's fit holds about ten (traces, samples) float arrays at once, so a
# block is also cut to BLOCK_SAMPLES samples: 512 traces of 20 samples, but
# one of 100k.
BLOCK = 512
BLOCK_SAMPLES = 1 << 15


class FitKind(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True, slots=True)
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
        return _curve(self.kind, self.coeffs, temp)


def _curve(kind: FitKind, coeffs, temp):
    """The curve of family kind at temp; coeffs ordered as in FitResult,
    each a float or a column broadcast against an array of temperatures."""
    if kind is FitKind.LINEAR:
        a1, a0 = coeffs
        return a1 * temp + a0
    if kind is FitKind.QUADRATIC:
        a2, a1, a0 = coeffs
        return a2 * temp * temp + a1 * temp + a0
    a0, a1, a2 = coeffs
    return exp_curve(temp, a1, a2) + a0


def each(fn, x):
    """fn(x) for a float x, or fn of every element of an array x.

    The elements go through fn as Python floats, so an array result has
    the bits the scalar calls would give: numpy's exp, say, may differ
    from the C library's math.exp in the last place.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def exp_curve(temp, a1, a2):
    """exp((temp - a1)/a2), the temperature term of every exponential
    curve in the package, at a float or at each element of an array.

    Raises InvalidParams when the result leaves the double range.
    """
    x = (temp - a1) / a2
    try:
        return each(math.exp, x)
    except OverflowError:
        raise InvalidParams(
            f"exp((T - a1)/a2) leaves the double range: (T - a1)/a2 reaches "
            f"{float(np.max(x))!r}"
        ) from None


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    """Accept a Trace or a (temps, powers) pair a Trace could hold; return float arrays."""
    if isinstance(data, Trace):
        return data.temp_c, data.power_w
    temps, powers = data
    t = np.asarray(temps, float)
    y = np.asarray(powers, float)
    if t.ndim != 1 or y.ndim != 1 or t.shape != y.shape:
        raise LengthMismatch(f"temps ({t.shape}) and powers ({y.shape}) differ")
    check_samples(np.zeros(t.size), t, y)  # a pair has no times; any valid ones do
    return t, y


def _errors(y: np.ndarray, model: np.ndarray) -> np.ndarray:
    """fit_error of each row of (y, model)."""
    return np.sqrt(np.sum(((model - y) / y) ** 2, axis=1))


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
    return float(_errors(y[None], m[None])[0])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i.  A stacked matmul of a row by a column
    is the dot product that a 1-D a[i] @ b[i] takes, bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _distinct(t: np.ndarray) -> np.ndarray:
    """len(np.unique(row)) for every row of t."""
    s = np.sort(t, axis=1)
    return (s[:, 1:] != s[:, :-1]).sum(axis=1) + (t.shape[1] > 0)


class _Rows:
    """The traces of one block still being fitted.

    t and y hold the live traces as rows; out holds, for every trace of the
    block, its FitResult or the exception its fit raised.  fail() sets
    traces aside at the step where a fit of that trace alone would have
    raised, so every later step runs on exactly the traces that reach it.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t, self.y = t, y
        self.ids = np.arange(len(t))  # block index of each live row
        self.out: list[FitResult | Exception | None] = [None] * len(t)

    def fail(self, bad, error, *arrays):
        """Fail live row j with error(j) wherever bad[j]; return arrays
        (aligned with the live rows) cut to the rows left."""
        bad = np.asarray(bad, bool)
        if not bad.any():
            return arrays
        for j, i in zip(np.flatnonzero(bad).tolist(), self.ids[bad].tolist()):
            self.out[i] = error(j)
        keep = ~bad
        self.t, self.y, self.ids = self.t[keep], self.y[keep], self.ids[keep]
        return tuple(a[keep] for a in arrays)

    def drop(self, errors: dict[int, Exception], *arrays):
        """fail() each live row j in errors with errors[j]."""
        bad = np.zeros(len(self.ids), bool)
        bad[list(errors)] = True
        return self.fail(bad, errors.__getitem__, *arrays)

    def solve(self, fn, *arrays) -> list:
        """fn(*row) for every live row of arrays.  A row whose fn raises
        fails with that exception, as its fit alone would have; the list
        holds the values of the rows left."""
        values, errors = [], {}
        for j, row in enumerate(zip(*arrays)):
            try:
                values.append(fn(*row))
            except Exception as exc:  # the trace's failure, not the batch's
                errors[j] = exc.with_traceback(None)
        self.drop(errors)
        return values

    def finish(self, kind: FitKind, coeffs, errors, iterations=None, terminations=None):
        """Store a FitResult for every live row."""
        n = len(self.ids)
        iterations = [0] * n if iterations is None else iterations.tolist()
        terminations = ["converged"] * n if terminations is None else terminations.tolist()
        for i, c, e, it, why in zip(
            self.ids.tolist(), coeffs.tolist(), errors.tolist(), iterations, terminations
        ):
            self.out[i] = FitResult(kind, tuple(c), e, it, why == "converged", why)


def _fit_poly(rows: _Rows, degree: int, kind: FitKind) -> None:
    rows.fail(
        _distinct(rows.t) < degree + 1,
        lambda _: DegenerateInput(f"{kind.value} fit needs >= {degree + 1} distinct temperatures"),
    )
    t, y = rows.t, rows.y
    # minimize sum((p(t_i)/y_i - 1)^2): rows [t^d/y ... 1/y], target 1
    with np.errstate(over="ignore", invalid="ignore"):
        design = np.stack([t**k / y for k in range(degree, -1, -1)], axis=2)
    # LAPACK's least squares may never return on an infinite entry
    (design,) = rows.fail(
        ~np.isfinite(design).all(axis=(1, 2)),
        lambda _: DegenerateInput(f"{kind.value} fit design matrix T^k/P leaves the double range"),
        design,
    )
    target = np.ones(t.shape[1])

    def solve(a):
        coeffs, _, rank, _ = np.linalg.lstsq(a, target, rcond=None)
        if rank < degree + 1:
            raise DegenerateInput(f"{kind.value} fit design matrix is rank-deficient")
        return coeffs

    coeffs = np.array(rows.solve(solve, design)).reshape(-1, degree + 1)
    model = np.zeros_like(rows.t)  # np.polyval over rows
    for c in coeffs.T:
        model = model * rows.t + c[:, None]
    rows.finish(kind, coeffs, _errors(rows.y, model))


class _Separable:
    """The exponential fit with its linear parameters solved out, for every
    row of a block.

    Temperatures are scaled by the sweep span, so the rate k counts
    e-folds across the sweep: exp((T - a1)/a2) = C*exp(k*d) with
    k = span/a2 and d = (T - T_ref)/span.  For a fixed k the model
    a0 + C*exp(k*d) is linear in (a0, C), and the best pair is a two-column
    weighted least-squares solve, the same objective as the polynomial fits.
    T_ref is the end of the sweep the curve rises towards, so k*d <= 0 and
    every exponential lies in (0, 1]: nothing overflows at any rate the
    search reaches.  The second column is (exp(k*d) - 1)/k, which spans the
    same plane with 1/y and tends to d as k -> 0, so the search passes
    through k = 0, the straight line, as an ordinary point.

    The weights are u = scale/y, scale the power of two that puts the largest
    in (1, 2]: none underflows, and as the scaling is exact, the search takes
    the same steps at every scale.  params undoes it on a0 and C.

    Each method takes the rates k of the rows ids.  objective and
    gauss_newton also return a mask of the rows where a fit of that trace
    alone divides a float by a zero w.w and raises ZeroDivisionError.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t_lo, self.t_hi = t.min(axis=1), t.max(axis=1)
        self.span = self.t_hi - self.t_lo
        self.d_rising = (t - self.t_hi[:, None]) / self.span[:, None]
        self.d_falling = (t - self.t_lo[:, None]) / self.span[:, None]
        self.scale = np.ldexp(1.0, np.frexp(y.max(axis=1))[1])
        self.u = u = self.scale[:, None] / y
        self.uu = _dots(u, u)
        self.a_u = u.sum(axis=1) / self.uu
        self.r0 = 1.0 - self.a_u[:, None] * u  # residual of the best constant model

    def _project(self, k: np.ndarray, ids):
        kc = k[:, None]
        u, r0 = self.u[ids], self.r0[ids]
        line = kc == 0
        d = np.where(kc > 0, self.d_rising[ids], self.d_falling[ids])
        v = np.where(line, d, np.expm1(kc * d) / np.where(line, 1.0, kc)) * u
        w = v - (_dots(u, v) / self.uu[ids])[:, None] * u  # orthogonal to 1/y
        ww = _dots(w, w)
        b = _dots(w, r0) / ww  # the coefficient of v; C = b/k
        return d, u, v, w, ww, b, r0 - b[:, None] * w

    def objective(self, k: np.ndarray, ids):
        """The least sum of squared relative residuals at each rate k."""
        *_, ww, _, r = self._project(k, ids)
        return _dots(r, r), ww == 0

    def gauss_newton(self, k: np.ndarray, ids):
        """Each k after one Gauss-Newton step on the reduced objective; a
        k of 0 stays.

        The Jacobian is Kaufman's: the model's derivative in k with the
        linear columns projected out (BIT 15, 1975).
        """
        d, u, v, w, ww, b, r = self._project(k, ids)
        kc = k[:, None]
        g = b[:, None] * d * (v + u / np.where(kc == 0, 1.0, kc))  # C*d*exp(k*d)/y
        g = g - ((_dots(g, u) / self.uu[ids])[:, None] * u + (_dots(g, w) / ww)[:, None] * w)
        gg = _dots(g, g)
        stepped = k + _dots(g, r) / np.where(gg > 0, gg, 1.0)
        return np.where((k == 0) | ~(gg > 0), k, stepped), (ww == 0) & (k != 0)

    def params(self, k: np.ndarray, ids):
        """(a0, a1, a2, C) of each row at rate k; C is nan where k is 0, and
        a0, a1, a2 are only meaningful where C > 0.  k must be a rate the
        objective took without a zero w.w.

        a0 is solved against exp(k*d) itself: from the expm1 column it
        would lose C*eps, which is large beside a0 on a steep curve.
        """
        d, u, _, _, _, b, _ = self._project(k, ids)
        scale = self.scale[ids]
        c = np.where(k != 0, b / np.where(k != 0, k, 1.0), math.nan)
        positive = c > 0
        c1 = np.where(positive, c, 1.0)  # logs and rates only where C > 0
        k1 = np.where(positive, k, 1.0)
        a0 = self.a_u[ids] - c1 * _dots(u, np.exp(k1[:, None] * d) * u) / self.uu[ids]
        a2 = self.span[ids] / k1
        t_ref = np.where(k > 0, self.t_hi[ids], self.t_lo[ids])
        return a0 * scale, t_ref - a2 * each(math.log, c1 * scale), a2, c * scale


_OBJECTIVE, _STEP = "objective", "gauss_newton"


def _bracket(x: float, lo: float, hi: float):
    """Walk downhill from x until f rises, doubling the step each time.

    A coroutine: it yields (_OBJECTIVE, x) for each f(x) it needs and is
    sent the value.  Returns (a, x, b, f(x), limit) with a < x < b and
    f(x) <= f(a).  When f rose at b (or a), f(x) <= f(b) too and limit is
    None.  When the walk was cut at lo or hi instead, that limit is a or b
    and is returned as limit: f may then be lowest anywhere between x and
    it.  x must lie more than 2 inside [lo, hi]; the first step is 1.
    """
    fx = yield _OBJECTIVE, x
    f_ahead = yield _OBJECTIVE, x + 1.0
    if f_ahead < fx:
        behind, x, fx, step = x, x + 1.0, f_ahead, 2.0
    else:
        behind, step = x + 1.0, -1.0
    while True:
        ahead = min(x + step, hi) if step > 0 else max(x + step, lo)
        f_ahead = yield _OBJECTIVE, ahead
        ends = (min(behind, ahead), x, max(behind, ahead), fx)
        if f_ahead > fx:
            return (*ends, None)
        if ahead in (lo, hi):
            return (*ends, ahead)
        behind, x, fx = x, ahead, f_ahead
        step *= 2


def _brent(a: float, x: float, b: float, fx: float):
    """Minimize f on [a, b] from a point x inside it.

    A coroutine like _bracket.  Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 5): a parabola through the
    three best points so far when it steps inside the bracket and shrinks
    faster than the step before last, otherwise a golden-section step into
    the larger side.  f is never evaluated at a or b.  Stops when x is
    known to within tol = _SQRT_EPS*(1 + |x|) and returns the final
    (a, x, b, f(x)), with b - a <= 4*tol; an end that never moved is one
    the minimum could not be told apart from.
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
        fu = yield _OBJECTIVE, u
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


def _rate_search():
    """The search for one trace's rate from k = 0, as a coroutine: it
    yields (_OBJECTIVE, k) or (_STEP, k), is sent f(k) or k after a
    Gauss-Newton step, and returns (k, termination)."""
    a, k, b, fk, limit = yield from _bracket(0.0, -_LOG_TINY, _LOG_TINY)
    a, k, b, fk = yield from _brent(a, k, b, fk)
    if limit in (a, b):
        return limit, "exp_range_limit"
    # Brent knows k to _SQRT_EPS; Gauss-Newton converges quadratically
    # where the residual vanishes, so take its steps while they help
    while True:
        k_new = yield _STEP, k
        if not a < k_new < b:
            break
        f_new = yield _OBJECTIVE, k_new
        if not f_new < fk:
            break
        k, fk = k_new, f_new
    return k, "converged"


def _search(model: _Separable):
    """Run _rate_search for every row of model, all in step: each round
    answers every pending request of a kind with one stacked call.

    Returns (k, termination, evaluations) per row and a dict of the rows
    whose search raised, to their exception.  Every k returned is a rate
    the objective took.
    """
    m = len(model.span)
    k, terminations, evaluations = [math.nan] * m, [""] * m, [0] * m
    errors: dict[int, Exception] = {}
    searches = [_rate_search() for _ in range(m)]
    pending = {j: next(search) for j, search in enumerate(searches)}
    while pending:
        asks: dict[str, list[int]] = {_OBJECTIVE: [], _STEP: []}
        for j, (op, _) in pending.items():
            asks[op].append(j)
        for op, ids in asks.items():
            if not ids:
                continue
            rates = np.array([pending[j][1] for j in ids])
            where = slice(None) if len(ids) == m else np.array(ids)
            values, zero = getattr(model, op)(rates, where)
            for j, value, div0 in zip(ids, values.tolist(), zero.tolist()):
                evaluations[j] += op == _OBJECTIVE
                try:
                    if div0:
                        # what Python's float division raised in the per-trace fit
                        raise ZeroDivisionError("float division by zero")
                    pending[j] = searches[j].send(value)
                except StopIteration as done:
                    k[j], terminations[j] = done.value
                    del pending[j]
                except Exception as exc:  # the trace's failure, not the batch's
                    errors[j] = exc.with_traceback(None)
                    del pending[j]
    return np.array(k), np.array(terminations), np.array(evaluations), errors


def _fit_exponential(rows: _Rows) -> None:
    rows.fail(
        _distinct(rows.t) < 3,
        lambda _: DegenerateInput("exponential fit needs >= 3 distinct temperatures"),
    )
    if not rows.ids.size:  # the reductions below have no identity for empty traces
        return
    # the sign of C is rounding noise when the best constant is exact
    rows.fail(
        rows.y.min(axis=1) == rows.y.max(axis=1),
        lambda _: DegenerateInput("flat power data; a2 is unidentifiable"),
    )
    model = _Separable(rows.t, rows.y)
    with np.errstate(divide="ignore", invalid="ignore"):
        k, terminations, evaluations, errors = _search(model)
        ids, k, terminations, evaluations = rows.drop(
            errors, np.arange(len(k)), k, terminations, evaluations
        )
        a0, a1, a2, c = model.params(k, ids)

    def degenerate(j):
        if k[j] == 0:
            return DegenerateInput("the best curve is the straight line, which the "
                                   "exponential family reaches only as C -> inf")
        return DegenerateInput(f"best exponential scale C is {c[j]:.3g}; the family needs C > 0")

    a0, a1, a2, terminations, evaluations = rows.fail(
        ~(c > 0), degenerate, a0, a1, a2, terminations, evaluations
    )
    curve = np.exp((rows.t - a1[:, None]) / a2[:, None]) + a0[:, None]
    rows.finish(
        FitKind.EXPONENTIAL,
        np.stack([a0, a1, a2], axis=1),
        _errors(rows.y, curve),
        evaluations,
        terminations,
    )


def _blocks(keys: Sequence[tuple]):
    """The indices of equal keys, in order, in blocks of at most BLOCK
    traces and BLOCK_SAMPLES samples, and at least one trace.  A key is a
    tuple whose first item is the trace's sample count."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, idx in groups.items():
        size = max(1, min(BLOCK, BLOCK_SAMPLES // max(key[0], 1)))
        for start in range(0, len(idx), size):
            yield idx[start : start + size]


def fit_batch(data: Sequence, kind: FitKind) -> list[FitResult | Exception]:
    """Fit family kind to every Trace or (temps, powers) pair of data.

    Returns, in order, each trace's FitResult or the exception its fit
    raised (without its traceback), the same result or error, bit for bit,
    as fitting that trace alone.  A pair with a non-finite value or a
    non-positive power fails with the InvalidSample a Trace of those
    samples would raise.  Raises LengthMismatch for a pair whose temps and
    powers differ in shape.
    """
    out: list[FitResult | Exception] = [None] * len(data)  # type: ignore[list-item]
    xys = []
    for i, d in enumerate(data):
        try:
            xys.append((i, *_as_xy(d)))
        except InvalidSample as exc:
            out[i] = exc.with_traceback(None)
    for block in _blocks([(t.size,) for _, t, _ in xys]):
        idx, t, y = zip(*(xys[b] for b in block))
        rows = _Rows(np.array(t), np.array(y))
        if kind is FitKind.EXPONENTIAL:
            _fit_exponential(rows)
        else:
            _fit_poly(rows, 1 if kind is FitKind.LINEAR else 2, kind)
        for i, result in zip(idx, rows.out):
            out[i] = result
    return out


def fit(data, kind: FitKind) -> FitResult:
    """Fit family kind to one Trace or (temps, powers) pair: a batch of one."""
    (result,) = fit_batch([data], kind)
    if isinstance(result, Exception):
        raise result
    return result


def fit_linear(data) -> FitResult:
    """Best P = a1*T + a0 in the relative-residual sense; coeffs (a1, a0)."""
    return fit(data, FitKind.LINEAR)


def fit_quadratic(data) -> FitResult:
    """Best P = a2*T^2 + a1*T + a0; coeffs (a2, a1, a0)."""
    return fit(data, FitKind.QUADRATIC)


def fit_exponential(data) -> FitResult:
    """Best P = exp((T - a1)/a2) + a0; coeffs (a0, a1, a2).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 1973): the
    best (a0, C) of a0 + C*exp(k*d) is solved exactly at each rate k (see
    _Separable), leaving a 1-D Brent minimization over k, finished by
    Gauss-Newton steps while they lower the objective.  The search starts
    at k = 0, the straight line, and walks downhill from there to bracket
    the minimum.  It stops at |k| = -ln(smallest normal double), where the
    exponential's range across the sweep leaves the double range; if the
    minimum cannot be told apart from that limit, the result has
    converged=False and termination "exp_range_limit", otherwise
    termination is "converged".  iterations counts objective evaluations.
    Raises DegenerateInput when the best C is not positive (concave data,
    say), when the best curve is the straight line, which the family
    reaches only as C -> inf, or when the powers are all equal: the family
    cannot represent the data.
    """
    return fit(data, FitKind.EXPONENTIAL)


def _squares(fits: Sequence[tuple[Trace, FitResult]]) -> list[np.ndarray]:
    """Each fit's squared relative residuals over its trace, in order,
    computed a block of same-length, same-family fits at a time."""
    out: list[np.ndarray] = [None] * len(fits)  # type: ignore[list-item]
    for idx in _blocks([(len(trace), result.kind) for trace, result in fits]):
        t = np.array([fits[i][0].temp_c for i in idx])
        y = np.array([fits[i][0].power_w for i in idx])
        coeffs = np.array([fits[i][1].coeffs for i in idx]).T[:, :, None]
        rel = (_curve(fits[idx[0]][1].kind, coeffs, t) - y) / y
        for i, row in zip(idx, rel * rel):
            out[i] = row
    return out


def _pool(squares: Sequence[np.ndarray]) -> float:
    # a running sum in sample order, not numpy's pairwise one: the bits are frozen
    return math.sqrt(np.add.accumulate(np.concatenate(squares))[-1])


def aggregate_error(fits: Sequence[tuple[Trace, FitResult]]) -> float:
    """Pool every per-sample relative residual in the group, then take the norm.

    Pooling means the squared sums add: two traces with residual-square
    sums s1 and s2 aggregate to sqrt(s1 + s2).
    """
    if len(fits) == 0:
        raise EmptyGroup("cannot aggregate an empty group")
    return _pool(_squares(fits))


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
    (None if it succeeded nowhere); groups[key][kind] does the same over
    the traces of each group passed to compare_models; p_values[(a, b)] is
    the sign test over traces where both families succeeded (None if that
    set is empty or fully tied).
    """

    results: list[dict[FitKind, FitResult | None]]
    failures: list[tuple[int, FitKind, str]]
    aggregated: dict[FitKind, float | None]
    p_values: dict[tuple[FitKind, FitKind], float | None]
    groups: dict[str, dict[FitKind, float | None]] = field(default_factory=dict)


def compare_models(
    traces: Sequence[Trace], groups: Mapping[str, Sequence[int]] | None = None
) -> ModelComparison:
    """Fit all three families to every trace and test them pairwise.

    groups maps a name to trace indices; each group's residuals are pooled
    per family into ModelComparison.groups, as the whole set's are into
    aggregated.
    """
    if len(traces) == 0:
        raise EmptyGroup("need at least one trace to compare")
    fits = {kind: fit_batch(traces, kind) for kind in FitKind}
    # record and exclude every failure, never abort the batch
    failures = [
        (i, kind, f"{type(r).__name__}: {r}")
        for i, row in enumerate(zip(*fits.values()))
        for kind, r in zip(FitKind, row)
        if isinstance(r, Exception)
    ]
    done = {
        kind: [None if isinstance(r, Exception) else r for r in column]
        for kind, column in fits.items()
    }
    results = [dict(zip(FitKind, row)) for row in zip(*done.values())]

    # one family's squared residuals at a time, pooled for the whole set
    # and for each group in trace order
    aggregated: dict[FitKind, float | None] = {}
    group_errors: dict[str, dict[FitKind, float | None]] = {key: {} for key in groups or {}}
    for kind, column in done.items():
        ok = [i for i, r in enumerate(column) if r is not None]
        squares = dict(zip(ok, _squares([(traces[i], column[i]) for i in ok])))

        def pooled(indices) -> float | None:
            rows = [squares[i] for i in indices if i in squares]
            return _pool(rows) if rows else None

        aggregated[kind] = pooled(range(len(traces)))
        for key, indices in (groups or {}).items():
            group_errors[key][kind] = pooled(indices)

    p_values: dict[tuple[FitKind, FitKind], float | None] = {}
    for ka, kb in _PAIRS:
        pairs = [
            (a.error, b.error)
            for a, b in zip(done[ka], done[kb])
            if a is not None and b is not None
        ]
        if not pairs:
            p_values[(ka, kb)] = None
            continue
        try:
            p_values[(ka, kb)] = sign_test([a for a, _ in pairs], [b for _, b in pairs])
        except AllTies:
            p_values[(ka, kb)] = None
    return ModelComparison(results, failures, aggregated, p_values, group_errors)

"""Temperature/power curve fits, the relative-residual error metric,
group aggregation, and an exact paired sign test.

All three fit families minimize the same objective, the sum of squared
relative residuals sum(((model_i - y_i)/y_i)**2), so the reported error
sqrt(objective) is exactly the minimized quantity.  Linear and quadratic
fits solve it as weighted least squares with weights 1/y_i**2 by modified
Gram-Schmidt, and fail when some column's remainder is at most
eps*max(n, p) of the column, in norm (see _lstsq).  The exponential fit
uses variable projection: at each rate the offset and scale come from the
same kind of weighted solve, leaving a 1-D Brent search over the rate (see
fit_exponential).  FitResult.termination says why a fit stopped:
"converged", or the rate limit it reached.

Fits run over batches of traces whose samples lie in one array (see
_fit_table), in waves of up to WAVE_SAMPLES samples.  The traces of one
length in a wave are the rows of an (m, n) block, and every numpy step
covers the whole block; the exponential rate search runs the rows of a
wave's blocks in step, its state in flat arrays, projecting each block
once a round (see _search).  Each row goes through the same IEEE
operations in the same order as a trace fitted on its own, with row sums
and dot products taken by the same numpy and BLAS routines, so a fit does
not depend on the batch it is in; fitting one trace is a batch of one.  A
family's fits are columns (_Fits), from which fit_batch builds its
FitResults.  compare_models (_Comparison) writes each family's squared
relative residuals into one array over the batch, and pools them from
there by trace.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
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
# wave's fit holds about ten (traces, samples) float arrays at once, so a
# wave holds up to WAVE_SAMPLES samples, and at least one trace: 819 traces
# of 20 samples, but one of 100k.
WAVE_SAMPLES = 1 << 14


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

    Raises InvalidParams when a2 is 0 or the result leaves the double
    range, as where (temp - a1)/a2 overflows to +inf; at -inf it is 0.
    """
    if np.any(a2 == 0):
        raise InvalidParams("a2 must be nonzero")
    with np.errstate(over="ignore"):
        x = (temp - a1) / a2
    if not np.any(x == math.inf):  # math.exp(inf) is inf, not an OverflowError
        try:
            return each(math.exp, x)
        except OverflowError:
            pass
    raise InvalidParams(
        f"exp((T - a1)/a2) leaves the double range: (T - a1)/a2 reaches {float(np.max(x))!r}"
    )


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
    return math.sqrt(np.sum(((m - y) / y) ** 2))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i.  A stacked matmul of a row by a column
    is the dot product that a 1-D a[i] @ b[i] takes, bit for bit."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _distinct(t: np.ndarray) -> np.ndarray:
    """The number of distinct values in every row of t."""
    s = np.sort(t, axis=1)
    return (s[:, 1:] != s[:, :-1]).sum(axis=1) + (t.shape[1] > 0)


def _squares(kind: FitKind, coeffs, temp, power) -> np.ndarray:
    """The squared relative residuals ((curve(temp) - power)/power)**2 of
    family kind's curve, coeffs as _curve takes them."""
    rel = (_curve(kind, coeffs, temp) - power) / power
    return rel * rel


_TERMINATIONS = ("converged", "exp_range_limit")  # FitResult.termination by code


class _Fits:
    """One family's fits of n traces as columns, row i for trace i: coeffs
    (n, p), ordered as in FitResult, error, iterations, and code, the index
    of the termination in _TERMINATIONS.  ok marks the fitted traces;
    failed maps the index of each trace whose fit failed to the exception
    it raised (without its traceback)."""

    def __init__(self, kind: FitKind, n: int):
        self.kind, self.failed = kind, {}
        self.coeffs = np.zeros((n, 2 if kind is FitKind.LINEAR else 3))
        self.error = np.zeros(n)
        self.iterations, self.code = np.zeros((2, n), int)
        self.ok = np.zeros(n, bool)

    def results(self) -> list[FitResult | Exception]:
        """Each trace's FitResult, or the exception its fit raised."""
        kind, failed = self.kind, self.failed
        return [failed[i] if i in failed else FitResult(kind, tuple(c), e, it, not code,
                                                         _TERMINATIONS[code])
                for i, (c, e, it, code) in enumerate(zip(
                    self.coeffs.tolist(), self.error.tolist(), self.iterations.tolist(),
                    self.code.tolist()))]


class _Rows:
    """The traces of one block still being fitted.

    ids holds the live traces' rows of fits, at the offset of their first
    samples in the batch, and t and y their samples as rows.  fail() sets
    traces aside at the step where a fit of that trace alone would have
    raised, so every later step runs on exactly the traces that reach it.
    finish() writes each fitted trace's row of fits, and, if squares is an
    array, its squared relative residuals at its samples' offsets there.
    """

    def __init__(self, ids, at, t, y, fits: _Fits, squares: np.ndarray | None):
        self.ids, self.at, self.t, self.y = ids, at, t, y
        self.fits, self.squares = fits, squares

    def fail(self, bad, error, *arrays):
        """Fail live row j with error(j) wherever bad[j]; return arrays
        (aligned with the live rows) cut to the rows left."""
        bad = np.asarray(bad, bool)
        if not bad.any():
            return arrays
        for j, i in zip(np.flatnonzero(bad).tolist(), self.ids[bad].tolist()):
            self.fits.failed[i] = error(j)
        keep = ~bad
        self.t, self.y, self.ids, self.at = self.t[keep], self.y[keep], self.ids[keep], self.at[keep]
        return tuple(a[keep] for a in arrays)

    def finish(self, coeffs, iterations=0, codes=0) -> None:
        """Write every live row's fit, its error that of its predict()."""
        fits, ids = self.fits, self.ids
        squares = _squares(fits.kind, coeffs.T[:, :, None], self.t, self.y)
        fits.coeffs[ids] = coeffs
        fits.error[ids] = np.sqrt(np.sum(squares, axis=1))
        fits.iterations[ids] = iterations
        fits.code[ids] = codes
        fits.ok[ids] = True
        if self.squares is not None:
            self.squares[self.at[:, None] + np.arange(squares.shape[1])] = squares


@np.errstate(divide="ignore", invalid="ignore")
def _lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares x of a @ x ~ b for every (n, p) design a[..., :, :] and
    target b[..., :], and a mask of the rank-deficient designs, whose x
    means nothing.  Modified Gram-Schmidt with b carried along as the
    residual (Björck, BIT 7, 1967), on columns scaled by powers of two,
    which is exact and keeps their dot products in range.  Rank-deficient:
    some column's remainder has a squared norm at most (eps*max(n, p))**2
    times the column's own, lstsq's default rcond taken column by column.
    """
    n, p = a.shape[-2:]
    e = np.frexp(np.abs(a).max(axis=-2, initial=0.0))[1]
    # contiguous columns: a dot product over a strided row may sum in another order
    w = [np.ldexp(a[..., j], -e[..., j, None]) for j in range(p)]
    u, (z, ww, aa) = np.zeros((*e.shape, p)), np.zeros((3, *e.shape))
    for j in range(p):
        aa[..., j] = _dots(w[j], w[j])
        for i in range(j):
            u[..., i, j] = _dots(w[i], w[j]) / ww[..., i]
            w[j] = w[j] - u[..., i, j, None] * w[i]
        ww[..., j] = _dots(w[j], w[j])
        z[..., j] = _dots(w[j], b) / ww[..., j]
        b = b - z[..., j, None] * w[j]
    for j in range(p - 2, -1, -1):  # back-substitution turns z into x
        for k in range(j + 1, p):
            z[..., j] -= u[..., j, k] * z[..., k]
    return np.ldexp(z, -e), ~(ww > (sys.float_info.epsilon * max(n, p)) ** 2 * aa).all(axis=-1)


def _fit_poly(rows: _Rows, degree: int, kind: FitKind) -> None:
    rows.fail(_distinct(rows.t) < degree + 1, lambda _: DegenerateInput(
        f"{kind.value} fit needs >= {degree + 1} distinct temperatures"))
    t, y = rows.t, rows.y
    # minimize sum((p(t_i)/y_i - 1)^2): rows [t^d/y ... 1/y], target 1
    with np.errstate(over="ignore", invalid="ignore"):
        design = np.stack([t**k / y for k in range(degree, -1, -1)], axis=2)
    (design,) = rows.fail(~np.isfinite(design).all(axis=(1, 2)), lambda _: DegenerateInput(
        f"{kind.value} fit design matrix T^k/P leaves the double range"), design)
    coeffs, singular = _lstsq(design, np.ones_like(rows.y))
    (coeffs,) = rows.fail(singular, lambda _: DegenerateInput(
        f"{kind.value} fit design matrix is rank-deficient"), coeffs)
    rows.finish(coeffs)


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

    The weights are u = 2**e/y, 2**e the power of two that puts the largest
    in (1, 2]: none underflows, and as the scaling is exact, the search takes
    the same steps at every scale.  params undoes it on a0 and C.  As u >= 1,
    d runs exactly from -1 to 0 or from 0 to 1 and |k| <= _LOG_TINY, the
    column's end entries differ by at least (1 - exp(-_LOG_TINY))/_LOG_TINY,
    so w.w >= half that squared, about 9.9e-7, at every rate the search asks for.

    Each method takes the rates k of the rows ids.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray):
        self.t_lo, self.t_hi = t.min(axis=1), t.max(axis=1)
        self.span = self.t_hi - self.t_lo
        self.d_rising = (t - self.t_hi[:, None]) / self.span[:, None]
        self.d_falling = (t - self.t_lo[:, None]) / self.span[:, None]
        self.e = np.frexp(y.max(axis=1))[1]  # 2**e itself may overflow
        self.u = u = np.ldexp(np.ldexp(1.0, self.e - 1)[:, None] / y, 1)
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

    def answer(self, k: np.ndarray, ids, stepping: np.ndarray):
        """The least sum of squared relative residuals at each rate k, or,
        where stepping, k after one Gauss-Newton step on that reduced
        objective; a k of 0 stays.  The rows are projected once.

        The Jacobian is Kaufman's: the model's derivative in k with the
        linear columns projected out (BIT 15, 1975).
        """
        d, u, v, w, ww, b, r = self._project(k, ids)
        f = _dots(r, r)
        if not stepping.any():
            return f
        uu = self.uu[ids]
        if not stepping.all():  # only the stepping rows: a row's arithmetic is its own
            d, u, v, w, ww, b, r, k, uu = (a[stepping] for a in (d, u, v, w, ww, b, r, k, uu))
        kc = k[:, None]
        g = b[:, None] * d * (v + u / np.where(kc == 0, 1.0, kc))  # C*d*exp(k*d)/y
        g = g - ((_dots(g, u) / uu)[:, None] * u + (_dots(g, w) / ww)[:, None] * w)
        gg = _dots(g, g)
        stepped = k + _dots(g, r) / np.where(gg > 0, gg, 1.0)
        f[stepping] = np.where((k == 0) | ~(gg > 0), k, stepped)
        return f

    def params(self, k: np.ndarray, ids):
        """(a0, a1, a2, C) of each row at rate k; C is nan where k is 0, and
        a0, a1, a2 are only meaningful where C > 0.

        a0 is solved against exp(k*d) itself: from the expm1 column it
        would lose C*eps, which is large beside a0 on a steep curve.
        """
        d, u, _, _, _, b, _ = self._project(k, ids)
        e = self.e[ids]
        c = np.where(k != 0, b / np.where(k != 0, k, 1.0), math.nan)
        positive = c > 0
        c1 = np.where(positive, c, 1.0)  # logs and rates only where C > 0
        k1 = np.where(positive, k, 1.0)
        a0 = self.a_u[ids] - c1 * _dots(u, np.exp(k1[:, None] * d) * u) / self.uu[ids]
        a2 = self.span[ids] / k1
        t_ref = np.where(k > 0, self.t_hi[ids], self.t_lo[ids])
        return np.ldexp(a0, e), t_ref - a2 * each(math.log, np.ldexp(c1, e)), a2, np.ldexp(c, e)


_WALK, _BRENT, _STEP, _TRY = range(4)  # what a row's pending rate waits for; see _search


def _search(models: Sequence[_Separable]):
    """Search the rate of every row of every model, all in step.

    A row walks downhill from k = 0, doubling its step until f rises, to
    bracket the minimum (_WALK); runs Brent's method in the bracket
    (_BRENT); then takes Gauss-Newton steps while they lower f (_STEP, and
    _TRY for f at the step); see fit_exponential.  The state of every live
    row sits in flat arrays.  A round answers each row's pending rate k
    with one answer call per model, which projects its live rows once, and
    moves every row on by masked updates.  These use + - * /, comparisons,
    abs and copysign, with Python's min(p, q) written where(q < p, q, p):
    each row takes, to the bit, the steps of the same search on Python
    floats.  Steps no row takes may divide by zero.

    Returns each row's k, whether it ended at the exp_range_limit, and its
    objective evaluations, the rows of models in order.
    """
    sizes = [len(model.span) for model in models]
    starts = list(itertools.accumulate(sizes, initial=0))
    n = starts[-1]
    k_out, evaluations = np.full(n, math.nan), np.zeros(n, int)
    at_limit = np.zeros(n, bool)
    # (x, f(x)), (w, f(w)), (v, f(v)): Brent's best three points, or the
    # walk's best; (k, f): the pending rate and, once answered, its value
    s = np.zeros((14, n))
    x, fx, w, fw, v, fv, k, f, a, b, behind, step, prev, limit = s
    for model, start, size in zip(models, starts, sizes):
        for value, rates in ((fx, np.zeros(size)), (f, np.ones(size))):
            value[start : start + size] = model.answer(rates, slice(None), np.zeros(size, bool))
    down = f < fx  # walk on up from 1 if f is lower there, else down from 0
    behind[:], x[:] = np.where(down, 0.0, 1.0), np.where(down, 1.0, 0.0)
    step[:] = np.where(down, 2.0, -1.0)
    np.copyto(fx, f, where=down)
    k[:] = x + step  # |x + step| <= 3: inside [-_LOG_TINY, _LOG_TINY]
    ints = np.stack([np.arange(n), np.full(n, _WALK), np.zeros(n, int)])  # row, phase, GN steps
    rounds = 0
    while n := s.shape[1]:
        x, fx, w, fw, v, fv, k, f, a, b, behind, step, prev, limit = s
        xp, wp, vp, kp = s[0:2], s[2:4], s[4:6], s[6:8]
        row, phase, steps = ints
        no = np.zeros(n, bool)
        bounds = np.searchsorted(row, starts).tolist()
        blocks = [(model, lo, hi, slice(None) if hi - lo == size else row[lo:hi] - start)
                  for model, lo, hi, start, size in zip(models, bounds, bounds[1:], starts, sizes)
                  if lo < hi]
        while True:  # rounds until a row retires; each live row asks once a round
            rounds += 1
            counts = np.bincount(phase, minlength=4).tolist()
            was = [phase == p if c else None for p, c in enumerate(counts)]
            stepping = was[_STEP] if counts[_STEP] else no
            for model, lo, hi, ids in blocks:
                f[lo:hi] = model.answer(k[lo:hi], ids, stepping[lo:hi])
            finished = hit = ended = no  # done; done at the limit; walk ended
            if counts[_STEP]:  # f is the stepped rate: try it if inside (a, b)
                m = was[_STEP]
                steps += m
                inside = m & (a < f) & (f < b)
                finished = m & ~inside
                np.copyto(k, f, where=inside)
                phase[inside] = _TRY
            if counts[_TRY]:  # keep the step if it lowered f, and step again
                m = was[_TRY]
                better = m & (f < fx)
                finished = finished | (m & ~better)
                np.copyto(xp, kp, where=better)
                phase[better] = _STEP
            if counts[_WALK]:  # end where f rose or the walk was cut at a limit
                m = was[_WALK]
                rose = f > fx
                ended = m & (rose | (k == -_LOG_TINY) | (k == _LOG_TINY))
                if np.count_nonzero(ended):  # Brent starts in [a, b] from x
                    np.copyto(limit, np.where(rose, math.nan, k), where=ended)
                    np.copyto(a, np.where(k < behind, k, behind), where=ended)
                    np.copyto(b, np.where(k > behind, k, behind), where=ended)
                    np.copyto(s[2:6], s[[0, 1, 0, 1]], where=ended)  # w = v = x
                    np.copyto(s[11:13], 0.0, where=ended)  # step = prev = 0
                    phase[ended] = _BRENT
                go = m & ~ended
                np.copyto(behind, x, where=go)
                np.copyto(xp, kp, where=go)
                np.copyto(step, step + step, where=go)
                ahead = x + step  # min(x + step, hi) up, max(x + step, lo) down
                np.copyto(ahead, _LOG_TINY, where=_LOG_TINY < ahead)
                np.copyto(ahead, -_LOG_TINY, where=-_LOG_TINY > ahead)
                np.copyto(k, ahead, where=go)
            if counts[_BRENT]:  # f at u = k: shrink the bracket, keep the best three
                m = was[_BRENT]
                lower, left = f <= fx, k < x
                end = np.where(lower, x, k)
                np.copyto(a, end, where=m & (left != lower))
                np.copyto(b, end, where=m & (left == lower))
                kept, higher = m & lower, m & ~lower
                if np.count_nonzero(higher):  # u is second or third best, or neither
                    second = higher & ((f <= fw) | (w == x))
                    np.copyto(vp, kp, where=higher & ((f <= fv) | (v == x) | (v == w)))
                    np.copyto(vp, wp, where=second)
                    np.copyto(wp, kp, where=second)
                np.copyto(vp, wp, where=kept)
                np.copyto(wp, xp, where=kept)
                np.copyto(xp, kp, where=kept)
            if counts[_BRENT] or np.count_nonzero(ended):
                brent = phase == _BRENT
                mid = 0.5 * (a + b)
                tol = _SQRT_EPS * (1.0 + np.abs(x))
                tol2 = tol + tol  # 2*tol
                close = brent & (np.abs(x - mid) <= tol2 - 0.5 * (b - a))
                if np.count_nonzero(go := brent & ~close):
                    # a parabola through the three points where it steps inside
                    # the bracket and shrinks faster than the step before last,
                    # else a golden section into the larger side
                    parabolic, ax, bx = no, a - x, b - x
                    if np.count_nonzero(trial := go & (np.abs(prev) > tol)):
                        xw, xv = x - w, x - v
                        r = xw * (fx - fv)
                        q = xv * (fx - fw)
                        p = xv * q - xw * r
                        q = 2.0 * (q - r)
                        np.negative(p, out=p, where=q > 0)
                        q = np.abs(q)
                        parabolic = trial & (np.abs(p) < np.abs(0.5 * q * prev))
                        parabolic &= (q * ax < p) & (p < q * bx)
                        parabola = p / q
                        gap_a, gap_b = x + parabola - a, bx - parabola
                        near = np.where(gap_b < gap_a, gap_b, gap_a) < tol2
                        np.copyto(parabola, np.copysign(tol, mid - x), where=near)
                        np.copyto(prev, step, where=parabolic)
                        np.copyto(step, parabola, where=parabolic)
                    if np.count_nonzero(golden := go & ~parabolic):
                        side = np.where(x < mid, bx, ax)
                        np.copyto(prev, side, where=golden)
                        np.copyto(step, _GOLDEN * side, where=golden)
                    move = np.copysign(tol, step)
                    np.copyto(move, step, where=np.abs(step) >= tol)
                    np.copyto(k, x + move, where=go)
                if np.count_nonzero(close):
                    hit = close & ((limit == a) | (limit == b))
                    finished = finished | hit
                    # Brent knows x to _SQRT_EPS; Gauss-Newton converges quadratically
                    # where the residual vanishes, so take its steps while they help
                    np.copyto(k, x, where=close)
                    phase[close] = _STEP
            if finished is not no and np.count_nonzero(finished):
                break
        k_out[row[finished]] = np.where(hit, limit, x)[finished]
        at_limit[row[finished]] = hit[finished]
        evaluations[row[finished]] = 2 + rounds - steps[finished]
        s, ints = s[:, ~finished], ints[:, ~finished]
    return k_out, at_limit, evaluations


def _fit_exponential(blocks: Sequence[_Rows]) -> None:
    models = []
    for rows in blocks:
        rows.fail(
            _distinct(rows.t) < 3,
            lambda _: DegenerateInput("exponential fit needs >= 3 distinct temperatures"),
        )
        if not rows.ids.size:  # the reductions below have no identity for empty traces
            continue
        # the sign of C is rounding noise when the best constant is exact
        rows.fail(
            rows.y.min(axis=1) == rows.y.max(axis=1),
            lambda _: DegenerateInput("flat power data; a2 is unidentifiable"),
        )
        with np.errstate(over="ignore"):  # d = (T - T_ref)/span must run from -1 to 0 or 0 to 1
            rows.fail(np.isinf(np.ptp(rows.t, axis=1)), lambda _: DegenerateInput(
                "the temperatures span more than the double range: max T - min T overflows"))
        with np.errstate(over="ignore", invalid="ignore"):
            model = _Separable(rows.t, rows.y)
        wide = ~np.isfinite(model.uu)
        if wide.any():  # build the model again without those rows
            rows.fail(wide, lambda _: DegenerateInput(
                "the powers span more than the double range: the weights (max P / P)^2 overflow"))
            model = _Separable(rows.t, rows.y)
        models.append((rows, model))
    with np.errstate(divide="ignore", invalid="ignore"):
        k_all, limits, evaluations_all = _search([model for _, model in models])
    end = 0
    for rows, model in models:
        start, end = end, end + len(rows.ids)
        k, evaluations = k_all[start:end], evaluations_all[start:end]
        codes = limits[start:end].astype(int)  # indices into _TERMINATIONS
        # rows whose a0, a1, C or curve overflow are failed below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a0, a1, a2, c = model.params(k, slice(None))
            # a1 holds t_ref - a2*log(C) to its own ulp, which a small a2 can
            # make too large for exp((T - a1)/a2) at the samples
            top = np.exp(np.max((rows.t - a1[:, None]) / a2[:, None], axis=1))

        def degenerate(j):
            if k[j] == 0:
                return DegenerateInput("the best curve is the straight line, which the "
                                       "exponential family reaches only as C -> inf")
            if c[j] > 0:
                return DegenerateInput(f"the best curve leaves the double range: a0 is "
                                       f"{a0[j]:.3g}, C is {c[j]:.3g}")
            return DegenerateInput(f"best exponential scale C is {c[j]:.3g}; the family "
                                   "needs C > 0")

        a0, a1, a2, codes, evaluations = rows.fail(
            ~(c > 0) | ~(np.isfinite(a0) & np.isfinite(a1) & np.isfinite(top)), degenerate,
            a0, a1, a2, codes, evaluations,
        )
        rows.finish(np.stack([a0, a1, a2], axis=1), evaluations, codes)


def _fit_table(fits: _Fits, t: np.ndarray, y: np.ndarray, ends,
               squares: np.ndarray | None = None) -> None:
    """Fit family fits.kind to the traces of fits, whose temps and powers
    are t[a:b] and y[a:b] for consecutive row offsets a, b of ends, but for
    those fits.failed already holds.  Each fitted trace's squared relative
    residuals go to its rows of squares, if given.

    The traces are taken shortest first (stably: in index order within a
    length) into waves of up to WAVE_SAMPLES samples, at least one trace
    each.  The traces of one length in a wave are a block: a view of t and
    y where their rows follow each other, else a copy gathered at once.
    """
    starts, sizes = np.array(ends[:-1], int), np.diff(ends)
    lengths = sizes.tolist()
    waves, samples = [], math.inf
    for j in np.argsort(sizes, kind="stable").tolist():
        if j in fits.failed:
            continue
        if samples + lengths[j] > WAVE_SAMPLES:
            waves.append([])
            samples = 0
        samples += lengths[j]
        waves[-1].append(j)
    for wave in waves:
        blocks = []
        for n, block in itertools.groupby(wave, key=lengths.__getitem__):
            js = np.array(list(block))
            at = starts[js]
            if at[-1] - at[0] == (len(js) - 1) * n:
                rows = slice(at[0], at[0] + len(js) * n)
                tb, yb = t[rows].reshape(len(js), n), y[rows].reshape(len(js), n)
            else:
                rows = at[:, None] + np.arange(n)
                tb, yb = t[rows], y[rows]
            blocks.append(_Rows(js, at, tb, yb, fits, squares))
        if fits.kind is FitKind.EXPONENTIAL:
            _fit_exponential(blocks)
        else:
            for rows in blocks:
                _fit_poly(rows, 1 if fits.kind is FitKind.LINEAR else 2, fits.kind)


_EMPTY = np.empty(0)


def _join(data: Sequence) -> tuple[np.ndarray, np.ndarray, list[int], dict]:
    """The temps and powers of every Trace or (temps, powers) pair of data,
    joined, the row offsets between them, and, by index, the InvalidSample
    (without its traceback) of each pair no Trace could hold, which joins
    no samples."""
    ts, ys, failed = [_EMPTY], [_EMPTY], {}
    for i, d in enumerate(data):
        try:
            t, y = _as_xy(d)
        except InvalidSample as exc:
            failed[i] = exc.with_traceback(None)
            t = y = _EMPTY
        ts.append(t)
        ys.append(y)
    ends = list(itertools.accumulate(map(len, ts[1:]), initial=0))
    if len(data) == 1:  # a trace's own columns: no copy of a long one
        return np.ascontiguousarray(ts[1]), np.ascontiguousarray(ys[1]), ends, failed
    return np.concatenate(ts), np.concatenate(ys), ends, failed


def fit_batch(data: Sequence, kind: FitKind) -> list[FitResult | Exception]:
    """Fit family kind to every Trace or (temps, powers) pair of data.

    Returns, in order, each trace's FitResult or the exception its fit
    raised (without its traceback), the same result or error, bit for bit,
    as fitting that trace alone.  A pair with a non-finite value or a
    non-positive power fails with the InvalidSample a Trace of those
    samples would raise.  Raises LengthMismatch for a pair whose temps and
    powers differ in shape.
    """
    t, y, ends, failed = _join(data)
    fits = _Fits(kind, len(data))
    fits.failed.update(failed)
    _fit_table(fits, t, y, ends)
    return fits.results()


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
    _Separable), leaving a 1-D minimization over k.  The search starts at
    k = 0, the straight line, and walks downhill from there, doubling its
    step, to bracket the minimum; Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 5) finds it to
    _SQRT_EPS*(1 + |k|), and Gauss-Newton steps follow while they lower
    the objective.  It runs on arrays over a whole batch (see _search),
    each trace taking the steps it would take alone.  The walk stops at
    |k| = -ln(smallest normal double), where the exponential's range
    across the sweep leaves the double range; if the minimum cannot be
    told apart from that limit, the result has converged=False and
    termination "exp_range_limit", otherwise termination is "converged".
    iterations counts objective evaluations.
    Raises DegenerateInput when the best C is not positive (concave data,
    say), when the best curve is the straight line, which the family
    reaches only as C -> inf, or when the powers are all equal: the family
    cannot represent the data.  So it does when max T - min T overflows, or
    when the powers span so wide a range that the weights (max P / P)^2 do.
    """
    return fit(data, FitKind.EXPONENTIAL)


def _pool(squares: np.ndarray) -> float:
    # a running sum in sample order, not numpy's pairwise one: the bits are frozen
    return math.sqrt(np.add.accumulate(squares, out=squares)[-1])


def _pooled(squares: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
            indices: np.ndarray) -> float | None:
    """_pool of the squares of traces indices, in order, whose rows of
    squares start at starts and number sizes; None for no traces."""
    if not indices.size:
        return None
    sizes = sizes[indices]
    offsets = np.repeat(starts[indices] - (np.cumsum(sizes) - sizes), sizes)
    return _pool(squares[offsets + np.arange(offsets.size)])


def aggregate_error(fits: Sequence[tuple[Trace, FitResult]]) -> float:
    """Pool every per-sample relative residual in the group, then take the norm.

    Pooling means the squared sums add: two traces with residual-square
    sums s1 and s2 aggregate to sqrt(s1 + s2).  One _squares call takes
    every fit of a family, its coefficients repeated at each of its
    samples, and the squares pool in the group's order.
    """
    if len(fits) == 0:
        raise EmptyGroup("cannot aggregate an empty group")
    kinds = [result.kind for _, result in fits]
    sizes = np.array([len(trace.power_w) for trace, _ in fits])
    t = np.concatenate([trace.temp_c for trace, _ in fits])
    y = np.concatenate([trace.power_w for trace, _ in fits])
    squares = np.empty(len(y))
    for kind in dict.fromkeys(kinds):
        mine = np.array([k is kind for k in kinds])
        coeffs = np.array([result.coeffs for (_, result), m in zip(fits, mine.tolist()) if m])
        at = np.repeat(mine, sizes)
        squares[at] = _squares(kind, np.repeat(coeffs, sizes[mine], axis=0).T, t[at], y[at])
    return _pool(squares)


def sign_test(errors_a: Sequence[float], errors_b: Sequence[float]) -> float:
    """Exact two-sided paired sign test.

    Counts k = #{i : a_i < b_i} over the n non-tied pairs and returns twice
    the smaller binomial tail under Binomial(n, 1/2), clamped to <= 1.  The
    tail is an integer sum of C(n, j) for j <= min(k, n - k), each term
    from the last by C(n, j+1) = C(n, j)*(n-j)/(j+1).  Twice the tail is
    divided by 2**n once, by int true division, which rounds the exact
    quotient correctly (as float(Fraction(2*tail, 2**n)) does), so
    sign_test(a, b) equals sign_test(b, a) bit for bit.
    """
    if len(errors_a) != len(errors_b):
        raise LengthMismatch(
            f"paired lists differ in length ({len(errors_a)} vs {len(errors_b)})"
        )
    if len(errors_a) == 0:
        raise LengthMismatch("need at least one pair")
    p = _sign_p(sum(1 for a, b in zip(errors_a, errors_b) if a < b),
                sum(1 for a, b in zip(errors_a, errors_b) if a > b))
    if p is None:
        raise AllTies("all pairs are tied; the sign test is uninformative")
    return p


def _sign_p(wins: int, losses: int) -> float | None:
    """sign_test's p-value from the counts of wins and losses, or None
    when there are neither."""
    n = wins + losses
    if n == 0:
        return None
    term = tail = 1
    for j in range(min(wins, losses)):
        term = term * (n - j) // (j + 1)
        tail += term
    return 1.0 if 2 * tail >= 2**n else (2 * tail) / 2**n


_PAIRS = (
    (FitKind.EXPONENTIAL, FitKind.QUADRATIC),
    (FitKind.QUADRATIC, FitKind.LINEAR),
    (FitKind.EXPONENTIAL, FitKind.LINEAR),
)


@dataclass
class ModelComparison:
    """Per-trace fits for all three families plus group-level statistics.

    results[i][kind] is the FitResult or None when that fit failed, each
    row keyed in FitKind order; failures records (trace index, kind,
    message) for every None; aggregated[kind] pools residuals over the
    traces where kind succeeded (None if it succeeded nowhere);
    groups[key][kind] does the same over the traces of each group passed
    to compare_models; p_values[(a, b)] is the sign test over traces where
    both families succeeded (None if that set is empty or fully tied).
    """

    results: list[dict[FitKind, FitResult | None]]
    failures: list[tuple[int, FitKind, str]]
    aggregated: dict[FitKind, float | None]
    p_values: dict[tuple[FitKind, FitKind], float | None]
    groups: dict[str, dict[FitKind, float | None]] = field(default_factory=dict)


class _Comparison:
    """compare_models of the traces whose temps and powers t and y hold
    between the row offsets ends, but for those failed maps to the
    exception no family can get past: each family's _Fits, and the pooled
    error of its fitted traces over the whole set (aggregated) and over
    each group (groups), whose members groups lists in the order their
    residuals pool."""

    def __init__(self, t, y, ends, failed: Mapping[int, Exception],
                 groups: Mapping[str, Sequence[int]]):
        kinds = self.kinds = tuple(FitKind)  # iterating FitKind runs Python code each time
        starts, sizes = np.array(ends[:-1], int), np.diff(ends)
        self.fits: dict[FitKind, _Fits] = {}
        self.aggregated: dict[FitKind, float | None] = dict.fromkeys(kinds)
        self.groups = {key: dict.fromkeys(kinds) for key in groups}
        squares = np.empty(len(t))
        # the exponential first, as its search holds the most memory
        for kind in reversed(kinds):
            # a failed trace's rows keep +0.0, which leaves a running sum of
            # squares (never -0.0) as it was, so the whole set pools in place
            squares.fill(0.0)
            fits = _Fits(kind, len(sizes))
            fits.failed.update(failed)
            _fit_table(fits, t, y, ends, squares)
            self.fits[kind] = fits
            for key, members in groups.items():
                members = np.array(members, int)
                self.groups[key][kind] = _pooled(squares, starts, sizes, members[fits.ok[members]])
            self.aggregated[kind] = _pool(squares) if fits.ok.any() else None

    def failures(self) -> list[tuple[int, FitKind, str]]:
        """ModelComparison.failures: (trace index, kind, message) of every
        failed fit, by trace and then by kind."""
        kinds = self.kinds
        return sorted(((i, kind, f"{type(exc).__name__}: {exc}")
                       for kind in kinds for i, exc in self.fits[kind].failed.items()),
                      key=lambda f: (f[0], kinds.index(f[1])))

    def p_values(self) -> dict[tuple[FitKind, FitKind], float | None]:
        """ModelComparison.p_values, the sign tests counted on the error
        columns of the traces both families fitted."""
        p_values = {}
        for ka, kb in _PAIRS:
            both = self.fits[ka].ok & self.fits[kb].ok
            a, b = self.fits[ka].error[both], self.fits[kb].error[both]
            p_values[(ka, kb)] = _sign_p(int(np.count_nonzero(a < b)),
                                         int(np.count_nonzero(a > b)))
        return p_values


def compare_models(
    traces: Sequence[Trace], groups: Mapping[str, Sequence[int]] | None = None
) -> ModelComparison:
    """Fit all three families to every trace and test them pairwise.

    groups maps a name to trace indices; each group's residuals are pooled
    per family into ModelComparison.groups, as the whole set's are into
    aggregated.  Raises InvalidParams for a group index that is not an int
    in range(len(traces)), or that the group holds twice.
    """
    if len(traces) == 0:
        raise EmptyGroup("need at least one trace to compare")
    n = len(traces)
    groups = groups or {}
    for key, indices in groups.items():
        seen = set()
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
                raise InvalidParams(f"group {key!r}: {i!r} is not a trace index in range({n})")
            if i in seen:
                raise InvalidParams(f"group {key!r}: trace index {i!r} repeats")
            seen.add(i)
    comparison = _Comparison(*_join(traces), groups)
    kinds = comparison.kinds
    columns = [[None if isinstance(r, Exception) else r for r in comparison.fits[kind].results()]
               for kind in kinds]
    return ModelComparison([dict(zip(kinds, row)) for row in zip(*columns)],
                           comparison.failures(), comparison.aggregated, comparison.p_values(),
                           comparison.groups)

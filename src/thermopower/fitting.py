"""Temperature/power curve fits, the relative-residual error metric,
group aggregation, and an exact paired sign test.

All three fit families minimize the same objective, the sum of squared
relative residuals sum(((model_i - y_i)/y_i)**2), so the reported error
sqrt(objective) is exactly the minimized quantity.  Linear and quadratic
fits solve it as weighted least squares with weights 1/y_i**2 by modified
Gram-Schmidt, and fail when some column's remainder is at most
eps*max(n, p) of the column, in norm (see _numeric._lstsq).  The
exponential fit uses variable projection: at each rate the offset and
scale come from the same kind of weighted solve, leaving a 1-D search over
the rate, with no tolerance to set (see fit_exponential).  FitResult.termination says why a
fit stopped: "converged", or the rate limit it reached.

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

from ._numeric import _dots, _lstsq, each, exp_curve
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

_LOG_TINY = -math.log(sys.float_info.min)

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
    counts the rates the exponential one evaluated, each its objective and
    derivative from one projection.  termination is "converged" or the
    search limit the exponential fit stopped at.
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

    start is each row's first rate: Jacquelin's (Regressions et equations
    integrales, 2009).  y = a0 + C*exp(k*x) gives y = A + B*x + k*S, S the
    integral of y over x = (T - T_lo)/span: a linear fit, here with S by
    trapezoids in T order, the fits' weights and modified Gram-Schmidt on
    1, x and S.  Where it has no answer the search starts at k = 0.  The
    methods take the rates k of the rows ids.
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
        if not (t[:, 1:] >= t[:, :-1]).all():  # sort by T, ties in sample order
            order = np.argsort(t, axis=1, kind="stable")
            t, y, u = (np.take_along_axis(a, order, axis=1) for a in (t, y, u))
        x = (t - self.t_lo[:, None]) / self.span[:, None]
        y = np.ldexp(y, -self.e[:, None])
        s = np.zeros_like(x)
        np.cumsum((x[:, 1:] - x[:, :-1]) * (y[:, 1:] + y[:, :-1]) * 0.5, axis=1, out=s[:, 1:])
        uu = _dots(u, u)  # weighted: the columns u, x*u and s*u, the target 1
        xu, su = x * u, s * u
        xu = xu - (_dots(u, xu) / uu)[:, None] * u
        su = su - (_dots(u, su) / uu)[:, None] * u
        su = su - (_dots(xu, su) / _dots(xu, xu))[:, None] * xu
        k = _dots(su, 1.0 - (u.sum(axis=1) / uu)[:, None] * u) / _dots(su, su)
        self.start = _clip(np.where(np.isfinite(k), k, 0.0))

    def _project(self, k: np.ndarray, ids):
        kc = k[:, None]
        u, r0 = self.u[ids], self.r0[ids]
        rising = self.d_rising[ids]
        d = rising if (k > 0).all() else np.where(kc > 0, rising, self.d_falling[ids])
        e = np.expm1(kc * d)
        zero = k == 0
        column = e / np.where(zero, 1.0, k)[:, None]  # (exp(k*d) - 1)/k, which tends to d
        if zero.any():
            column[zero] = d[zero]
        v = column * u
        w = (-_dots(u, v) / self.uu[ids])[:, None] * u
        w += v  # v less its projection on 1/y
        ww = _dots(w, w)
        b = _dots(w, r0) / ww  # the coefficient of v; C = b/k
        r = b[:, None] * w
        return d, u, e, column, w, ww, b, np.subtract(r0, r, out=r)

    def answer(self, k: np.ndarray, ids):
        """At each rate k, from one projection of the rows: the least sum of
        squared relative residuals f, g.r and g.g, where g is Kaufman's
        Jacobian, the model's derivative in k with the linear columns
        projected out (BIT 15, 1975).  g.r is minus half the derivative of
        f, exactly, and k + g.r/g.g is the Gauss-Newton step.
        """
        d, u, e, _, w, ww, b, r = self._project(k, ids)
        zero = k == 0
        g = d * u
        g *= (b / np.where(zero, 1.0, k))[:, None]
        e += 1.0
        g *= e  # C*d*exp(k*d)/y, C = b/k held
        if zero.any():  # at k = 0 the limit with b held, less a multiple of the column
            g[zero] = b[zero, None] * d[zero] * (0.5 * d[zero] * u[zero])
        along = (_dots(g, u) / self.uu[ids])[:, None] * u
        along += (_dots(g, w) / ww)[:, None] * w
        g -= along
        return _dots(r, r), _dots(g, r), _dots(g, g)

    def params(self, k: np.ndarray, ids):
        """(a0, a1, a2, C, line) of each row at rate k; line marks the rows
        where (exp(k*d) - 1)/k is a straight line in d to rounding: where,
        less its best line, its squared norm is at most (eps*n)**2 times its
        own, _lstsq's test (so at k = 0, where C is nan).  a0, a1, a2 are
        only meaningful where C > 0.

        a0 is solved against exp(k*d) itself: from the expm1 column it
        would lose C*eps, which is large beside a0 on a steep curve.
        """
        d, u, _, column, _, _, b, _ = self._project(k, ids)
        n = d.shape[1]
        d_mean = d - (d.sum(axis=1) / n)[:, None]
        curve = column - (column.sum(axis=1) / n)[:, None]
        curve = curve - (_dots(curve, d_mean) / _dots(d_mean, d_mean))[:, None] * d_mean
        line = ~(_dots(curve, curve) > (sys.float_info.epsilon * n) ** 2 * _dots(column, column))
        e = self.e[ids]
        c = np.where(k != 0, b / np.where(k != 0, k, 1.0), math.nan)
        positive = c > 0
        c1 = np.where(positive, c, 1.0)  # logs and rates only where C > 0
        k1 = np.where(positive, k, 1.0)
        a0 = self.a_u[ids] - c1 * _dots(u, np.exp(k1[:, None] * d) * u) / self.uu[ids]
        a2 = self.span[ids] / k1
        t_ref = np.where(k > 0, self.t_hi[ids], self.t_lo[ids])
        a1 = t_ref - a2 * each(math.log, np.ldexp(c1, e))
        return np.ldexp(a0, e), a1, a2, np.ldexp(c, e), line


_MIN_INT = np.int64(-(2**63))


def _clip(k: np.ndarray) -> np.ndarray:
    """k within [-_LOG_TINY, _LOG_TINY]; nan stays nan."""
    return np.minimum(np.maximum(k, -_LOG_TINY), _LOG_TINY)


def _middle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The double halfway between a and b in the order of doubles, for
    finite a <= b: the order of the sign-magnitude bits read as integers,
    each negative double -x at minus the bits of x."""
    i = np.stack([a, b]).view(np.int64)
    i = np.where(i < 0, _MIN_INT - i, i)
    m = (i[0] >> 1) + (i[1] >> 1) + (i[0] & i[1] & 1)
    return np.where(m < 0, _MIN_INT - m, m).view(float)


def _advance(s: np.ndarray, f: np.ndarray, gr: np.ndarray, gg: np.ndarray) -> np.ndarray:
    """Move every row of the rate search's state s (see _search) on by one
    round, given f, g.r and g.g at its rate k; return the rows that stop,
    whose best rate and its f are final."""
    k, lo, hi, gn_last, last, before, best, f_best = s
    better = f < f_best
    np.copyto(best, k, where=better)
    np.copyto(f_best, f, where=better)
    np.copyto(lo, k, where=gr > 0)
    np.copyto(hi, k, where=gr < 0)
    gn = gr / gg
    secant = gn * last / (gn_last - gn)
    ahead = _clip(k + np.where(secant * gn > 0, secant, gn))
    fixed = ahead == k
    step = ahead - k
    inside = (lo < ahead) & (ahead < hi)
    grow = ~(np.abs(step) <= 0.5 * before) & inside
    if np.count_nonzero(grow):
        far = _clip(k + np.copysign(np.maximum(np.abs(step), 2.0 * np.abs(last)), step))
        np.copyto(ahead, far, where=grow)
        inside = (lo < ahead) & (ahead < hi)
    if not inside.all():
        middle = _middle(np.maximum(lo, -_LOG_TINY), np.minimum(hi, _LOG_TINY))
        np.copyto(ahead, middle, where=~inside)
    np.abs(last, out=before)
    np.copyto(before, math.nan, where=grow & inside)  # so the next step grows too
    np.subtract(ahead, k, out=last)
    gn_last[:] = gn
    finished = fixed | (ahead == k) | ~(np.nextafter(lo, math.inf) < hi)
    k[:] = ahead
    return finished


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _search(models: Sequence[_Separable]):
    """Search the rate of every row of every model, all in step.

    A row starts at its model's start rate, and each round evaluates its
    rate k once: f, and g.r and g.g (see _Separable.answer).  The sign of
    g.r says on which side of k the minimum lies, which narrows the
    bracket (lo, hi), at first (-inf, inf).  The next rate is k plus the
    Gauss-Newton step g.r/g.g, or, where the last two steps agree in
    sign, the secant through the steps at the last two rates (Gauss-Newton
    converges only linearly where the residuals are large), kept within
    +-_LOG_TINY.  A step that does not halve the step before last is taken
    at least twice as long as the last, and so are the ones after it, until
    a step leaves the bracket: such a step becomes a bisection of the
    bracket (see _middle; an infinite end counts as +-_LOG_TINY).  A row
    stops when the step no longer changes k, or when no double lies
    between lo and hi.  So no tolerance is set: the search ends where the
    rounding of g.r decides the step.

    The state of every live row sits in flat arrays.  A round answers each
    row's rate with one answer call per model, which projects its live rows
    once, and moves every row on by masked updates (see _advance).  These
    use + - * /, comparisons, abs, copysign, min, max and integer halving,
    so each row takes, to the bit, the steps of the same search on Python
    floats.  Steps no row takes may divide by zero.

    Returns, the rows of models in order, the rate of each row with the
    least f it evaluated, whether that rate is the exp_range_limit
    +-_LOG_TINY, and the row's evaluations.
    """
    sizes = [len(model.span) for model in models]
    starts = list(itertools.accumulate(sizes, initial=0))
    n = starts[-1]
    k_out, evaluations = np.zeros(n), np.zeros(n, int)
    # k; the bracket (lo, hi); the last Gauss-Newton step; the last step
    # taken; the size of the one before; the best rate so far and its f
    s = np.empty((8, n))
    s[0] = np.concatenate([[], *(model.start for model in models)])
    s[1:] = np.array([[-math.inf], [math.inf], [math.nan], [math.inf], [math.inf], [math.nan],
                      [math.inf]])
    row, rounds = np.arange(n), 0
    while n := s.shape[1]:
        bounds = np.searchsorted(row, starts).tolist()
        blocks = [(model, a, b, slice(None) if b - a == size else row[a:b] - start)
                  for model, a, b, start, size in zip(models, bounds, bounds[1:], starts, sizes)
                  if a < b]
        while True:  # rounds until a row retires
            rounds += 1
            f, gr, gg = np.empty((3, n))
            for model, a, b, ids in blocks:
                f[a:b], gr[a:b], gg[a:b] = model.answer(s[0, a:b], ids)
            finished = _advance(s, f, gr, gg)
            if np.count_nonzero(finished):
                break
        k_out[row[finished]], evaluations[row[finished]] = s[6, finished], rounds
        s, row = s[:, ~finished], row[~finished]
    return k_out, np.abs(k_out) == _LOG_TINY, evaluations


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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            model = _Separable(rows.t, rows.y)
            wide = ~np.isfinite(model.uu)
            if wide.any():  # build the model again without those rows
                rows.fail(wide, lambda _: DegenerateInput(
                    "the powers span more than the double range: the weights (max P / P)^2 "
                    "overflow"))
                model = _Separable(rows.t, rows.y)
        models.append((rows, model))
    k_all, limits, evaluations_all = _search([model for _, model in models])
    end = 0
    for rows, model in models:
        start, end = end, end + len(rows.ids)
        k, evaluations = k_all[start:end], evaluations_all[start:end]
        codes = limits[start:end].astype(int)  # indices into _TERMINATIONS
        # rows whose a0, a1, C or curve overflow are failed below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a0, a1, a2, c, line = model.params(k, slice(None))
            # a1 holds t_ref - a2*log(C) to its own ulp, which a small a2 can
            # make too large for exp((T - a1)/a2) at the samples
            top = np.exp(np.max((rows.t - a1[:, None]) / a2[:, None], axis=1))

        def degenerate(j):
            if line[j]:
                return DegenerateInput("the best curve is the straight line, which the "
                                       "exponential family reaches only as C -> inf")
            if c[j] > 0:
                return DegenerateInput(f"the best curve leaves the double range: a0 is "
                                       f"{a0[j]:.3g}, C is {c[j]:.3g}")
            return DegenerateInput(f"best exponential scale C is {c[j]:.3g}; the family "
                                   "needs C > 0")

        a0, a1, a2, codes, evaluations = rows.fail(
            line | ~(c > 0) | ~(np.isfinite(a0) & np.isfinite(a1) & np.isfinite(top)), degenerate,
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
    Jacquelin's rate, a linear fit, and takes Gauss-Newton steps, sped up
    by secants, inside a bracket kept by the sign of the objective's
    derivative; steps that do not converge become bisections (see
    _search).  It stops where the step no longer changes k or the bracket
    holds no double, so it needs no tolerance, and returns the rate of least
    objective it evaluated.  It runs on arrays over a whole batch, each
    trace taking the steps it would take alone.  Rates stay within
    |k| = -ln(smallest normal double), where the exponential's range across
    the sweep leaves the double range; a fit at that limit has
    converged=False and termination "exp_range_limit", any other
    "converged".  iterations counts the rates evaluated.
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

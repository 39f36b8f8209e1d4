"""Batched fits against the per-trace loop they replaced.

The reference below is compare_models as it was before fits ran over
blocks of stacked traces: every family fitted to one trace at a time, and
every pooled error re-predicted trace by trace.  The batched code must give
the same FitResults, the same failures with the same messages, and the same
bits for every pooled error and p-value, whatever the batch and wherever
the block boundaries fall.
"""

import itertools
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower import fitting
from thermopower.errors import AllTies, DegenerateInput, EmptyGroup, InvalidSample
from thermopower.fitting import (
    FitKind,
    FitResult,
    aggregate_error,
    compare_models,
    fit_batch,
    fit_exponential,
    fit_linear,
    fit_quadratic,
    sign_test,
)
from thermopower.trace import Trace, TraceMeta, generate_synthetic_trace, parse_trace

# --- the per-trace reference ---

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)
_LOG_TINY = -math.log(sys.float_info.min)
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def ref_fit_error(y, model):
    return float(np.sqrt(np.sum(((model - y) / y) ** 2)))


def ref_xy(data):
    if isinstance(data, Trace):
        return data.temp_c, data.power_w
    t, y = (np.asarray(a, float) for a in data)
    for temp, power in zip(t.tolist(), y.tolist()):
        for name, value in (("temp_c", temp), ("power_w", power)):
            if not math.isfinite(value):
                raise InvalidSample(f"{name} must be finite, got {value!r}")
        if power <= 0:
            raise InvalidSample(f"power_w must be positive, got {power!r}")
    return t, y


def ref_poly_fit(data, degree, kind):
    t, y = ref_xy(data)
    if len(np.unique(t)) < degree + 1:
        raise DegenerateInput(f"{kind.value} fit needs >= {degree + 1} distinct temperatures")
    design = [t**k / y for k in range(degree, -1, -1)]
    # modified Gram-Schmidt on columns scaled by powers of two, with the
    # target carried along as the residual, then back-substitution
    e = [math.frexp(float(np.abs(a).max()))[1] for a in design]
    tol = (sys.float_info.epsilon * max(len(t), degree + 1)) ** 2
    done, u, z, r = [], {}, [], np.ones_like(y)
    for j, w in enumerate(np.ldexp(a, -ej) for a, ej in zip(design, e)):
        aa = float(w @ w)
        for i, (v, vv) in enumerate(done):
            u[i, j] = float(v @ w) / vv
            w = w - u[i, j] * v
        ww = float(w @ w)
        if not ww > tol * aa:
            raise DegenerateInput(f"{kind.value} fit design matrix is rank-deficient")
        z.append(float(w @ r) / ww)
        r = r - z[j] * w
        done.append((w, ww))
    for j in range(degree - 1, -1, -1):
        for k in range(j + 1, degree + 1):
            z[j] -= u[j, k] * z[k]
    coeffs = tuple(math.ldexp(zj, -ej) for zj, ej in zip(z, e))
    model = ref_predict(FitResult(kind, coeffs, 0.0, 0, True), t)
    return FitResult(kind, coeffs, ref_fit_error(y, model), 0, True)


class RefSeparable:
    def __init__(self, t, y):
        self.t_lo, self.t_hi = float(t.min()), float(t.max())
        self.span = self.t_hi - self.t_lo
        self.d_rising = (t - self.t_hi) / self.span
        self.d_falling = (t - self.t_lo) / self.span
        self.scale = math.ldexp(1.0, math.frexp(float(y.max()))[1])
        self.u = self.scale / y
        self.uu = float(self.u @ self.u)
        self.a_u = float(self.u.sum()) / self.uu
        self.r0 = 1.0 - self.a_u * self.u
        self.evaluations = 0

    def _project(self, k):
        d = self.d_rising if k > 0 else self.d_falling
        v = (np.expm1(k * d) / k if k else d) * self.u
        w = v - (float(self.u @ v) / self.uu) * self.u
        ww = float(w @ w)
        b = float(w @ self.r0) / ww
        return d, v, w, ww, b, self.r0 - b * w

    def objective(self, k):
        self.evaluations += 1
        r = self._project(k)[-1]
        return float(r @ r)

    def params(self, k):
        d, _, _, _, b, _ = self._project(k)
        if not k:
            raise DegenerateInput("the best curve is the straight line, which the exponential "
                                  "family reaches only as C -> inf")
        c = b / k  # C/scale, as a0 below is a0/scale
        if not c > 0:
            raise DegenerateInput(
                f"best exponential scale C is {c * self.scale:.3g}; the family needs C > 0")
        a0 = self.a_u - c * float(self.u @ (np.exp(k * d) * self.u)) / self.uu
        a2 = self.span / k
        t_ref = self.t_hi if k > 0 else self.t_lo
        return a0 * self.scale, t_ref - a2 * math.log(c * self.scale), a2

    def gauss_newton(self, k):
        if not k:
            return k
        d, v, w, ww, b, r = self._project(k)
        g = b * d * (v + self.u / k)
        g -= (float(g @ self.u) / self.uu) * self.u + (float(g @ w) / ww) * w
        gg = float(g @ g)
        return k + float(g @ r) / gg if gg > 0 else k


def ref_bracket(f, x, lo, hi):
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


def ref_brent(f, a, x, b, fx):
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


def ref_fit_exponential(data):
    t, y = ref_xy(data)
    if len(np.unique(t)) < 3:
        raise DegenerateInput("exponential fit needs >= 3 distinct temperatures")
    if y.min() == y.max():
        raise DegenerateInput("flat power data; a2 is unidentifiable")
    model = RefSeparable(t, y)
    a, k, b, fk, limit = ref_bracket(model.objective, 0.0, -_LOG_TINY, _LOG_TINY)
    a, k, b, fk = ref_brent(model.objective, a, k, b, fk)
    if limit in (a, b):
        k, termination = limit, "exp_range_limit"
    else:
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
    error = ref_fit_error(
        y, ref_predict(FitResult(FitKind.EXPONENTIAL, (a0, a1, a2), 0.0, 0, True), t))
    return FitResult(FitKind.EXPONENTIAL, (float(a0), float(a1), float(a2)), error,
                     model.evaluations, termination == "converged", termination)


REF_FITTERS = {
    FitKind.LINEAR: lambda tr: ref_poly_fit(tr, 1, FitKind.LINEAR),
    FitKind.QUADRATIC: lambda tr: ref_poly_fit(tr, 2, FitKind.QUADRATIC),
    FitKind.EXPONENTIAL: ref_fit_exponential,
}


def ref_predict(result, temp):
    if result.kind is FitKind.LINEAR:
        a1, a0 = result.coeffs
        return a1 * temp + a0
    if result.kind is FitKind.QUADRATIC:
        a2, a1, a0 = result.coeffs
        return a2 * temp * temp + a1 * temp + a0
    a0, a1, a2 = result.coeffs
    x = (temp - a1) / a2
    return np.fromiter(map(math.exp, x.tolist()), float, x.size) + a0


def ref_aggregate(fits):
    squares = []
    for trace, result in fits:
        rel = (ref_predict(result, trace.temp_c) - trace.power_w) / trace.power_w
        squares.append(rel * rel)
    return math.sqrt(np.add.accumulate(np.concatenate(squares))[-1])


def ref_compare(traces, groups):
    results, failures = [], []
    for i, trace in enumerate(traces):
        row = {}
        for kind, fitter in REF_FITTERS.items():
            try:
                row[kind] = fitter(trace)
            except Exception as exc:
                row[kind] = None
                failures.append((i, kind, f"{type(exc).__name__}: {exc}"))
        results.append(row)

    def pooled(kind, idxs):
        group = [(traces[i], results[i][kind]) for i in idxs if results[i][kind] is not None]
        return ref_aggregate(group) if group else None

    aggregated = {kind: pooled(kind, range(len(traces))) for kind in FitKind}
    group_errors = {key: {kind: pooled(kind, idxs) for kind in FitKind}
                    for key, idxs in groups.items()}
    p_values = {}
    for ka, kb in fitting._PAIRS:
        both = [row for row in results if row[ka] is not None and row[kb] is not None]
        try:
            p_values[(ka, kb)] = sign_test([r[ka].error for r in both],
                                           [r[kb].error for r in both]) if both else None
        except AllTies:
            p_values[(ka, kb)] = None
    return results, failures, aggregated, group_errors, p_values


# --- inputs ---

META = TraceMeta("SYN", 1.0, 2)


@st.composite
def traces(draw, n=None):
    """A trace of 3..40 samples: swept, scattered, repeated or flat
    temperatures under exponential (rising or falling, gentle or steep),
    step, concave, linear, flat or astronomically large powers, with
    noise."""
    n = draw(st.integers(3, 40)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.sampled_from([-20.0, 25.0, 40.0]))
    span = draw(st.sampled_from([0.5, 10.0, 60.0]))
    temp_kind = draw(st.sampled_from(
        ["sweep", "sweep", "scattered", "scattered", "quantized", "repeated", "flat"]))
    if temp_kind == "sweep":
        t = np.linspace(lo, lo + span, n)
    elif temp_kind == "scattered":
        t = lo + span * rng.random(n)
    elif temp_kind == "repeated":
        t = rng.choice(lo + span * rng.random(draw(st.integers(1, 4))), n)
    elif temp_kind == "flat":
        t = np.full(n, lo)
    else:
        t = np.round((lo + span * rng.random(n)) * 2) / 2
    x = (t - lo) / span  # 0..1 across the sweep
    shape = draw(st.sampled_from(
        ["exp", "exp", "falling", "steep", "step", "concave", "line", "flat", "huge"]))
    if shape == "exp":
        y = 0.3 + np.exp(x * draw(st.floats(0.2, 5.0)))
    elif shape == "falling":
        y = 0.3 + np.exp(-x * draw(st.floats(0.2, 5.0)))
    elif shape == "steep":
        y = 0.01 + np.exp(x * draw(st.floats(20.0, 300.0)) - 10.0)
    elif shape == "concave":
        y = 2.0 - (x - draw(st.floats(0.0, 1.0))) ** 2
    elif shape == "step":  # steeper than any representable exponential
        y = np.where(t == t.max(), 1.0, 0.3)
    elif shape == "line":
        y = 1.0 + x
    elif shape == "flat":
        y = np.full(n, 1.5)
    else:  # powers whose unscaled weights 1/y would underflow
        y = (1.0 + x) * 10.0 ** draw(st.sampled_from([150, 160, 161, 170]))
    noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 2e-2]))
    y = np.abs(y * (1.0 + noise * rng.standard_normal(n))) + 1e-12
    return Trace(META, 0.2 * np.arange(n), t, y)


def described(result) -> str:
    """repr of a FitResult, or an exception's type and message: equal
    reprs mean equal bits, and NaNs compare equal."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return repr(result)


def outcome(fn, *args) -> str:
    try:
        result = fn(*args)
    except Exception as exc:
        result = exc
    return described(result)


@contextmanager
def wave_size(n):
    """Fit in waves of up to n samples, so small batches cross wave and
    block boundaries; a cap of 1 fits every trace alone."""
    saved, fitting.WAVE_SAMPLES = fitting.WAVE_SAMPLES, n
    try:
        yield
    finally:
        fitting.WAVE_SAMPLES = saved


def assert_same_comparison(trace_list, groups):
    got = compare_models(trace_list, groups)
    results, failures, aggregated, group_errors, p_values = ref_compare(trace_list, groups)
    assert repr(got.results) == repr(results)
    assert got.failures == failures
    assert repr(got.aggregated) == repr(aggregated)
    assert repr(got.groups) == repr(group_errors)
    assert repr(got.p_values) == repr(p_values)


@settings(max_examples=80, deadline=None)
@given(
    trace_list=st.lists(traces(), min_size=1, max_size=10),
    wave=st.sampled_from([1, 40, 120, fitting.WAVE_SAMPLES]),
    data=st.data(),
)
def test_compare_models_matches_per_trace_reference(trace_list, wave, data):
    keys = data.draw(st.lists(st.sampled_from("ab"), min_size=len(trace_list),
                              max_size=len(trace_list)))
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    with wave_size(wave):
        assert_same_comparison(trace_list, groups)


@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_single_trace_fitters_match_reference(trace):
    for fitter, kind in ((fit_linear, FitKind.LINEAR), (fit_quadratic, FitKind.QUADRATIC),
                         (fit_exponential, FitKind.EXPONENTIAL)):
        expected = outcome(REF_FITTERS[kind], trace)
        assert outcome(fitter, trace) == expected
        assert [described(r) for r in fit_batch([trace], kind)] == [expected]


@st.composite
def pairs(draw):
    """(temps, powers) of a trace with some powers set to zero, below zero
    or non-finite, or some temperatures non-finite, which no Trace can
    hold."""
    trace = draw(traces())
    t, y = trace.temp_c.copy(), trace.power_w.copy()
    hit = draw(st.lists(st.integers(0, len(y) - 1), min_size=1, max_size=len(y)))
    if draw(st.booleans()):
        y[hit] = draw(st.sampled_from([0.0, -0.5, -2.0, math.nan, math.inf, -math.inf]))
    else:
        t[hit] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return t, y


# pairs with fewer than three temperatures, down to none at all
SHORT_PAIRS = [([], []), ([30.0], [1.0]), ([30.0, 40.0], [1.0, 2.0])]


@settings(max_examples=60, deadline=None)
@given(data=st.lists(pairs() | st.sampled_from(SHORT_PAIRS), min_size=1, max_size=4))
def test_power_pairs_with_zero_or_negative_powers_match_reference(data):
    for kind, ref in REF_FITTERS.items():
        expected = [outcome(ref, xy) for xy in data]
        assert [outcome(fitting.fit, xy, kind) for xy in data] == expected
        assert [described(r) for r in fit_batch(data, kind)] == expected


def test_waves_are_cut_by_samples_and_blocks_by_length(monkeypatch):
    def plan(lengths):
        """The batch indices of each block fit_batch plans, wave by wave."""
        waves = []
        monkeypatch.setattr(fitting, "_fit_exponential",
                            lambda blocks: waves.append([rows.ids.tolist() for rows in blocks]))
        fit_batch([(np.arange(n, dtype=float), np.ones(n)) for n in lengths], FitKind.EXPONENTIAL)
        return waves

    assert fitting.WAVE_SAMPLES // 20 == 819
    assert plan([20] * 1000) == [[list(range(819))], [list(range(819, 1000))]]
    assert plan([100_000] * 3) == [[[0]], [[1]], [[2]]]
    assert plan([0] * 3) == [[[0, 1, 2]]]
    assert plan([20, 30] * 3) == [[[0, 2, 4], [1, 3, 5]]]
    # shortest first: a 400-sample trace takes the place of the sixteenth
    # 1000-sample one in the first wave
    assert plan([1000] * 17 + [400, 0]) == [[[18], [17], list(range(15))], [[15, 16]]]


def test_long_equal_length_traces_are_fitted_one_at_a_time(monkeypatch):
    rows_seen = []
    fit_poly = fitting._fit_poly

    def spy(rows, degree, kind):
        rows_seen.append(rows.t.shape)
        fit_poly(rows, degree, kind)

    monkeypatch.setattr(fitting, "_fit_poly", spy)
    n = 100_000
    long = [generate_synthetic_trace(META, (0.3, 100.0, 33.0), (25.0, 85.0, n),
                                     noise=0.002, seed=s) for s in range(3)]
    got = fit_batch(long, FitKind.LINEAR)
    assert rows_seen == [(1, n)] * 3
    assert [described(r) for r in got] == [outcome(REF_FITTERS[FitKind.LINEAR], tr)
                                           for tr in long]


@settings(max_examples=40, deadline=None)
@given(trace_list=st.lists(traces(n=12), min_size=1, max_size=8),
       wave=st.sampled_from([1, 36, fitting.WAVE_SAMPLES]))
def test_aggregate_error_of_mixed_families_matches_reference(trace_list, wave):
    fits = [(tr, r) for tr in trace_list for kind in FitKind
            for r in fit_batch([tr], kind) if isinstance(r, FitResult)]
    with wave_size(wave):
        if not fits:
            with pytest.raises(EmptyGroup):
                aggregate_error(fits)
        else:
            assert repr(aggregate_error(fits)) == repr(ref_aggregate(fits))


def test_huge_and_tiny_powers_fit_like_their_unit_scale_twin():
    # unscaled, the weights 1/y of powers near 1e161 underflow inside the
    # search and those near 1e170 before it starts
    t = np.linspace(25.0, 85.0, 20)
    y = np.exp((t - 100.0) / 33.0) + 0.3 + np.random.default_rng(3).normal(0.0, 0.002, 20)
    twin = fit_exponential((t, y))
    assert twin.converged
    assert 0.5 <= y.max() < 1.0  # so e = 1024 puts max P in [2**1023, 2**1024)
    for e in (-1000, -500, 500, 1000, 1024):
        # a power of two scales exactly, so the search takes the same steps
        r = fit_exponential((t, np.ldexp(y, e)))
        assert r.converged and r.iterations == twin.iterations
        assert r.coeffs[0] == math.ldexp(twin.coeffs[0], e) and r.coeffs[2] == twin.coeffs[2]
        assert math.isclose(r.error, twin.error, rel_tol=1e-9)
    huge = []
    for scale in (1e-300, 1e-161, 1e161, 1e170, 1e300):
        r = fit_exponential((t, y * scale))
        assert r.converged
        assert math.isclose(r.coeffs[0] / scale, twin.coeffs[0], rel_tol=1e-6)
        assert math.isclose(r.coeffs[2], twin.coeffs[2], rel_tol=1e-6)
        assert math.isclose(r.error, twin.error, rel_tol=1e-9)
        huge.append(Trace(META, 0.2 * np.arange(20), t, y * scale))
    assert compare_models(huge).failures == []
    assert_same_comparison(huge, {})


@pytest.mark.filterwarnings("error")
def test_powers_spanning_more_than_the_double_range_fail_alone():
    t = [30.0, 40.0, 50.0, 60.0]
    ok = (t, [1.0, 1.2, 1.5, 2.0])
    wide = [(t, [1e-300, 1.2, 1.5, 1e300]), (t, [5e-324, 1.2, 1.5, 2.0]),
            (t, [1e-20, 1e-10, 1.5, 1e150])]
    out = fit_batch([ok, *wide, ok], FitKind.EXPONENTIAL)
    assert out[0] == out[-1] == fit_exponential(ok)
    for r in out[1:-1]:
        assert isinstance(r, DegenerateInput)
        assert str(r).startswith("the powers span more than the double range")
    with pytest.raises(DegenerateInput, match="span more than the double range"):
        fit_exponential(wide[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("wide", "message"), [
    ([([-1e308, 0.0, 1e308], [1.0, 2.0, 3.0]),
      ([-1.7e308, 0.0, 1e300, 1e308], [1.0, 1.2, 1.5, 2.0])],
     "the temperatures span more than the double range: max T - min T overflows"),
    # a1 rounds to 1e15 - 0.125 beside an a2 of 5e-4, so (T - a1)/a2 reaches
    # 765; and span/k underflows to an a2 of 0
    ([([1e15, 1e15 + 0.125, 1e15 + 0.25], [0.8e308, 0.75e308, 0.85e308]),
      ([5e-324, 1e-323, 1.5e-323], [2e-320, 1e-320, 3e-320])],
     "the best curve leaves the double range: "),
], ids=["temperature span", "curve at a sample"])
def test_temperatures_or_curves_beyond_the_double_range_fail_alone(wide, message):
    ok = ([30.0, 40.0, 50.0, 60.0], [1.0, 1.2, 1.5, 2.0])
    out = fit_batch([ok, *wide, ok], FitKind.EXPONENTIAL)
    assert out[0] == out[-1] == fit_exponential(ok)
    for r in out[1:-1]:
        assert isinstance(r, DegenerateInput) and str(r).startswith(message)


def test_fleet_across_the_default_block_boundary():
    """830 traces of 20 samples cross the default wave cap: they are fitted
    as blocks of 819 and 11 traces, in two waves."""
    assert 819 * 20 <= fitting.WAVE_SAMPLES < 820 * 20
    rng = np.random.default_rng(7)
    fleet = []
    for seed in range(830):
        params = (rng.uniform(0.1, 0.5), rng.uniform(90.0, 120.0), rng.uniform(25.0, 40.0))
        fleet.append(generate_synthetic_trace(
            TraceMeta("A7" if seed % 2 else "A15", 1.0, 1 + seed % 4), params,
            (25.0, 85.0, 20), noise=0.005, seed=seed))
    groups = {}
    for i, tr in enumerate(fleet):
        groups.setdefault(f"{tr.meta.processor}/c{tr.meta.cores}", []).append(i)
    assert_same_comparison(fleet, groups)


# --- the array rate search against the scalar one, path by path ---

def exp_fleet():
    """Traces of six lengths, three of them alone in their block: rising,
    falling and steep exponentials, and steps steeper than any exponential,
    which end at the exp_range_limit."""
    rng = np.random.default_rng(11)
    fleet = []
    for n, count in ((20, 6), (7, 1), (33, 4), (12, 1), (5, 3), (64, 1)):
        for _ in range(count):
            # the step lies between the two hottest samples, 0.01 C apart
            t = np.append(np.linspace(25.0, 84.99, n - 1), 85.0)
            x = (t - 25.0) / 60.0
            noise = 1.0 + 1e-3 * rng.standard_normal(n)
            y = [0.3 + np.exp(x * rng.uniform(0.5, 4.0)) * noise,
                 0.3 + np.exp(-x * rng.uniform(0.5, 4.0)) * noise,
                 np.where(t == t.max(), 1.0, 0.3),
                 0.01 + np.exp(x * rng.uniform(20.0, 60.0) - 10.0) * noise][len(fleet) % 4]
            fleet.append(Trace(META, 0.2 * np.arange(n), t, y))
    return fleet


def fit_both(fleet):
    """The array search's results and the scalar reference's, described."""
    return [described(r) for r in fit_batch(fleet, FitKind.EXPONENTIAL)], [
        outcome(ref_fit_exponential, tr) for tr in fleet]


@pytest.mark.parametrize("wave", [1, 20, 40, 60, 100, fitting.WAVE_SAMPLES])
def test_exponential_batch_of_mixed_lengths_matches_the_scalar_search(wave):
    with wave_size(wave):  # 1: every trace alone; 100: waves of up to five blocks
        got, expected = fit_both(exp_fleet())
    assert got == expected
    assert sum("exp_range_limit" in r for r in got) == 4
    assert sum("converged=True" in r for r in got) == 12


def inject(monkeypatch, hit, fault):
    """Make the residuals NaN, or the objective that of the best constant
    (so that it ties), at every rate where hit(k), in the batched model and
    in the reference alike."""
    project, ref_project = fitting._Separable._project, RefSeparable._project

    def batched(self, k, ids):
        d, u, v, w, ww, b, r = project(self, k, ids)
        r = np.where(hit(k)[:, None], math.nan if fault == "nan" else self.r0[ids], r)
        return d, u, v, w, ww, b, r

    def scalar(self, k):
        d, v, w, ww, b, r = ref_project(self, k)
        if hit(np.array([k]))[0]:
            r = r * math.nan if fault == "nan" else self.r0
        return d, v, w, ww, b, r

    monkeypatch.setattr(fitting._Separable, "_project", batched)
    monkeypatch.setattr(RefSeparable, "_project", scalar)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", ["nan", "tie"])
@pytest.mark.parametrize("where", ["walk", "bracket", "near the minimum"])
def test_array_search_keeps_the_scalar_steps_past_a_zero_ww_a_nan_or_a_tie(
        monkeypatch, fault, where):
    fleet = exp_fleet()
    clean, _ = fit_both(fleet)
    hit = {
        "walk": lambda k: (k == 3.0) | (k == -7.0),  # the walk's third and fourth points
        "bracket": lambda k: (k > 1.5) & (k < 2.5),  # Brent's steps between walk points
        # the last Brent and the Gauss-Newton steps of the first trace
        "near the minimum": lambda k: (k > 3.93) & (k < 3.94),
    }[where]
    inject(monkeypatch, hit, fault)
    with wave_size(100):
        got, expected = fit_both(fleet)
    assert got == expected
    assert got != clean


# --- the bound that keeps w.w away from zero ---

GOLDEN_FLEET = Path(__file__).parent / "golden" / "inputs" / "fleet"
WW_FLOOR = 5e-7


def hostile_pairs():
    """(temps, powers) at the ends of the double range: temperatures one
    ulp apart at 1e15, spans up to 1.6e308 and beyond, subnormal
    temperatures; powers from 1e-320 to 1.7e308, powers of exp(+-700) and
    powers one ulp apart, in every order."""
    def ulps(x):
        return [x, np.nextafter(x, math.inf), np.nextafter(np.nextafter(x, math.inf), math.inf)]

    temps = [ulps(1e15), [25.0, 55.0, 85.0], [-0.8e308, 0.0, 0.8e308], [0.0, 1e308, 1.6e308],
             [-1e308, 0.0, 1e308], [-1.7e308, 0.0, 1.7e308], [5e-324, 1e-323, 1.5e-323],
             [-5e-324, 0.0, 5e-324], [5e-324, 1.0, 1e308]]
    e = math.exp
    powers = [[1e-320, 1.0, 1.7e308], [1e-320, 2e-320, 3e-320], [1.5e308, 1.6e308, 1.7e308],
              [e(-700), 1.0, e(700)], [e(-700), 2.0 * e(-700), e(-699)], [e(699), e(699.5), e(700)],
              ulps(1.0), ulps(1e-320), ulps(1.7e308), [0.3, 0.5, 1.3]]
    return [(t, list(p)) for t in temps for y in powers for p in itertools.permutations(y)]


@contextmanager
def watching_ww():
    """Record w.w of every _project call and every model the rate search gets."""
    seen = {"ww": [], "models": []}
    project, search = fitting._Separable._project, fitting._search

    def spy_project(self, k, ids):
        out = project(self, k, ids)
        seen["ww"].append(out[4])
        return out

    def spy_search(models):
        seen["models"] += models
        return search(models)

    fitting._Separable._project, fitting._search = spy_project, spy_search
    try:
        yield seen
    finally:
        fitting._Separable._project, fitting._search = project, search


def assert_ww_bound(data):
    """Fit data, and check w.w >= WW_FLOOR at every rate the search asked
    for, and on a grid of rates across [-_LOG_TINY, _LOG_TINY] for every
    trace that passed the fit's input checks.

    Every row that reaches the search has weights u = 2**e/P >= 1, a column
    d that runs exactly from -1 to 0 or from 0 to 1, and a rate with
    |k| <= _LOG_TINY.  w is u*(expm1(k*d)/k) less its projection on u, so
    w.w >= min over c of sum((expm1(k*d_i)/k - c)**2), at least half the
    squared difference of the two ends: ((1 - exp(-_LOG_TINY))/_LOG_TINY)**2/2,
    about 9.9e-7.  WW_FLOOR halves that for rounding.
    """
    with watching_ww() as seen:
        fit_batch(data, FitKind.EXPONENTIAL)
    for ww in seen["ww"]:
        assert np.all(ww >= WW_FLOOR), ww.min()
    rates = [0.0, 5e-324, 1e-300, 1e-8, 1e-3, 0.5, 1.0, 3.0, 10.0, 100.0, 700.0,
             np.nextafter(_LOG_TINY, 0.0), _LOG_TINY]
    for model in seen["models"]:
        for k in rates + [-k for k in rates]:
            ww = model._project(np.full(len(model.span), k), slice(None))[4]
            assert np.all(ww >= WW_FLOOR), (k, ww.min())
    return len(seen["ww"])


@settings(max_examples=40, deadline=None)
@given(trace_list=st.lists(traces(), min_size=1, max_size=8))
def test_ww_bound_holds_on_generated_traces(trace_list):
    assert_ww_bound(trace_list)


def test_ww_bound_holds_on_the_search_fleet_the_golden_fleet_and_hostile_traces():
    golden = [parse_trace(p.read_bytes()) for p in sorted(GOLDEN_FLEET.iterdir())]
    hostile = hostile_pairs()
    for data in (exp_fleet(), golden, hostile):
        assert assert_ww_bound(data) > 0
    # the span check keeps overflowing spans out; the rest reach the search
    out = fit_batch(hostile, FitKind.EXPONENTIAL)
    assert sum("temperatures span" in str(r) for r in out) == 2 * len(hostile) // 9
    assert sum(isinstance(r, FitResult) for r in out) > 0

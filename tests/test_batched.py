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
import struct
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

_LOG_TINY = -math.log(sys.float_info.min)


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


def ref_lstsq(columns, target):
    """The least-squares coefficients of target on columns, or None where
    the design is rank-deficient: modified Gram-Schmidt on columns scaled
    by powers of two, with the target carried along as the residual, then
    back-substitution."""
    e = [math.frexp(float(np.abs(a).max()))[1] for a in columns]
    tol = (sys.float_info.epsilon * max(len(target), len(columns))) ** 2
    done, u, z, r = [], {}, [], target
    for j, w in enumerate(np.ldexp(a, -ej) for a, ej in zip(columns, e)):
        aa = float(w @ w)
        for i, (v, vv) in enumerate(done):
            u[i, j] = float(v @ w) / vv
            w = w - u[i, j] * v
        ww = float(w @ w)
        if not ww > tol * aa:
            return None
        z.append(float(w @ r) / ww)
        r = r - z[j] * w
        done.append((w, ww))
    for j in range(len(z) - 2, -1, -1):
        for k in range(j + 1, len(z)):
            z[j] -= u[j, k] * z[k]
    return [math.ldexp(zj, -ej) for zj, ej in zip(z, e)]


def ref_poly_fit(data, degree, kind):
    t, y = ref_xy(data)
    if len(np.unique(t)) < degree + 1:
        raise DegenerateInput(f"{kind.value} fit needs >= {degree + 1} distinct temperatures")
    coeffs = ref_lstsq([t**k / y for k in range(degree, -1, -1)], np.ones_like(y))
    if coeffs is None:
        raise DegenerateInput(f"{kind.value} fit design matrix is rank-deficient")
    model = ref_predict(FitResult(kind, tuple(coeffs), 0.0, 0, True), t)
    return FitResult(kind, tuple(coeffs), ref_fit_error(y, model), 0, True)


def div(a, b):
    """a/b as numpy divides: inf or nan where b is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(a, b))


class RefSeparable:
    def __init__(self, t, y):
        self.t_lo, self.t_hi = float(t.min()), float(t.max())
        self.span = self.t_hi - self.t_lo
        self.d_rising = (t - self.t_hi) / self.span
        self.d_falling = (t - self.t_lo) / self.span
        e = math.frexp(float(y.max()))[1]
        self.scale = math.ldexp(1.0, e)
        self.u = self.scale / y
        self.uu = float(self.u @ self.u)
        self.a_u = float(self.u.sum()) / self.uu
        self.r0 = 1.0 - self.a_u * self.u
        # Jacquelin's regression of y on (1, x, S) in T order, weighted by u
        order = np.argsort(t, kind="stable")
        x = (t[order] - self.t_lo) / self.span
        ys, u = np.ldexp(y[order], -e), self.u[order]
        s = np.concatenate([[0.0], np.cumsum((x[1:] - x[:-1]) * (ys[1:] + ys[:-1]) * 0.5)])
        uu = float(u @ u)
        xu, su = x * u, s * u
        xu = xu - (float(u @ xu) / uu) * u
        su = su - (float(u @ su) / uu) * u
        su = su - (float(xu @ su) / float(xu @ xu)) * xu
        k = div(float(su @ (1.0 - (float(u.sum()) / uu) * u)), float(su @ su))
        self.start = min(max(k, -_LOG_TINY), _LOG_TINY) if math.isfinite(k) else 0.0
        self.evaluations = 0

    def _project(self, k):
        d = self.d_rising if k > 0 else self.d_falling
        e = np.expm1(k * d)
        column = e / k if k else d
        v = column * self.u
        w = v - (float(self.u @ v) / self.uu) * self.u
        ww = float(w @ w)
        b = float(w @ self.r0) / ww
        return d, e, column, w, ww, b, self.r0 - b * w

    def answer(self, k):
        """f, g.r and g.g at rate k."""
        self.evaluations += 1
        d, e, _, w, ww, b, r = self._project(k)
        u = self.u
        g = (b / k) * (d * u) * (e + 1.0) if k else b * d * (0.5 * d * u)
        g = g - ((float(g @ u) / self.uu) * u + div(float(g @ w), ww) * w)
        return float(r @ r), float(g @ r), float(g @ g)

    def params(self, k):
        d, _, column, _, _, b, _ = self._project(k)
        n = len(d)
        d_mean = d - float(d.sum()) / n
        curve = column - float(column.sum()) / n
        curve = curve - (float(curve @ d_mean) / float(d_mean @ d_mean)) * d_mean
        if not float(curve @ curve) > (sys.float_info.epsilon * n) ** 2 * float(column @ column):
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


def ref_middle(a, b):
    """The double halfway between a and b in the order of doubles."""
    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(2**63) - i

    m = (key(a) + key(b)) >> 1
    return struct.unpack("<d", struct.pack("<q", m if m >= 0 else -(2**63) - m))[0]


def ref_search(model):
    """(k, whether k is at the exp_range_limit) of the rate search, k the
    rate of least f it evaluated."""
    lo, hi = -math.inf, math.inf
    k, gn_last, last, before = model.start, math.nan, math.inf, math.inf
    best, f_best = math.nan, math.inf
    while True:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f, gr, gg = model.answer(k)
        if f < f_best:
            best, f_best = k, f
        if gr > 0:
            lo = k
        elif gr < 0:
            hi = k
        gn = div(gr, gg)
        secant = div(gn * last, gn_last - gn)
        ahead = min(max(k + (secant if secant * gn > 0 else gn), -_LOG_TINY), _LOG_TINY)
        fixed = ahead == k
        step = ahead - k
        grow = not abs(step) <= 0.5 * before and lo < ahead < hi
        if grow:
            far = k + math.copysign(max(abs(step), 2.0 * abs(last)), step)
            ahead = min(max(far, -_LOG_TINY), _LOG_TINY)
            grow = lo < ahead < hi
        if not lo < ahead < hi:
            ahead = ref_middle(max(lo, -_LOG_TINY), min(hi, _LOG_TINY))
        if fixed or ahead == k or not np.nextafter(lo, math.inf) < hi:
            return best, abs(best) == _LOG_TINY
        before, last, gn_last, k = math.nan if grow else abs(last), ahead - k, gn, ahead


def ref_fit_exponential(data):
    t, y = ref_xy(data)
    if len(np.unique(t)) < 3:
        raise DegenerateInput("exponential fit needs >= 3 distinct temperatures")
    if y.min() == y.max():
        raise DegenerateInput("flat power data; a2 is unidentifiable")
    model = RefSeparable(t, y)
    k, at_limit = ref_search(model)
    a0, a1, a2 = model.params(k)
    termination = "exp_range_limit" if at_limit else "converged"
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
    # a1 lies 2.4 below the samples beside an a2 of 0.0033, so (T - a1)/a2
    # reaches 720; and span/k underflows to an a2 of 0
    ([([437946966090325.56, 437946966090325.7, 437946966090325.8],
       [8.074067995585017e306, 5.846698970430042e306, 8.325099338657844e306]),
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
    """At every rate where hit(k), make the residuals NaN, or the objective
    that of the best constant (so that it ties), or the column's part
    orthogonal to 1/y zero (so that w.w is 0 and b is 0/0), in the batched
    model and in the reference alike."""
    project, ref_project = fitting._Separable._project, RefSeparable._project

    def batched(self, k, ids):
        d, u, e, column, w, ww, b, r = project(self, k, ids)
        at, r0 = hit(k), self.r0[ids]
        if fault == "zero ww":
            w = np.where(at[:, None], 0.0, w)
            ww = fitting._dots(w, w)
            b = fitting._dots(w, r0) / ww
            r = r0 - b[:, None] * w
        else:
            r = np.where(at[:, None], math.nan if fault == "nan" else r0, r)
        return d, u, e, column, w, ww, b, r

    def scalar(self, k):
        d, e, column, w, ww, b, r = ref_project(self, k)
        if hit(np.array([k]))[0]:
            if fault == "zero ww":
                w = w * 0.0
                ww = float(w @ w)
                b = div(float(w @ self.r0), ww)
                r = self.r0 - b * w
            else:
                r = r * math.nan if fault == "nan" else self.r0
        return d, e, column, w, ww, b, r

    monkeypatch.setattr(fitting._Separable, "_project", batched)
    monkeypatch.setattr(RefSeparable, "_project", scalar)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fault", ["nan", "tie", "zero ww"])
@pytest.mark.parametrize("where", ["start", "steps", "near the minimum"])
def test_array_search_keeps_the_scalar_steps_past_a_zero_ww_a_nan_or_a_tie(
        monkeypatch, fault, where):
    fleet = exp_fleet()
    clean, _ = fit_both(fleet)
    hit = {  # the first trace starts at 3.9185 and ends at 3.9340818125684
        "start": lambda k: (k > 3.9185) & (k < 3.9186),
        "steps": lambda k: (k > 3.934) & (k < 3.9340805),  # its second rate
        "near the minimum": lambda k: (k > 3.9340818125) & (k < 3.9340818126),
    }[where]
    inject(monkeypatch, hit, fault)
    with wave_size(100):
        got, expected = fit_both(fleet)
    assert got == expected
    assert got != clean


def test_the_rate_search_answers_each_length_once_a_round(monkeypatch):
    """A round answers the live rows of each length in one call, which
    projects them once, and rows only ever retire, so the row counts of one
    model's answer calls never rise."""
    calls, project, answer = [], fitting._Separable._project, fitting._Separable.answer

    def spy_project(self, k, ids):
        calls.append((self, "project", len(k)))
        return project(self, k, ids)

    def spy_answer(self, k, ids):
        calls.append((self, "answer", len(k)))
        return answer(self, k, ids)

    monkeypatch.setattr(fitting._Separable, "_project", spy_project)
    monkeypatch.setattr(fitting._Separable, "answer", spy_answer)
    results = fit_batch(exp_fleet(), FitKind.EXPONENTIAL)
    answered = [i for i, (_, what, _) in enumerate(calls) if what == "answer"]
    assert all(calls[i + 1][:2] == (calls[i][0], "project") for i in answered)
    models = dict.fromkeys(calls[i][0] for i in answered)
    assert len(models) == 6  # the 16 traces join at once: one model for each length
    rounds = []
    for model in models:
        sizes = [n for m, what, n in calls if m is model and what == "answer"]
        assert sizes[0] == len(model.span)
        assert all(b <= a for a, b in itertools.pairwise(sizes)), sizes
        rounds.append(len(sizes))
    assert max(rounds) == max(r.iterations for r in results if isinstance(r, FitResult))


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
        seen["ww"].append(out[5])
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
            ww = model._project(np.full(len(model.span), k), slice(None))[5]
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


# --- the rate search on fleets: bit for bit, few rounds, and it always stops ---

def synthetic_fleet(count, seed):
    """count 20-sample traces of the paper's exponential at 2-10 mW noise,
    as the benchmark's fleet draws them."""
    rng = np.random.default_rng(seed)
    fleet = []
    for i in range(count):
        params = (rng.uniform(0.05, 0.5), rng.uniform(90.0, 140.0), rng.uniform(30.0, 36.0))
        sweep = (rng.uniform(25.0, 30.0), rng.uniform(80.0, 85.0), 20)
        fleet.append(generate_synthetic_trace(META, params, sweep, noise=rng.uniform(0.002, 0.01),
                                              seed=i))
    return fleet


def test_a_block_of_512_traces_matches_the_scalar_search_in_few_evaluations():
    fleet = synthetic_fleet(512, 29)
    got, expected = fit_both(fleet)  # one block: 512 traces of 20 samples
    assert got == expected
    evaluations = [r.iterations for r in fit_batch(fleet, FitKind.EXPONENTIAL)
                   if isinstance(r, FitResult)]
    assert len(evaluations) > 480
    assert np.median(evaluations) <= 7 and max(evaluations) <= 27


def test_every_hostile_and_generated_trace_stops():
    """The search has no cap on its rounds: each of its steps halves the
    step before last, grows, or bisects the bracket in the order of
    doubles, so it ends; on these traces, within a few dozen rounds."""
    for data in (hostile_pairs(), [tr for seed in range(3) for tr in exp_fleet()],
                 synthetic_fleet(200, 3)):
        out = fit_batch(data, FitKind.EXPONENTIAL)
        evaluations = [r.iterations for r in out if isinstance(r, FitResult)]
        assert evaluations and max(evaluations) <= 64, max(evaluations)


def test_the_golden_fleet_fails_the_same_traces_with_the_same_error():
    paths = sorted(GOLDEN_FLEET.iterdir())
    out = fit_batch([parse_trace(p.read_bytes()) for p in paths], FitKind.EXPONENTIAL)
    failed = {p.stem: r for p, r in zip(paths, out) if isinstance(r, Exception)}
    assert sorted(failed) == ["concave0", "concave1", "concave2", "f08", "f14", "f22", "f26"]
    for r in failed.values():
        assert isinstance(r, DegenerateInput) and str(r).endswith("; the family needs C > 0")

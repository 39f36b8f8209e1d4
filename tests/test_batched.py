"""Batched fits against the per-trace loop they replaced.

The reference below is compare_models as it was before fits ran over
blocks of stacked traces: every family fitted to one trace at a time, and
every pooled error re-predicted trace by trace.  The batched code must give
the same FitResults, the same failures with the same messages, and the same
bits for every pooled error and p-value, whatever the batch and wherever
the block boundaries fall.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower import fitting
from thermopower.errors import AllTies, DegenerateInput, EmptyGroup
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
from thermopower.trace import Trace, TraceMeta, TraceSample, generate_synthetic_trace

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
        TraceSample(0.0, temp, power)  # raises the InvalidSample a Trace would
    return t, y


def ref_poly_fit(data, degree, kind):
    t, y = ref_xy(data)
    if len(np.unique(t)) < degree + 1:
        raise DegenerateInput(f"{kind.value} fit needs >= {degree + 1} distinct temperatures")
    design = np.column_stack([t**k / y for k in range(degree, -1, -1)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.ones_like(y), rcond=None)
    if rank < degree + 1:
        raise DegenerateInput(f"{kind.value} fit design matrix is rank-deficient")
    model = np.polyval(coeffs, t)
    return FitResult(kind, tuple(map(float, coeffs)), ref_fit_error(y, model), 0, True)


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
    error = ref_fit_error(y, np.exp((t - a1) / a2) + a0)
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
    return Trace.from_columns(META, 0.2 * np.arange(n), t, y)


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
def block_size(n):
    """Fit in blocks of n traces, so small batches cross block boundaries."""
    saved, fitting.BLOCK = fitting.BLOCK, n
    try:
        yield
    finally:
        fitting.BLOCK = saved


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
    block=st.sampled_from([1, 2, 3, 512]),
    data=st.data(),
)
def test_compare_models_matches_per_trace_reference(trace_list, block, data):
    keys = data.draw(st.lists(st.sampled_from("ab"), min_size=len(trace_list),
                              max_size=len(trace_list)))
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    with block_size(block):
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


def test_blocks_are_cut_by_samples_as_well_as_traces():
    def sizes(keys):
        return [len(idx) for idx in fitting._blocks(keys)]

    assert sizes([(20,)] * 600) == [fitting.BLOCK, 600 - fitting.BLOCK]
    assert sizes([(100_000,)] * 3) == [1, 1, 1]
    assert sizes([(0,)] * 3) == [3]
    per_block = fitting.BLOCK_SAMPLES // 1000
    assert sizes([(1000, FitKind.LINEAR)] * (per_block + 1)) == [per_block, 1]


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
       block=st.sampled_from([1, 3, 512]))
def test_aggregate_error_of_mixed_families_matches_reference(trace_list, block):
    fits = [(tr, r) for tr in trace_list for kind in FitKind
            for r in fit_batch([tr], kind) if isinstance(r, FitResult)]
    with block_size(block):
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
    for e in (-1000, -500, 500, 1000):
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
        huge.append(Trace.from_columns(META, 0.2 * np.arange(20), t, y * scale))
    assert compare_models(huge).failures == []
    assert_same_comparison(huge, {})


def test_fleet_across_the_default_block_boundary():
    assert fitting.BLOCK < 520
    rng = np.random.default_rng(7)
    fleet = []
    for seed in range(520):
        params = (rng.uniform(0.1, 0.5), rng.uniform(90.0, 120.0), rng.uniform(25.0, 40.0))
        fleet.append(generate_synthetic_trace(
            TraceMeta("A7" if seed % 2 else "A15", 1.0, 1 + seed % 4), params,
            (25.0, 85.0, 20), noise=0.005, seed=seed))
    groups = {}
    for i, tr in enumerate(fleet):
        groups.setdefault(f"{tr.meta.processor}/c{tr.meta.cores}", []).append(i)
    assert_same_comparison(fleet, groups)

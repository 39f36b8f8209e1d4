"""Curve fits, error metric, aggregation, sign test, model comparison."""

import json
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower.errors import (
    AllTies,
    DegenerateInput,
    EmptyGroup,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    ZeroMeasurement,
)
from thermopower.fitting import (
    FitKind,
    FitResult,
    aggregate_error,
    compare_models,
    exp_curve,
    fit,
    fit_batch,
    fit_error,
    fit_exponential,
    fit_linear,
    fit_quadratic,
    sign_test,
)
from thermopower.trace import Trace, TraceMeta, generate_synthetic_trace

META = TraceMeta("SYN", 1.0, 4)
PARAMS = (0.3, 100.0, 33.0)


def synth(noise=0.0, seed=0, sweep=(25.0, 85.0, 20), params=PARAMS):
    return generate_synthetic_trace(META, params, sweep, noise=noise, seed=seed)


# --- linear ---

def test_linear_two_point_exact():
    r = fit_linear(([30.0, 40.0], [1.0, 1.2]))
    assert r.kind is FitKind.LINEAR
    a1, a0 = r.coeffs
    assert math.isclose(a1, 0.02, rel_tol=1e-12)
    assert math.isclose(a0, 0.4, rel_tol=1e-12)
    assert r.error <= 1e-12
    assert r.iterations == 0 and r.converged


def test_linear_flat_power_gives_zero_slope():
    r = fit_linear(([30.0, 50.0], [2.0, 2.0]))
    assert abs(r.coeffs[0]) < 1e-15
    assert math.isclose(r.coeffs[1], 2.0, rel_tol=1e-12)


def test_linear_degenerate_temperatures():
    with pytest.raises(DegenerateInput):
        fit_linear(([50.0, 50.0, 50.0], [1.0, 1.1, 1.2]))


def test_linear_trace_and_pair_inputs_agree():
    tr = synth()
    a = fit_linear(tr)
    b = fit_linear((tr.temp_c.tolist(), tr.power_w.tolist()))
    assert a == b


# --- quadratic ---

def test_quadratic_three_point_exact():
    r = fit_quadratic(([30.0, 40.0, 50.0], [1.0, 1.2, 1.5]))
    a2, a1, a0 = r.coeffs
    assert math.isclose(a2, 0.0005, rel_tol=1e-9)
    assert math.isclose(a1, -0.015, rel_tol=1e-9)
    assert math.isclose(a0, 1.0, rel_tol=1e-9)
    assert r.error <= 1e-10


def test_quadratic_on_linear_data_has_zero_curvature():
    temps = [20.0 + 5.0 * i for i in range(8)]
    powers = [0.02 * t + 0.4 for t in temps]
    r = fit_quadratic((temps, powers))
    assert abs(r.coeffs[0]) < 1e-9


def test_quadratic_degenerate_temperatures():
    with pytest.raises(DegenerateInput):
        fit_quadratic(([30.0, 30.0, 40.0], [1.0, 1.0, 1.2]))


# temperatures closer together than usual: a design is rank-deficient only
# when a column's Gram-Schmidt remainder vanishes beside the column itself,
# however the columns differ in scale
NEAR_SINGULAR = [
    ([50.0, 50.0 + 1e-12, 50.0 + 2e-12], fit_linear, "fits"),
    ([50.0, 50.0 + 1e-12, 50.0 + 2e-12], fit_quadratic, "rank-deficient"),
    ([50.0, 50.0 + 1e-9, 60.0], fit_linear, "fits"),
    ([50.0, 50.0 + 1e-9, 60.0], fit_quadratic, "fits"),
    ([1e4, 1e4 + 1.0, 1e4 + 2.0], fit_linear, "fits"),
    ([1e4, 1e4 + 1.0, 1e4 + 2.0], fit_quadratic, "fits"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("temps", "fitter", "outcome"), NEAR_SINGULAR,
                         ids=[f"{t[0]:g}+{t[1] - t[0]:.0e}-{f.__name__}" for t, f, _ in NEAR_SINGULAR])
def test_near_singular_polynomial_designs(temps, fitter, outcome):
    powers = [1.0, 1.1, 1.2]
    if outcome == "rank-deficient":
        with pytest.raises(DegenerateInput, match="design matrix is rank-deficient"):
            fitter((temps, powers))
        return
    r = fitter((temps, powers))
    assert r.converged and all(map(math.isfinite, r.coeffs))
    assert r.error == fit_error(powers, r.predict(np.array(temps)))


# --- exponential ---

def test_exponential_noiseless_recovery():
    r = fit_exponential(synth())
    assert r.kind is FitKind.EXPONENTIAL
    for got, want in zip(r.coeffs, PARAMS):
        assert math.isclose(got, want, rel_tol=1e-6)
    assert r.error < 1e-10
    assert r.converged and r.iterations > 0


def test_exponential_three_point_interpolation():
    r = fit_exponential(synth(sweep=(40.0, 60.0, 3)))
    assert r.error <= 1e-12


def test_exponential_constant_power_degenerate():
    with pytest.raises(DegenerateInput):
        fit_exponential(([30.0, 40.0, 50.0, 60.0], [2.0, 2.0, 2.0, 2.0]))
    # here the rounding noise of the best constant gives a C > 0
    with pytest.raises(DegenerateInput, match="flat"):
        fit_exponential((np.linspace(25.0, 85.0, 1000), np.full(1000, 1.1)))


def test_exponential_needs_three_distinct_temperatures():
    with pytest.raises(DegenerateInput):
        fit_exponential(([30.0, 30.0, 40.0, 40.0], [1.0, 1.0, 1.2, 1.2]))


def test_exponential_exact_line_is_degenerate():
    # the best curve is the line itself, which a0 + C*exp(k*T) reaches only
    # as k -> 0 with C -> inf; the linear fit of the same data is exact
    temps = np.linspace(25.0, 85.0, 20)
    powers = 0.02 * temps + 1.0
    assert fit_linear((temps, powers)).error < 1e-14
    with pytest.raises(DegenerateInput, match="straight line"):
        fit_exponential((temps, powers))


# --- pairs: one sample check for every family ---

TEMPS = [30.0, 40.0, 50.0, 60.0]
POWERS = [1.1, 1.2, 1.5, 1.9]
BAD_VALUES = [("power_w", v) for v in (-1.0, 0.0, math.nan, math.inf, -math.inf)] + [
    ("temp_c", v) for v in (math.nan, math.inf, -math.inf)
]


def bad_pair(column, value):
    temps, powers = list(TEMPS), list(POWERS)
    (powers if column == "power_w" else temps)[1] = value
    return temps, powers


@pytest.fixture(scope="module")
def child_outcomes():
    """"Type: message" of fitting each bad pair, and a pair whose T^2
    overflows, in a child process: an infinite design entry once sent the
    quadratic fit's least-squares solve into a loop that never ended, so a
    timeout bounds the wait."""
    pairs = [bad_pair(c, v) for c, v in BAD_VALUES] + [([-1e300, *TEMPS[1:]], POWERS)]
    code = textwrap.dedent("""
        import json, sys
        from thermopower.fitting import FitKind, fit
        out = []
        for temps, powers in json.loads(sys.stdin.read()):
            for kind in FitKind:
                try:
                    fit((temps, powers), kind)
                    out.append("no error")
                except Exception as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
        print(json.dumps(out))
    """)
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps(pairs),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    got = iter(json.loads(done.stdout))
    return {(i, kind): next(got) for i in range(len(pairs)) for kind in FitKind}


@pytest.mark.parametrize("kind", list(FitKind), ids=lambda k: k.value)
@pytest.mark.parametrize("case", range(len(BAD_VALUES)),
                         ids=[f"{c}={v!r}" for c, v in BAD_VALUES])
def test_pair_with_a_bad_sample_raises_the_trace_error(kind, case, child_outcomes):
    temps, powers = bad_pair(*BAD_VALUES[case])
    with pytest.raises(InvalidSample) as trace_error:
        Trace(META, [0.0, 0.2, 0.4, 0.6], temps, powers)
    assert child_outcomes[case, kind] == f"InvalidSample: {trace_error.value}"


def test_design_out_of_double_range_is_degenerate(child_outcomes):
    assert child_outcomes[len(BAD_VALUES), FitKind.QUADRATIC] == (
        "DegenerateInput: quadratic fit design matrix T^k/P leaves the double range")
    # 1/P overflows for a subnormal power
    with pytest.raises(DegenerateInput, match="double range"):
        fit_linear(([30.0, 40.0, 50.0], [1e-320, 1.2, 1.5]))


def test_bad_pair_fails_alone_in_a_batch():
    good = [synth(noise=0.002, seed=s) for s in range(3)]
    batch = [good[0], (TEMPS, [1.1, -1.2, 1.5, 1.9]), good[1], (good[2].temp_c, good[2].power_w)]
    for kind in FitKind:
        got = fit_batch(batch, kind)
        assert isinstance(got[1], InvalidSample)
        assert str(got[1]) == "power_w must be positive, got -1.2"
        assert all(isinstance(r, FitResult) and r.converged for i, r in enumerate(got) if i != 1)
        assert got[3] == fit(good[2], kind)


@pytest.mark.parametrize("n", [20, 1000, 100_000])
def test_exponential_converges_on_every_noisy_seed(n):
    # generate_synthetic_trace's curve and noise, without building samples
    temps = np.linspace(25.0, 85.0, n)
    clean = np.exp((temps - PARAMS[1]) / PARAMS[2]) + PARAMS[0]
    for seed in range(20):
        powers = clean + np.random.default_rng(seed).normal(0.0, 0.002, n)
        r = fit_exponential((temps, powers))
        assert r.converged and r.termination == "converged", (n, seed, r)


def test_exponential_near_step_outside_initial_bracket():
    temps = np.linspace(25.0, 85.0, 20)
    powers = np.exp((temps - 80.0) / 0.5) + 0.3
    # the search starts at k = 0, more than a first walk step (one e-fold
    # across the sweep) away from the true rate of span/a2 = 120 e-folds
    start, rate = 0.0, (85.0 - 25.0) / 0.5
    assert rate - start > 2.0
    r = fit_exponential((temps, powers))
    assert r.converged and r.termination == "converged"
    for got, want in zip(r.coeffs, (0.3, 80.0, 0.5)):
        assert math.isclose(got, want, rel_tol=1e-9)


def test_exponential_step_reports_rate_limit():
    # the two hottest samples are 0.01 C apart and the step lies between
    # them: the objective falls all the way to the steepest representable
    # curve, so the fit must not claim convergence
    temps = np.append(np.linspace(25.0, 80.0, 10), [84.99, 85.0])
    powers = np.append(np.full(11, 0.3), 1.0)
    r = fit_exponential((temps, powers))
    assert not r.converged and r.termination == "exp_range_limit"
    # a2 = span / -ln(smallest normal double)
    assert math.isclose(r.coeffs[2], 60.0 / -math.log(sys.float_info.min), rel_tol=1e-12)


def test_exponential_concave_data_has_no_positive_scale():
    temps = np.linspace(25.0, 85.0, 20)
    with pytest.raises(DegenerateInput, match="C > 0"):
        fit_exponential((temps, 2.0 - np.exp(-(temps - 20.0) / 20.0)))


RANGE_EDGE = {
    # a0 * scale overflows on the way to the C <= 0 failure
    "C <= 0": ([5.2963431966683405, 48.56622465956784, 54.36446577638626],
               [4.933117872297185e307, 3.205772026136974e257, 4.797299808706361e279],
               "C > 0"),
    # C * scale overflows, leaving a0 and a1 infinite
    "C overflows": ([90.01571285538161, 27.612421784778086, 33.71461455412502],
                    [6.750654604807136e307, 5.61950315403136e304, 6.145977459858917e306],
                    "leaves the double range: a0 is -inf, C is inf"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", RANGE_EDGE)
def test_exponential_rescaling_overflow_fails_without_a_warning(case):
    temps, powers, match = RANGE_EDGE[case]
    with pytest.raises(DegenerateInput, match=match):
        fit_exponential((temps, powers))


def test_exponential_result_error_is_consistent():
    r = fit_exponential(synth(noise=0.002, seed=1))
    tr = synth(noise=0.002, seed=1)
    recomputed = fit_error(tr.power_w.tolist(), [r.predict(t) for t in tr.temp_c.tolist()])
    assert math.isclose(recomputed, r.error, rel_tol=1e-12)


@pytest.mark.parametrize("fitter", [fit_linear, fit_quadratic, fit_exponential])
@pytest.mark.parametrize("seed", [4, 7, 9])
def test_result_error_is_the_fit_error_of_its_predictions(fitter, seed):
    tr = synth(noise=0.002, seed=seed)
    r = fitter(tr)
    assert r.error == fit_error(tr.power_w, r.predict(tr.temp_c))


# --- fit_error ---

def test_fit_error_identity():
    assert fit_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_fit_error_hand_value():
    got = fit_error([1.0, 2.0], [1.1, 1.8])
    assert math.isclose(got, 0.1414213562373095, rel_tol=1e-12)


def test_fit_error_single_full_residual():
    assert fit_error([1.0], [2.0]) == 1.0


def test_fit_error_validation():
    with pytest.raises(LengthMismatch):
        fit_error([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        fit_error([], [])
    with pytest.raises(ZeroMeasurement):
        fit_error([1.0, 0.0], [1.0, 1.0])


# --- aggregation ---

def test_aggregate_single_trace_equals_fit_error():
    tr = synth(noise=0.002, seed=2)
    r = fit_exponential(tr)
    assert math.isclose(aggregate_error([(tr, r)]), r.error, rel_tol=1e-12)


def test_aggregate_pools_squared_sums():
    t1, t2 = synth(noise=0.005, seed=3), synth(noise=0.005, seed=4)
    r1, r2 = fit_linear(t1), fit_linear(t2)
    got = aggregate_error([(t1, r1), (t2, r2)])
    assert math.isclose(got, math.hypot(r1.error, r2.error), rel_tol=1e-12)


def test_aggregate_noiseless_group_is_zero():
    group = []
    for seed in range(3):
        tr = synth(seed=seed)
        group.append((tr, fit_exponential(tr)))
    assert aggregate_error(group) < 1e-9


def test_aggregate_empty():
    with pytest.raises(EmptyGroup):
        aggregate_error([])


# --- sign test ---

def test_sign_test_all_wins():
    p = sign_test(list(range(10)), [x + 1.0 for x in range(10)])
    assert p == 0.001953125


def test_sign_test_eleven_of_twelve():
    a = [0.0] * 12
    b = [1.0] * 11 + [-1.0]
    assert sign_test(a, b) == 0.00634765625


def test_sign_test_clamped_to_one():
    assert sign_test([1.0, 1.0, 3.0, 3.0], [2.0, 2.0, 2.0, 2.0]) == 1.0


def test_sign_test_ties_excluded():
    # one win, one loss, one tie -> n=2, k=1 -> p clamps to 1
    assert sign_test([1.0, 2.0, 5.0], [2.0, 1.0, 5.0]) == 1.0


def test_sign_test_all_ties():
    with pytest.raises(AllTies):
        sign_test([1.0, 2.0], [1.0, 2.0])


def test_sign_test_length_mismatch():
    with pytest.raises(LengthMismatch):
        sign_test([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        sign_test([], [])


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=40),
    st.data(),
)
def test_sign_test_symmetry(a, data):
    b = data.draw(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=len(a),
            max_size=len(a),
        )
    )
    try:
        p_ab = sign_test(a, b)
    except AllTies:
        with pytest.raises(AllTies):
            sign_test(b, a)
        return
    assert p_ab == sign_test(b, a)
    assert 0.0 < p_ab <= 1.0


def _sign_test_reference(a, b):
    """The textbook form: 2*min(CDF(k), 1 - CDF(k-1)), each term a fresh comb."""
    wins = sum(1 for x, y in zip(a, b) if x < y)
    n = wins + sum(1 for x, y in zip(a, b) if x > y)
    denom = Fraction(1, 2**n)
    cdf_k = sum(math.comb(n, j) for j in range(wins + 1)) * denom
    cdf_km1 = cdf_k - math.comb(n, wins) * denom
    return float(min(2 * min(cdf_k, 1 - cdf_km1), Fraction(1)))


@settings(max_examples=200)
@given(st.integers(0, 150), st.integers(0, 150), st.integers(0, 5))
def test_sign_test_matches_reference_formula(wins, losses, ties):
    if wins + losses == 0:
        return
    a = [0.0] * (wins + losses + ties)
    b = [1.0] * wins + [-1.0] * losses + [0.0] * ties
    assert sign_test(a, b) == _sign_test_reference(a, b)
    assert sign_test(b, a) == sign_test(a, b)


def test_sign_test_n_100000():
    n, wins = 100_000, 49_400
    a = [0.0] * n
    b = [1.0] * wins + [-1.0] * (n - wins)
    p = sign_test(a, b)
    # independent float evaluation of the same tail in log space
    log_half_n = n * math.log(2)
    log_terms = [
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1) - log_half_n
        for j in range(wins + 1)
    ]
    top = max(log_terms)
    want = 2 * math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms)
    assert math.isclose(p, want, rel_tol=1e-9)


# --- cross-family properties ---

def test_nesting_quadratic_never_worse_than_linear():
    for seed in range(6):
        tr = synth(noise=0.01, seed=seed)
        assert fit_quadratic(tr).error <= fit_linear(tr).error + 1e-12


def test_scale_covariance():
    tr = synth(noise=0.002, seed=5)
    temps, powers = tr.temp_c.tolist(), tr.power_w.tolist()
    scaled = [p * 37.5 for p in powers]
    for fitter in (fit_linear, fit_quadratic, fit_exponential):
        e1 = fitter((temps, powers)).error
        e2 = fitter((temps, scaled)).error
        assert math.isclose(e1, e2, rel_tol=1e-10)


# --- compare_models ---

def test_compare_single_noiseless_trace_orders_families():
    tr = synth()
    cmp = compare_models([tr])
    errs = {k: cmp.results[0][k].error for k in FitKind}
    assert errs[FitKind.EXPONENTIAL] <= errs[FitKind.QUADRATIC] <= errs[FitKind.LINEAR]
    assert cmp.failures == []
    assert all(v is not None for v in cmp.aggregated.values())


def test_compare_marks_and_excludes_failures():
    good = [synth(noise=0.002, seed=s) for s in range(3)]
    flat = Trace(META, [0.2 * i for i in range(5)], [30.0 + 5.0 * i for i in range(5)], [2.0] * 5)
    cmp = compare_models(good + [flat])
    failed = [(i, kind) for i, kind, _ in cmp.failures]
    assert (3, FitKind.EXPONENTIAL) in failed
    assert all(i == 3 for i, _ in failed)
    assert cmp.results[3][FitKind.EXPONENTIAL] is None
    # pairwise tests ran on the three clean traces
    assert cmp.p_values[(FitKind.EXPONENTIAL, FitKind.QUADRATIC)] is not None
    assert cmp.aggregated[FitKind.EXPONENTIAL] is not None


def test_compare_empty():
    with pytest.raises(EmptyGroup):
        compare_models([])


# a group that names a trace outside the set, or one twice, is a caller's error
IMPOSSIBLE_GROUPS = {
    "past the end": ([0, 1, 2, 3, 4, 99], "99 is not a trace index in range(5)"),
    "negative": ([-1], "-1 is not a trace index in range(5)"),
    "repeated": ([0, 0], "trace index 0 repeats"),
    "float": ([0, 1.0], "1.0 is not a trace index in range(5)"),
    "bool": ([True], "True is not a trace index in range(5)"),
}


@pytest.mark.parametrize("case", IMPOSSIBLE_GROUPS)
def test_compare_rejects_impossible_groups(case):
    traces = [synth(noise=0.002, seed=s) for s in range(5)]
    group, message = IMPOSSIBLE_GROUPS[case]
    with pytest.raises(InvalidParams) as exc:
        compare_models(traces, {"ok": [0, 1], "g": group})
    assert str(exc.value) == f"group 'g': {message}"


def test_compare_takes_numpy_indices_as_ints():
    traces = [synth(noise=0.002, seed=s) for s in range(5)]
    by_list = compare_models(traces, {"g": [4, 0, 2]}).groups
    assert compare_models(traces, {"g": np.array([4, 0, 2])}).groups == by_list


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("temp", [1e308, np.array([1e308, 30.0])], ids=["scalar", "array"])
def test_exp_curve_raises_where_its_exponent_overflows_to_inf(temp):
    # T - a1 overflows to inf, whose math.exp is inf, not an OverflowError
    with pytest.raises(InvalidParams, match=r"leaves the double range: \(T - a1\)/a2 reaches inf$"):
        exp_curve(temp, -1e308, 1.0)
    assert np.all(exp_curve(-temp, 1e308, 1.0) == 0.0)  # -inf: the curve's floor


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("temp", [50.0, np.array([50.0])], ids=["scalar", "array"])
def test_predict_raises_invalid_params_on_a_zero_a2(temp):
    # the generator's check and wording; no ZeroDivisionError or numpy warning
    fit = FitResult(FitKind.EXPONENTIAL, (0.3, 100.0, 0.0), 0.0, 0, True)
    with pytest.raises(InvalidParams, match="^a2 must be nonzero$"):
        fit.predict(temp)

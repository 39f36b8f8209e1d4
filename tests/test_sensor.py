"""erf approximation, the B(t) correction factor, and series correction."""

import math

import numpy as np
import pytest

from thermopower.errors import (
    InvalidParams,
    NonMonotonicTime,
    NonPositiveTime,
    ZeroDenominator,
)
from thermopower.sensor import (
    SensorModel,
    b_factor,
    correct_series,
    erf,
    model_from_json,
    model_to_json_dict,
)

FIG_MODEL = SensorModel(4.125e-7, 8.25, 36.7, 25.0, 55.0)


def erf_taylor(x):
    """Independent series oracle: erf(x) = 2/sqrt(pi) * sum of the
    alternating Taylor terms, summed to convergence."""
    total, term, n = 0.0, x, 0
    while True:
        contribution = term / (2 * n + 1)
        total += contribution
        if abs(contribution) < 1e-18 * max(1.0, abs(total)):
            return 2.0 / math.sqrt(math.pi) * total
        n += 1
        term *= -x * x / n


# --- erf ---

def test_erf_zero():
    assert erf(0.0) == 0.0


def test_erf_against_taylor_grid():
    for i in range(161):
        x = -4.0 + i * 0.05
        assert abs(erf(x) - erf_taylor(x)) <= 1e-7


def test_erf_one():
    assert abs(erf(1.0) - 0.8427007929497149) <= 1e-7


def test_erf_odd_symmetry():
    for x in (1e-30, 1e-9, 0.3, 0.9, 1.1, 2.0, 3.5, 5.0, 9.0, 1e6):
        assert erf(-x) == -erf(x)


def test_erf_all_branch_points_match_libm():
    # one probe inside each piecewise-rational region
    for x in (1e-10, 0.5, 1.0, 2.0, 3.5, 5.5):
        assert abs(erf(x) - math.erf(x)) <= 1e-9


def test_erf_open_range():
    for x in (4.0, 5.9, 6.0, 6.5, 50.0, 1e12):
        assert abs(erf(x)) < 1.0
        assert abs(erf(x)) > 0.9999999


def test_erf_strictly_increasing_where_representable():
    prev = erf(-4.0)
    for i in range(1, 161):
        cur = erf(-4.0 + i * 0.05)
        assert cur > prev
        prev = cur


def test_erf_monotone_globally():
    prev = erf(-9.0)
    for i in range(1, 361):
        cur = erf(-9.0 + i * 0.05)
        assert cur >= prev
        prev = cur


# --- SensorModel ---

def test_model_validation():
    with pytest.raises(InvalidParams):
        SensorModel(0.0, 8.25, 36.7, 25.0, 55.0)
    with pytest.raises(InvalidParams):
        SensorModel(4.125e-7, -1.0, 36.7, 25.0, 55.0)
    with pytest.raises(InvalidParams):
        SensorModel(4.125e-7, 8.25, 0.0, 25.0, 55.0)
    with pytest.raises(InvalidParams):
        SensorModel(4.125e-7, 8.25, 36.7, 40.0, 40.0)
    with pytest.raises(InvalidParams):
        SensorModel(4.125e-7, 8.25, 36.7, math.nan, 55.0)


def test_model_json_round_trip():
    import json

    again = model_from_json(json.dumps(model_to_json_dict(FIG_MODEL)))
    assert again == FIG_MODEL
    with pytest.raises(InvalidParams):
        model_from_json('{"alpha": 1e-7, "a": 8.25, "b": 36.7}')
    for value in ("true", "null", '"36.7"', "1" + "0" * 400, "1e999", "NaN", "-Infinity"):
        text = json.dumps(model_to_json_dict(FIG_MODEL)).replace("36.7", value)
        with pytest.raises(InvalidParams, match="must be numbers a double can hold, got b "):
            model_from_json(text)


# --- b_factor ---

def test_b_factor_frozen_regression_value():
    # direct high-precision evaluation of the quotient, frozen beforehand
    assert math.isclose(b_factor(FIG_MODEL, 60.0), 0.8936493034510143, rel_tol=1e-12)


def test_b_factor_small_time_limit():
    got = b_factor(FIG_MODEL, 1e-12)
    assert math.isclose(got, 25.0 / 55.0, rel_tol=1e-9)


def test_b_factor_at_a_time_whose_diffusion_term_underflows_is_the_small_time_limit():
    # 4 * alpha * 1e-320 rounds to 0, so a / sqrt(...) is inf, whose erf is 1;
    # tier-1 turns numpy's divide-by-zero warning into an error
    model = SensorModel(4.125e-07, 0.00825, 36.7, 25.0, 55.0)
    assert 4.0 * model.alpha * 1e-320 == 0.0
    assert b_factor(model, 1e-320) == 25.0 / 55.0
    assert b_factor(model, np.array([1e-320, 60.0]))[0] == 25.0 / 55.0


def test_b_factor_large_time_limit():
    got = b_factor(FIG_MODEL, 1e21)
    assert math.isclose(got, 55.0 / 25.0, rel_tol=1e-5)


def test_b_factor_rejects_nonpositive_time():
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveTime) as exc:
            b_factor(FIG_MODEL, t)
        assert str(exc.value) == f"the correction is only defined for t > 0, got {t!r}"
        with pytest.raises(NonPositiveTime) as exc:
            b_factor(FIG_MODEL, np.array([1.0, t]))
        assert str(exc.value) == f"sample 1: the correction needs t > 0, got {t!r}"


def _denominator_zero_time(model):
    """Bisect for the time where the denominator crosses zero."""
    def den(t):
        arg = model.a / math.sqrt(4.0 * model.alpha * t)
        return (model.t_inf - model.t_init) * erf(arg) + model.t_init

    lo, hi = 1.0, 1000.0
    assert den(lo) * den(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if den(lo) * den(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_b_factor_zero_denominator_reported():
    # negative t_init makes the denominator cross zero at finite time
    model = SensorModel(0.25, 1.0, 10.0, -10.0, 20.0)
    t_star = _denominator_zero_time(model)
    with pytest.raises(ZeroDenominator):
        b_factor(model, t_star)
    # away from the crossing the factor is finite again
    assert math.isfinite(b_factor(model, t_star * 4.0))


# --- correct_series ---

def test_correct_series_scales_by_b():
    series = [(10.0, 40.0), (20.0, 41.0), (30.0, 42.5)]
    out = correct_series(FIG_MODEL, series)
    assert [t for t, _ in out] == [10.0, 20.0, 30.0]
    for (t, raw), (_, corrected) in zip(series, out):
        assert corrected == b_factor(FIG_MODEL, t) * raw


def test_correct_series_near_degenerate_is_identity():
    model = SensorModel(4.125e-7, 8.25, 36.7, 50.0, 50.0 + 1e-9)
    series = [(1.0, 30.0), (2.0, 35.0), (3.0, 40.0)]
    out = correct_series(model, series)
    for (_, raw), (_, corrected) in zip(series, out):
        assert math.isclose(corrected, raw, rel_tol=1e-9)


def test_correct_series_homogeneous_in_temperature():
    series = [(5.0, 30.0), (10.0, 35.0), (15.0, 40.0)]
    scaled = [(t, 3.5 * temp) for t, temp in series]
    base = correct_series(FIG_MODEL, series)
    big = correct_series(FIG_MODEL, scaled)
    for (_, a), (_, b) in zip(base, big):
        assert math.isclose(b, 3.5 * a, rel_tol=1e-12)


def test_correct_series_time_validation():
    with pytest.raises(NonPositiveTime):
        correct_series(FIG_MODEL, [(0.0, 30.0), (1.0, 31.0)])
    with pytest.raises(NonMonotonicTime):
        correct_series(FIG_MODEL, [(1.0, 30.0), (1.0, 31.0)])
    with pytest.raises(NonMonotonicTime):
        correct_series(FIG_MODEL, [(2.0, 30.0), (1.0, 31.0)])


def test_correct_series_zero_denominator_names_index():
    model = SensorModel(0.25, 1.0, 10.0, -10.0, 20.0)
    t_star = _denominator_zero_time(model)
    series = [(t_star / 4.0, 30.0), (t_star, 31.0)]
    with pytest.raises(ZeroDenominator) as exc:
        correct_series(model, series)
    assert exc.value.index == 1


# --- bend reversal ---

def second_divided_differences(xs, ys):
    pts = sorted(zip(xs, ys))
    out = []
    for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:]):
        out.append(((y2 - y1) / (x2 - x1) - (y1 - y0) / (x1 - x0)) / (x2 - x0))
    return out


def test_lagged_concave_curve_becomes_convex():
    # simulate a rising hotspot with a lagging distant sensor, power convex
    # in the hotspot temperature; the raw power-vs-sensor curve bends the
    # wrong way and the correction flips it
    model = SensorModel(4.125e-7, 8.25e-3, 36.7, 25.0, 55.0)
    times = [5.0 + i * (150.0 - 5.0) / 39 for i in range(40)]
    t_hot = [30.0 * (1.0 - math.exp(-t / 36.7)) + 25.0 for t in times]
    t_sensor = [th / b_factor(model, t) for t, th in zip(times, t_hot)]
    power = [math.exp((th - 100.0) / 33.0) + 0.3 for th in t_hot]

    raw = second_divided_differences(t_sensor, power)
    assert sum(1 for d in raw if d < 0) >= 0.9 * len(raw)

    corrected = correct_series(model, list(zip(times, t_sensor)))
    t_est = [temp for _, temp in corrected]
    for got, want in zip(t_est, t_hot):
        assert math.isclose(got, want, rel_tol=1e-12)
    fixed = second_divided_differences(t_est, power)
    assert sum(1 for d in fixed if d > 0) >= 0.9 * len(fixed)

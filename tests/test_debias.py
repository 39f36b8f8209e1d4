"""Reference-temperature power transforms and their quality metrics."""

import math
import warnings

import pytest

from thermopower.debias import (
    DebiasedTrace,
    DebiasSpec,
    debias,
    fit_eta,
    metric_afl,
    metric_fl,
    metric_rat,
    write_debiased,
)
from thermopower.errors import InvalidParams, LengthMismatch, ZeroSpread
from thermopower.fitting import FitKind
from thermopower.trace import (
    Trace,
    TraceMeta,
    generate_synthetic_trace,
    parse_table,
)

META = TraceMeta("SYN", 1.0, 4)


def make_trace(pairs):
    temps, powers = zip(*pairs)
    return Trace(META, [0.2 * i for i in range(len(pairs))], temps, powers)


def linear_trace(eta1=0.02, eta0=0.4, temps=(30.0, 40.0, 50.0, 60.0)):
    return make_trace([(t, eta1 * t + eta0) for t in temps])


# --- transforms ---

def test_linear_shift_hand_value():
    spec = DebiasSpec(FitKind.LINEAR, (0.01,), 50.0)
    tr = make_trace([(40.0, 1.0), (50.0, 1.0), (60.0, 1.0)])
    out = debias(tr, spec)
    assert math.isclose(out.ref_power[0], 1.1, rel_tol=1e-12)
    assert out.ref_power[1] == 1.0  # T_m == T_r leaves the sample alone


def test_quadratic_shift_hand_value():
    spec = DebiasSpec(FitKind.QUADRATIC, (1e-4, 0.0), 50.0)
    tr = make_trace([(40.0, 1.0), (50.0, 2.0), (55.0, 2.0)])
    out = debias(tr, spec)
    assert math.isclose(out.ref_power[0], 1.09, rel_tol=1e-12)
    assert out.ref_power[1] == 2.0


def test_exponential_shift_cancels_true_curve():
    params = (0.3, 100.0, 33.0)
    tr = generate_synthetic_trace(META, params, (25.0, 85.0, 20))
    spec = DebiasSpec(FitKind.EXPONENTIAL, (100.0, 33.0), 55.0)
    out = debias(tr, spec)
    expected = math.exp((55.0 - 100.0) / 33.0) + 0.3
    for p in out.ref_power:
        assert math.isclose(p, expected, rel_tol=1e-12)


def test_exact_linear_cancellation():
    tr = linear_trace()
    spec = fit_eta(tr, FitKind.LINEAR, 45.0)
    assert math.isclose(spec.eta[0], 0.02, rel_tol=1e-9)
    out = debias(tr, spec)
    expected = 0.02 * 45.0 + 0.4
    for p in out.ref_power:
        assert math.isclose(p, expected, rel_tol=1e-12)
    assert max(out.ref_power) - min(out.ref_power) < 1e-12
    assert out.metrics.fl < 1e-9


def test_exact_quadratic_cancellation():
    eta2, eta1, eta0 = 0.0005, -0.015, 1.0
    temps = [30.0, 37.5, 45.0, 52.5, 60.0]
    tr = make_trace([(t, eta2 * t * t + eta1 * t + eta0) for t in temps])
    spec = fit_eta(tr, FitKind.QUADRATIC, 45.0)
    assert math.isclose(spec.eta[0], eta2, rel_tol=1e-9)
    assert math.isclose(spec.eta[1], eta1, rel_tol=1e-9)
    out = debias(tr, spec)
    expected = eta2 * 45.0**2 + eta1 * 45.0 + eta0
    for p in out.ref_power:
        assert math.isclose(p, expected, rel_tol=1e-12)


def test_identity_spec_keeps_power():
    tr = make_trace([(50.0, 1.0), (50.0 + 1e-9, 2.0), (50.0 + 2e-9, 1.5)])
    out = debias(tr, DebiasSpec(FitKind.LINEAR, (0.0,), 50.0))
    assert out.ref_power == (1.0, 2.0, 1.5)
    assert math.isclose(out.metrics.fl, 1.0, rel_tol=1e-12)


def test_order_preserved_at_fixed_temperature():
    spec = DebiasSpec(FitKind.LINEAR, (0.05,), 60.0)
    tr = make_trace([(40.0, 1.0), (40.0 + 1e-12, 1.2), (40.0 + 2e-12, 1.1)])
    with pytest.warns(UserWarning):  # ref sits outside the tiny measured range
        out = debias(tr, spec)
    assert out.ref_power[0] < out.ref_power[2] < out.ref_power[1]


# --- fit_eta ---

def test_fit_eta_constant_power_zero_slope():
    tr = make_trace([(30.0, 2.0), (40.0, 2.0), (50.0, 2.0)])
    spec = fit_eta(tr, FitKind.LINEAR, 40.0)
    assert abs(spec.eta[0]) < 1e-15


def test_fit_eta_exponential_kind():
    tr = generate_synthetic_trace(META, (0.3, 100.0, 33.0), (25.0, 85.0, 20))
    spec = fit_eta(tr, FitKind.EXPONENTIAL, 55.0)
    assert math.isclose(spec.eta[0], 100.0, rel_tol=1e-6)
    assert math.isclose(spec.eta[1], 33.0, rel_tol=1e-6)


def test_spec_validation():
    with pytest.raises(InvalidParams):
        DebiasSpec(FitKind.LINEAR, (0.1, 0.2), 50.0)  # wrong arity
    with pytest.raises(InvalidParams):
        DebiasSpec(FitKind.QUADRATIC, (0.1,), 50.0)
    with pytest.raises(InvalidParams):
        DebiasSpec(FitKind.LINEAR, (math.nan,), 50.0)
    with pytest.raises(InvalidParams):
        DebiasSpec(FitKind.LINEAR, (0.1,), math.inf)
    with pytest.raises(InvalidParams):
        DebiasSpec(FitKind.EXPONENTIAL, (100.0, 0.0), 50.0)


def test_debiased_trace_length_check():
    tr = linear_trace()
    spec = DebiasSpec(FitKind.LINEAR, (0.02,), 45.0)
    from thermopower.debias import DebiasMetrics

    with pytest.raises(LengthMismatch):
        DebiasedTrace(tr, spec, (1.0, 2.0), DebiasMetrics(0.0, 0.0, 0.0))


# --- metrics ---

def test_afl_hand_value():
    tr = make_trace([(30.0, 1.0), (40.0, 1.015), (50.0, 1.03)])
    assert math.isclose(metric_afl(tr), 2.955665024630542, rel_tol=1e-12)


def test_afl_constant_is_zero():
    tr = make_trace([(30.0, 2.0), (40.0, 2.0), (50.0, 2.0)])
    assert metric_afl(tr) == 0.0


def test_afl_even_count_uses_central_mean():
    tr = make_trace([(30.0, 1.0), (40.0, 2.0), (50.0, 4.0), (60.0, 5.0)])
    assert math.isclose(metric_afl(tr), 100.0 * 4.0 / 3.0, rel_tol=1e-12)


def test_fl_identity_and_halving():
    assert metric_fl([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert math.isclose(metric_fl([1.0, 2.0, 3.0], [1.5, 2.0, 2.5]), 0.5, rel_tol=1e-12)


def test_fl_validation():
    with pytest.raises(ZeroSpread):
        metric_fl([2.0, 2.0], [1.0, 3.0])
    with pytest.raises(LengthMismatch):
        metric_fl([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        metric_fl([], [])


def test_rat_values():
    assert metric_rat([0.9, 1.0, 1.1]) == 0.0
    assert metric_rat([1.0, 1.0, 4.0]) == 1.0
    assert metric_rat([1.0]) == 0.0


def test_rat_small_on_seeded_noise():
    tr = generate_synthetic_trace(
        META, (0.3, 100.0, 33.0), (25.0, 85.0, 20), noise=0.002, seed=0
    )
    spec = fit_eta(tr, FitKind.QUADRATIC, 55.0)
    out = debias(tr, spec)
    assert abs(out.metrics.rat) < 0.01


# --- reference-temperature advice ---

def test_out_of_range_ref_warns():
    tr = linear_trace()
    with pytest.warns(UserWarning, match="outside the measured range"):
        debias(tr, DebiasSpec(FitKind.LINEAR, (0.02,), 200.0))


def test_in_range_ref_does_not_warn():
    tr = linear_trace()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        debias(tr, DebiasSpec(FitKind.LINEAR, (0.02,), 45.0))


# --- serialization ---

def test_write_debiased_format():
    tr = make_trace([(40.0, 1.0), (50.0, 1.2), (60.0, 1.4)])
    out = debias(tr, DebiasSpec(FitKind.LINEAR, (0.02,), 50.0))
    text = write_debiased(out)
    assert text.startswith(
        "#processor=SYN\n#freq_ghz=1.0\n#cores=4\n"
        "#ref_temp_c=50.0\n#debias_kind=linear\n"
        "time_s,temp_c,power_w,power_ref_w\n"
    )
    meta, columns, rows, _ = parse_table(text)
    assert meta["ref_temp_c"] == "50.0"
    assert meta["debias_kind"] == "linear"
    assert columns == ["time_s", "temp_c", "power_w", "power_ref_w"]
    assert len(rows) == 3
    assert rows[0][3] == 1.2  # 1.0 + 0.02*(50-40)
    assert rows[1][3] == 1.2
    assert math.isclose(rows[2][3], 1.2, rel_tol=1e-12)


def test_flat_power_fl_is_nan():
    tr = make_trace([(30.0, 2.0), (40.0, 2.0), (50.0, 2.0)])
    out = debias(tr, DebiasSpec(FitKind.LINEAR, (0.0,), 40.0))
    assert math.isnan(out.metrics.fl)

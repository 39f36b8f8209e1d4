"""The whole-array layers against per-sample references.

Each reference below is the per-sample loop the array code replaced, kept
here so the two can be compared bit for bit: the array code uses the same
IEEE operations in the same order, math.exp element by element, and a
running sum where the loop had one.
"""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermopower.debias import DebiasSpec, _median, debias, write_debiased
from thermopower.errors import MalformedRow
from thermopower.fitting import (
    FitKind,
    aggregate_error,
    fit_exponential,
    fit_linear,
    fit_quadratic,
)
from thermopower.sensor import (
    _EFX,
    _ERX,
    _ONE_BELOW_1,
    _PA,
    _PP,
    _QA,
    _QQ,
    _RA,
    _RB,
    _SA,
    _SB,
    SensorModel,
    b_factor,
    correct_series,
    erf,
)
from thermopower.trace import (
    SLAB_BYTES,
    Trace,
    TraceMeta,
    generate_synthetic_trace,
    parse_table,
    write_table,
    write_trace,
)

META = TraceMeta("SYN", 1.0, 4)
PARAMS = (0.3, 100.0, 33.0)


def bits(values) -> bytes:
    return np.asarray(values, float).tobytes()


@pytest.fixture(scope="module")
def noisy():
    return generate_synthetic_trace(META, PARAMS, (25.0, 85.0, 5000), noise=0.002, seed=4)


# --- erf ---

def _poly_ref(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def erf_ref(x: float) -> float:
    if math.isnan(x):
        return x
    sign = -1.0 if x < 0 else 1.0
    ax = abs(x)
    if ax < 2.0**-28:
        return x + _EFX * x
    if ax < 0.84375:
        z = ax * ax
        mag = ax + ax * (_poly_ref(_PP, z) / _poly_ref(_QQ, z))
    elif ax < 1.25:
        s = ax - 1.0
        mag = _ERX + _poly_ref(_PA, s) / _poly_ref(_QA, s)
    elif ax < 6.0:
        z = ax * ax
        s = 1.0 / z
        if ax < 1.0 / 0.35:
            big_r = _poly_ref(_RA, s) / _poly_ref(_SA, s)
        else:
            big_r = _poly_ref(_RB, s) / _poly_ref(_SB, s)
        mag = 1.0 - math.exp(-z - 0.5625 + big_r) / ax
    else:
        mag = 1.0
    if mag >= 1.0:
        mag = _ONE_BELOW_1
    return sign * mag


def test_erf_array_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 2.0**-28, 0.84375, 1.25, 1.0 / 0.35, 6.0, 1e-300, 40.0, math.inf]
    edges += [math.nextafter(e, -1.0) for e in edges] + [math.nextafter(e, 9.0) for e in edges]
    x = np.concatenate([
        rng.uniform(-7.0, 7.0, 20000),
        rng.normal(0.0, 1e-6, 2000),
        edges,
        -np.array(edges),
    ])
    got = erf(x)
    want = [erf_ref(v) for v in x.tolist()]
    assert bits(got) == bits(want)
    assert erf(math.nan) != erf(math.nan)
    for v in edges:
        assert bits([erf(v)]) == bits([erf_ref(v)])


# --- b_factor and correct_series ---

MODEL = SensorModel(4.125e-7, 8.25e-3, 36.7, 25.0, 55.0)


def b_factor_ref(model, t):
    delta = model.t_inf - model.t_init
    num = delta * (1.0 - math.exp(-t / model.b)) + model.t_init
    den = delta * erf_ref(model.a / math.sqrt(4.0 * model.alpha * t)) + model.t_init
    return num / den


def test_correct_series_matches_per_sample_reference():
    times = np.linspace(0.5, 900.0, 20000)
    temps = 30.0 + 20.0 * np.sin(times / 50.0)
    got = correct_series(MODEL, np.column_stack((times, temps)))
    want = [b_factor_ref(MODEL, t) * temp for t, temp in zip(times.tolist(), temps.tolist())]
    assert bits(got[:, 0]) == bits(times)
    assert bits(got[:, 1]) == bits(want)
    assert b_factor(MODEL, 60.0) == b_factor_ref(MODEL, 60.0)


def test_correct_series_accepts_pairs_and_arrays_alike():
    pairs = [(10.0, 40.0), (20.0, 41.0), (30.0, 42.5)]
    assert bits(correct_series(MODEL, pairs)) == bits(correct_series(MODEL, np.array(pairs)))


# --- aggregate_error ---

def aggregate_ref(fits):
    total = 0.0
    for trace, result in fits:
        for temp, power in zip(trace.temp_c.tolist(), trace.power_w.tolist()):
            if result.kind is FitKind.EXPONENTIAL:
                a0, a1, a2 = result.coeffs
                model = math.exp((temp - a1) / a2) + a0
            elif result.kind is FitKind.LINEAR:
                a1, a0 = result.coeffs
                model = a1 * temp + a0
            else:
                a2, a1, a0 = result.coeffs
                model = a2 * temp * temp + a1 * temp + a0
            rel = (model - power) / power
            total += rel * rel
    return math.sqrt(total)


def test_aggregate_error_matches_running_sum_reference(noisy):
    other = generate_synthetic_trace(META, PARAMS, (30.0, 80.0, 700), noise=0.003, seed=9)
    for fitter in (fit_linear, fit_quadratic, fit_exponential):
        group = [(noisy, fitter(noisy)), (other, fitter(other))]
        assert aggregate_error(group) == aggregate_ref(group)


# --- debias ---

def shift_ref(spec, temp):
    if spec.kind is FitKind.LINEAR:
        (eta1,) = spec.eta
        return eta1 * (spec.ref_temp - temp)
    if spec.kind is FitKind.QUADRATIC:
        eta2, eta1 = spec.eta
        return eta2 * (spec.ref_temp * spec.ref_temp - temp * temp) + eta1 * (spec.ref_temp - temp)
    a1, a2 = spec.eta
    return math.exp((spec.ref_temp - a1) / a2) - math.exp((temp - a1) / a2)


@pytest.mark.parametrize("spec", [
    DebiasSpec(FitKind.LINEAR, (0.0123,), 55.0),
    DebiasSpec(FitKind.QUADRATIC, (1.7e-4, -0.0031), 55.0),
    DebiasSpec(FitKind.EXPONENTIAL, (100.3, 32.9), 55.0),
])
def test_debias_matches_per_sample_reference(noisy, spec):
    out = debias(noisy, spec)
    want = [p + shift_ref(spec, t) for t, p in zip(noisy.temp_c.tolist(), noisy.power_w.tolist())]
    assert out.ref_power == tuple(want)
    med = statistics.median(want)
    assert out.metrics.rat == (statistics.fmean(want) - med) / med
    # scalar and array shifts agree too
    temp = float(noisy.temp_c[7])
    assert spec.shift(temp) == shift_ref(spec, temp)


def square(x):
    """x squared, correctly rounded, as IEEE multiplication rounds x*x."""
    return float(Fraction(x) ** 2)


@settings(max_examples=200)
@given(temps=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=20),
       ref=st.floats(-1e150, 1e150), eta=st.sampled_from([(1.0, 0.0), (1.7e-4, -0.0031)]))
@example(temps=[0.3624182010806754], ref=0.0, eta=(1.0, 0.0))  # pow(x, 2) is an ulp low
def test_quadratic_shift_squares_are_correctly_rounded(temps, ref, eta):
    spec = DebiasSpec(FitKind.QUADRATIC, eta, ref)
    eta2, eta1 = eta
    want = [eta2 * (square(ref) - square(t)) + eta1 * (ref - t) for t in temps]
    assert bits(spec.shift(np.array(temps))) == bits(want)
    assert bits([spec.shift(t) for t in temps]) == bits(want)


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40))
@example([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, -0.0])  # partition put 0.0 in the middle
@example([0.0, -0.0, -0.0, 1.0, -1.0, 2.0])  # and 0.0 beside -0.0 in an even list
def test_median_matches_statistics(values):
    assert bits([_median(values)]) == bits([statistics.median(values)])


# --- the CSV writer and reader ---

def write_ref(trace):
    lines = [
        f"#processor={trace.meta.processor}",
        f"#freq_ghz={trace.meta.freq_ghz!r}",
        f"#cores={trace.meta.cores}",
        "time_s,temp_c,power_w",
    ]
    for t, temp, p in zip(trace.time_s.tolist(), trace.temp_c.tolist(), trace.power_w.tolist()):
        lines.append(f"{t!r},{temp!r},{p!r}")
    return "\n".join(lines) + "\n"


@pytest.fixture(params=[1, 16, 100, SLAB_BYTES], ids=lambda b: f"slab{b}")
def slab(request, monkeypatch):
    """Text is read and written in slabs of at most this many bytes."""
    monkeypatch.setattr("thermopower.trace.SLAB_BYTES", request.param)
    return request.param


def test_write_trace_matches_row_by_row_reference(noisy, slab):
    assert write_trace(noisy) == write_ref(noisy)
    spec = DebiasSpec(FitKind.LINEAR, (0.01,), 50.0)
    text = write_debiased(debias(noisy, spec))
    _, columns, rows, _ = parse_table(text)
    assert columns == ["time_s", "temp_c", "power_w", "power_ref_w"]
    assert bits(rows[:, 0]) == bits(noisy.time_s)
    assert bits(rows[:, 3]) == bits(debias(noisy, spec).ref_power)


def test_write_table_empty_and_single_column(slab):
    assert write_table({}, ("x",), ([],)) == "x\n"
    assert write_table({"k": "v"}, ("x",), ([0.1, -0.0],)) == "#k=v\nx\n0.1\n-0.0\n"


def test_parse_table_matches_float_on_loose_text(slab):
    text = (
        "#k = v \n\n"
        " a , b \n"
        "1.5, -2\n"
        "\n"
        "  +3e2 ,4e1\n"
        "\r\n"
        ".5,5.\r\n"
    )
    meta, columns, rows, header = parse_table(text)
    assert meta == {"k": "v"} and columns == ["a", "b"] and header == 3
    assert rows.shape == (3, 2)
    assert rows.tolist() == [[1.5, -2.0], [300.0, 40.0], [0.5, 5.0]]


def test_parse_table_with_no_rows(slab):
    _, columns, rows, _ = parse_table("a,b\n\n")
    assert columns == ["a", "b"] and rows.shape == (0, 2)


@pytest.mark.parametrize("fault", [None, "2.1x", "nan"])
def test_a_series_reads_the_same_at_every_slab_budget(noisy, slab, fault):
    """A series of many slabs, blank and CRLF lines among its rows, and
    perhaps a bad token in its last slab."""
    lines = write_table({}, ("time_s", "temp_c", "power_w"),
                        (noisy.time_s, noisy.temp_c, noisy.power_w)).split("\n")
    lines[1::997] = [line + "\r\n \t" for line in lines[1::997]]
    if fault is not None:
        lines[-2] = lines[-2].rsplit(",", 1)[0] + "," + fault
    text = "\n".join(lines)
    assert len(text) > 3 * SLAB_BYTES
    if fault is not None:
        with pytest.raises(MalformedRow) as exc:
            parse_table(text)
        assert exc.value.line_no == len(noisy) + len(lines[1::997]) + 1
        assert str(exc.value).endswith(repr(fault))
        return
    meta, columns, rows, header = parse_table(text)
    assert (meta, columns, header, rows.shape) == ({}, ["time_s", "temp_c", "power_w"], 1,
                                                   (len(noisy), 3))
    assert bits(rows) == bits(np.column_stack([noisy.time_s, noisy.temp_c, noisy.power_w]))


@settings(max_examples=200)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
def test_parse_table_is_bit_exact_against_float(values):
    width = 3
    values = (values * width)[: width * math.ceil(len(values) / width)]
    rows = [values[i : i + width] for i in range(0, len(values), width)]
    text = "a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    got = parse_table(text)[2]
    assert bits(got) == bits([float(repr(v)) for v in values])


# --- Trace construction ---

def test_lists_and_arrays_build_equal_traces(noisy):
    lists = (noisy.time_s.tolist(), noisy.temp_c.tolist(), noisy.power_w.tolist())
    assert Trace(META, *lists) == noisy
    assert Trace(META, *(col[:50] for col in lists)) == Trace(
        META, noisy.time_s[:50], noisy.temp_c[:50], noisy.power_w[:50])


def test_columns_are_read_only_copies():
    times = [0.0, 0.2, 0.4]
    tr = Trace(META, times, [30.0, 31.0, 32.0], [1.0, 1.1, 1.2])
    times[0] = 5.0
    assert tr.time_s.tolist() == [0.0, 0.2, 0.4]
    with pytest.raises(ValueError):
        tr.temp_c[0] = 1.0
    with pytest.raises(AttributeError):
        tr.meta = META

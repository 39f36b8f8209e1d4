"""The whole-array layers against per-sample references.

Each reference below is the per-sample loop the array code replaced, kept
here so the two can be compared bit for bit: the array code uses the same
IEEE operations in the same order, math.exp element by element, and a
running sum where the loop had one.
"""

import math
import random
import re
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermopower._numeric import (
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
    erf,
)
from thermopower.debias import DebiasSpec, _median, debias, write_debiased
from thermopower.errors import LengthMismatch, MalformedRow
from thermopower.fitting import (
    FitKind,
    aggregate_error,
    fit_exponential,
    fit_linear,
    fit_quadratic,
)
from thermopower.sensor import SensorModel, b_factor, correct_series
from thermopower.trace import (
    BLOCK_ROWS,
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
    assert out.ref_power.tolist() == want
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


@pytest.mark.parametrize("names, columns", [
    ((), ([1.0],)), (("x",), ()), (("x", "y"), ([1.0], [1.0, 2.0])),
    (("x", "y"), (np.zeros(BLOCK_ROWS), np.zeros(BLOCK_ROWS + 1))),
    (("x",), ([[1.0, 2.0]],)), (("x",), (np.ones((BLOCK_ROWS, 2)),)), (("x",), (1.5,)),
])
def test_write_table_rejects_columns_that_do_not_match(names, columns):
    with pytest.raises(LengthMismatch):
        write_table({}, names, columns)


def test_write_table_of_no_columns_is_its_header():
    assert write_table({"k": "v"}, (), ()) == "#k=v\n\n"


def test_shortest_powers_of_ten_and_products_are_exact():
    from thermopower import _shortest

    assert (_shortest._E_LO, _shortest._E_HI) == (np.float64(1e-4).view(np.uint64) >> 52,
                                                  np.float64(1e16).view(np.uint64) >> 52)
    columns = _shortest._SCALES.T.astype(object).tolist()
    for exponent in range(_shortest._E_LO, _shortest._E_HI + 1):
        q = exponent - 1075
        for closer in (0, 1):
            i = 2 * (exponent - _shortest._E_LO) + closer
            k = (q * _shortest._LOG10_2 - closer * _shortest._LOG10_4_3) >> _shortest._SHIFT
            x = Fraction(2) ** q * (Fraction(3, 4) if closer else 1)
            assert Fraction(10) ** k <= x < Fraction(10) ** (k + 1), (q, closer)
            gh, gl, s, up_high, up_low, down_high, down_low, at = columns[i]
            assert at == 20 + k and 0 <= at <= 20
            g = gh << 32 | gl
            assert 1 << 63 <= g < 1 << 64 and (1 << 53) << s < 1 << 64
            # 4 * v * 10**-k = g * (c << s) / 2**64 for v = c * 2**q
            assert g * Fraction(2) ** (s - 64) == 4 * Fraction(2) ** q * Fraction(10) ** -k
            assert up_high << 64 | up_low == g << s - 1
            assert down_high << 64 | down_low == g << s - 1 - closer
    for j in range(5):  # where the nonzero digits of group j end in the 20 digits
        assert _shortest._END[j].tolist() == [
            0 if v == 0 else 4 * j + len(f"{v:04}".rstrip("0")) for v in range(10000)]
    rng = np.random.default_rng(5)
    cp = rng.integers(0, 1 << 64, 3000, dtype=np.uint64, endpoint=False)
    g = rng.integers(0, 1 << 32, (2, len(cp)), dtype=np.uint64, endpoint=False)
    cp[:3] = 0, 1, (1 << 64) - 1
    g[:, :3] = (1 << 32) - 1
    high, low = _shortest._product(g, cp)
    for h, l, c, got_high, got_low in zip(*g.tolist(), cp.tolist(), high.tolist(), low.tolist()):
        product = (h << 32 | l) * c
        assert (got_high, got_low) == (product >> 64, product % (1 << 64))


def reprs(values) -> list[str]:
    """Each row of a 2-D float array as ",".join(map(repr, row))."""
    return [",".join(map(repr, row)) for row in values.tolist()]


def shortest_digits(text: str) -> int:
    """The significant digits of a repr in fixed notation."""
    return len(text.lstrip("-").replace(".", "").strip("0"))


@pytest.fixture(scope="module")
def doubles():
    """Over 10**6 seeded doubles as three columns, and their rows' reprs.

    Most blocks of BLOCK_ROWS rows hold only values that repr writes in
    fixed notation (±0 or 1e-4 <= |x| < 1e16), the ones the array writer
    takes; the ulps around 1e-4 and 1e16 and the unrestricted bit patterns
    put values in scientific notation into some blocks, which %r writes.
    """
    rng = np.random.default_rng(2022)
    sign = lambda n: np.where(rng.random(n) < 0.5, -1.0, 1.0)
    # random bit patterns with exponents of the fixed range, and without
    fixed = rng.integers(0, 1 << 52, 500_000, dtype=np.uint64) | (
        rng.integers(1023 - 14, 1023 + 54, 500_000).astype(np.uint64) << np.uint64(52))
    anywhere = rng.integers(0, 1 << 64, 50_000, dtype=np.uint64, endpoint=False)
    around = []  # 60 ulps each side of 1e-4 and 1e16
    for edge in (1e-4, 1e16):
        up, down = [edge], [edge]
        for _ in range(60):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], 0.0))
        around += down[::-1] + up[1:]
    decimals = {}  # of 1, 15, 16 and 17 significant digits, in the fixed range
    for n in (1, 15, 16, 17):
        digits = rng.integers(10 ** (n - 1), 10**n, 60_000)
        exponents = rng.integers(-3 - n, 17 - n, 60_000)
        decimals[n] = np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])
    parts = [
        fixed.view(float) * sign(len(fixed)),
        np.round(rng.uniform(-100.0, 100.0, 100_000), 3),  # short decimals
        0.2 * np.arange(60_000),
        np.arange(2**53 - 30_000, 2**53 + 30_000, dtype=np.int64).astype(float),
        np.repeat([0.0, -0.0], 3000),
        *(decimals[n] * sign(len(decimals[n])) for n in (1, 15, 16, 17)),
        np.array(around) * sign(len(around)),
        anywhere.view(float),
    ]
    values = np.concatenate(parts)
    values = values[np.isfinite(values)]
    values = values[: len(values) // 3 * 3].reshape(-1, 3)
    assert values.size >= 10**6
    want = reprs(values)
    counts = {shortest_digits(field) for row in want for field in row.split(",")
              if "e" not in field}
    assert {1, 15, 16, 17} <= counts
    return values, want


@pytest.fixture
def taken(monkeypatch):
    """Whether the array writer took each block written while the test runs."""
    from thermopower import _shortest

    rows_text, taken = _shortest.rows_text, []

    def spy(table):
        text = rows_text(table)
        taken.append(text is not None)
        return text

    monkeypatch.setattr(_shortest, "rows_text", spy)
    return taken


def test_the_writer_is_repr_row_by_row(doubles, taken):
    values, want = doubles
    got = write_table({}, ("a", "b", "c"), values.T).split("\n")
    assert got[0] == "a,b,c" and got[-1] == ""
    got = got[1:-1]
    assert len(got) == len(want)
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, (bad, values[bad].tolist(), got[bad], want[bad])
    assert len(taken) == -(-len(values) // BLOCK_ROWS) and any(taken) and not all(taken)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_the_writer_is_repr_at_every_width_it_writes(doubles, taken, width):
    """A report column (1), a corrected series or a plot (2) and a debiased
    trace (4): seeded values of the fixture that print in fixed notation,
    rows that end in -0.0, 1e-4 or the largest double below 1e16, a block
    with one value in scientific notation and a short last block."""
    values, _ = doubles
    flat = values.ravel()
    size = np.abs(flat)
    rng = np.random.default_rng(width)
    table = rng.choice(flat[(size >= 1e-4) & (size < 1e16) | (size == 0)],
                       (3 * BLOCK_ROWS + 1000, width))
    for i, edge in enumerate([-0.0, 1e-4, np.nextafter(1e16, 0.0)]):
        table[i::7, -1] = edge
    table[BLOCK_ROWS + 5, 0] = 1e-5
    names = [f"c{j}" for j in range(width)]
    got = write_table({}, names, table.T).split("\n")
    want = [",".join(names), *reprs(table), ""]
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, (bad, got[bad], want[bad])
    assert len(got) == len(want) and taken == [True, False, True, True]


def test_reprs_is_repr_or_other_of_each_value(doubles):
    from thermopower import _shortest

    values = np.concatenate([doubles[0][::50].ravel(), [math.nan, -math.inf, 5e-324, -0.0]])
    size = np.abs(values)
    fixed = (size >= 1e-4) & (size < 1e16) | (size == 0)
    assert fixed.any() and not fixed.all()
    assert _shortest.reprs(values, lambda x: "other") == [
        repr(x) if f else "other" for x, f in zip(values.tolist(), fixed.tolist())]
    assert _shortest.reprs(values[~fixed], lambda x: "other") == ["other"] * (~fixed).sum()
    assert _shortest.reprs(np.array([]), repr) == []


@pytest.mark.parametrize("rows", [2000, BLOCK_ROWS - 1, BLOCK_ROWS])
def test_a_table_shorter_than_a_block_is_written_with_r(doubles, taken, slab, rows):
    """Rows that print in fixed notation go through %r, in runs of the slab
    budget, when there are fewer than BLOCK_ROWS of them."""
    values, want = doubles
    size = np.abs(values)
    fixed = np.flatnonzero(((size >= 1e-4) & (size < 1e16) | (size == 0)).all(axis=1))[:rows]
    assert write_table({}, ("a", "b", "c"), values[fixed].T) == "a,b,c\n" + "".join(
        want[i] + "\n" for i in fixed)
    assert taken == ([True] if rows == BLOCK_ROWS else [])


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


# --- the array reader: _shortest.rows_values, bit for bit against float() ---

def read_rows(text: str, width: int):
    """_shortest.rows_values of text, else None, and float() of each of
    its fields when every line holds width of them."""
    from thermopower import _shortest

    got = _shortest.rows_values(text.encode("ascii"), width)
    fields = [line.split(",") for line in text.split("\n")[:-1]]
    assert got is None or (len(got), width) == got.shape and len(fields) == len(got)
    return got, fields


def assert_reads_as_float(text: str, width: int = 1):
    got, fields = read_rows(text, width)
    assert got is not None, text
    want = [[float(field) for field in row] for row in fields]
    assert bits(got) == bits(want), [
        (field, a, b) for field, a, b in zip(sum(fields, []), got.ravel().tolist(),
                                             sum(want, [])) if bits([a]) != bits([b])][:5]


FIELD = r"-?[0-9]+(\.[0-9]+)?"
DIGITS = st.text("0123456789", min_size=1, max_size=23)
FIELDS = st.builds("{}{}{}".format, st.sampled_from(["", "-"]), DIGITS,
                   st.one_of(st.just(""), DIGITS.map(".".__add__)))


def plain(field: str) -> bool:
    """Whether a field of the form FIELD is short enough for the array reader."""
    digits = field.lstrip("-").replace(".", "")
    places = len(field.partition(".")[2])
    return len(digits) <= 24 and len(digits.lstrip("0")) <= 19 and places <= 22


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_array_reader_is_float_or_declines(data):
    """Any string of the CSV alphabet reads as float() reads it, or not at
    all; one of plain fields always reads."""
    if data.draw(st.booleans()):
        text = data.draw(st.text("0123456789.-,\n", max_size=120))
        width = data.draw(st.integers(1, 4))
    else:
        width = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(FIELDS, min_size=width, max_size=width), max_size=8))
        text = "".join(",".join(row) + "\n" for row in rows)
    got, fields = read_rows(text, width)
    if got is None:
        regular = text.endswith("\n") and all(len(row) == width for row in fields)
        assert not (regular and all(re.fullmatch(FIELD, f) and plain(f)
                                    for row in fields for f in row)), text
    else:
        assert bits(got) == bits([[float(field) for field in row] for row in fields]), text


def test_halfway_decimals_round_to_even():
    """Decimals exactly between two doubles, and one unit of their last
    place either side."""
    rng = random.Random(25)
    halfway = ["9007199254740993.0", "9007199254740995", "4503599627370496.5",
               "4503599627370497.5", "2251799813685248.25", "2251799813685248.75"]
    for e in range(44, 64):  # between 2**e and 2**(e + 1), spaced 2**(e - 52)
        places = max(0, 53 - e)
        for _ in range(100):
            mid = Fraction(2) ** e + (2 * rng.randrange(1 << 52) + 1) * Fraction(2) ** (e - 53)
            scaled = mid * 10**places
            assert scaled.denominator == 1
            for n in (scaled.numerator - 1, scaled.numerator, scaled.numerator + 1):
                digits = str(n)
                if len(digits) <= 19:
                    halfway.append(f"{digits[:-places]}.{digits[-places:]}" if places else digits)
    assert len(halfway) > 3000
    assert_reads_as_float("".join(field + "\n" for field in halfway))


def test_the_array_reader_on_signs_zeros_and_long_mantissas():
    fields = ["-0.0", "-0", "0", "00", "000.000", "-000001.5", "007", "0.0000000000000000000001",
              "1234567890123456789", "9999999999999999999", "-9223372036854775808",
              "184467440737095.5161", "0.1234567890123456789", "00000123456789012345678.9",
              "0.00012345678901234567", "12345678901234567.89"]
    assert_reads_as_float("".join(field + "\n" for field in fields))
    got = read_rows("-0.0,-0\n", 2)[0]
    assert np.signbit(got).all()
    for declined in ["99999999999999999999", "1.00000000000000000000000",
                     "0000000000000000000000001", "1e5", ".5", "5.", "+1", "1 ", "--1", "1-",
                     "1.2.3", "", "nan", "1_0", "1\r"]:
        assert read_rows(f"1,{declined}\n", 2)[0] is None, declined
    assert read_rows("1,2\n3\n", 2)[0] is None
    assert read_rows("1,2,3\n", 2)[0] is None
    assert read_rows("1,2", 2)[0] is None  # no line end
    assert read_rows("1,2\n\n", 2)[0] is None


def test_the_array_readers_powers_of_five_are_exact():
    from thermopower import _shortest

    assert _shortest._POW10F.tolist() == [float(10**p) for p in range(_shortest._MAX_PLACES + 1)]
    t3, t2, t1, t0 = (limb.astype(object) for limb in _shortest._T5)
    for p, (a, b, c, d, scale) in enumerate(zip(t3, t2, t1, t0, _shortest._SCALE.tolist())):
        t = a << 96 | b << 64 | c << 32 | d
        s = (5**p - 1).bit_length()
        assert Fraction(2) ** (s - 1) < 5**p <= Fraction(2) ** s
        assert Fraction(scale) == Fraction(2) ** (1 - s - p)
        assert 2**127 <= t < 2**128
        assert 0 <= t - Fraction(2) ** (127 + s) / 5**p < 1  # rounded up
    assert 5**_shortest._MAX_PLACES < 2**64  # so a product's middle word says if it is exact
    rng = np.random.default_rng(25)
    m = rng.integers(1 << 53, 10**19, 20000, dtype=np.uint64)
    places = rng.integers(0, _shortest._MAX_PLACES + 1, len(m))
    got = _shortest._quotients(m, places)
    assert bits(got) == bits([float(Fraction(int(a), 10**int(p)))
                              for a, p in zip(m.tolist(), places.tolist())])


@pytest.fixture
def read(monkeypatch):
    """Whether the array reader took each batch read while the test runs."""
    from thermopower import _shortest

    rows_values, read = _shortest.rows_values, []

    def spy(data, width):
        values = rows_values(data, width)
        read.append(values is not None)
        return values

    monkeypatch.setattr(_shortest, "rows_values", spy)
    return read


def test_the_reader_reads_the_writers_doubles(doubles, read):
    values, _ = doubles
    text = write_table({}, ("a", "b", "c"), values.T)
    assert bits(parse_table(text)[2]) == bits(values)
    assert any(read) and not all(read)  # scientific notation goes through float()


def test_a_long_table_reads_as_float_with_a_loose_row_in_some_slabs(read):
    """Rows the array reader declines read through float() in their own
    batches, and the other batches through the array reader."""
    rng = np.random.default_rng(7)
    values = rng.uniform(-1e4, 1e4, (120_000, 3))
    lines = ["a,b,c", *reprs(values)]
    step = len(lines) // 6
    loose = {step: "3e2,1.0,2.0", 2 * step: ".5,1.0,2.0", 3 * step: "+1.0,1.0,2.0",
             4 * step: "1.0,2.0,3.0\r", 5 * step: ""}
    for i, line in loose.items():
        lines.insert(i, line)
    text = "\n".join(lines) + "\n"
    want = [[float(field) for field in line.split(",")] for line in lines[1:] if line]
    got = parse_table(text)[2]
    assert got.shape == (len(values) + 4, 3)
    assert bits(got) == bits(want)
    assert read.count(False) == len(loose) and read.count(True) > 90


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

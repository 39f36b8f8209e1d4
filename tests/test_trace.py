"""Trace types, CSV round-trip, and the synthetic generator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower.errors import (
    EmptyTrace,
    InvalidParams,
    InvalidSample,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
)
from thermopower.trace import (
    Trace,
    TraceMeta,
    TraceSample,
    generate_synthetic_trace,
    parse_trace,
    write_trace,
)

META = TraceMeta("A15", 1.2, 4)


def make_trace(powers, temps=None):
    temps = temps if temps is not None else [40.0 + i for i in range(len(powers))]
    samples = tuple(
        TraceSample(0.2 * i, t, p) for i, (t, p) in enumerate(zip(temps, powers))
    )
    return Trace(META, samples)


# --- construction invariants ---

def test_sample_rejects_nonfinite():
    with pytest.raises(InvalidSample):
        TraceSample(0.0, float("nan"), 1.0)
    with pytest.raises(InvalidSample):
        TraceSample(0.0, 25.0, float("inf"))
    with pytest.raises(InvalidSample):
        TraceSample(float("inf"), 25.0, 1.0)


def test_sample_rejects_negative_time_and_nonpositive_power():
    with pytest.raises(InvalidSample):
        TraceSample(-0.1, 25.0, 1.0)
    with pytest.raises(InvalidSample):
        TraceSample(0.0, 25.0, 0.0)
    with pytest.raises(InvalidSample):
        TraceSample(0.0, 25.0, -2.0)


def test_meta_validation():
    with pytest.raises(InvalidParams):
        TraceMeta("x", 0.0, 2)
    with pytest.raises(InvalidParams):
        TraceMeta("x", -1.2, 2)
    with pytest.raises(InvalidParams):
        TraceMeta("x", 1.2, 0)
    with pytest.raises(InvalidParams):
        TraceMeta("x", 1.2, 5)


def test_trace_needs_three_samples():
    samples = (TraceSample(0.0, 25.0, 1.0), TraceSample(0.2, 26.0, 1.1))
    with pytest.raises(EmptyTrace):
        Trace(META, samples)


def test_trace_time_strictly_increasing():
    samples = (
        TraceSample(0.0, 25.0, 1.0),
        TraceSample(0.2, 26.0, 1.1),
        TraceSample(0.2, 27.0, 1.2),
    )
    with pytest.raises(NonMonotonicTime):
        Trace(META, samples)
    reversed_samples = (
        TraceSample(0.4, 25.0, 1.0),
        TraceSample(0.2, 26.0, 1.1),
        TraceSample(0.6, 27.0, 1.2),
    )
    with pytest.raises(NonMonotonicTime):
        Trace(META, reversed_samples)


# --- parsing ---

GOOD = (
    "#processor=A15\n"
    "#freq_ghz=1.2\n"
    "#cores=4\n"
    "time_s,temp_c,power_w\n"
    "0.0,25.5,2.1\n"
    "0.2,26.0,2.2\n"
    "0.4,26.5,2.3\n"
)


def test_parse_good_text():
    tr = parse_trace(GOOD)
    assert tr.meta == TraceMeta("A15", 1.2, 4)
    assert tr.temps() == [25.5, 26.0, 26.5]
    assert tr.powers() == [2.1, 2.2, 2.3]
    assert tr.times() == [0.0, 0.2, 0.4]


def test_parse_accepts_bytes():
    assert parse_trace(GOOD.encode("utf-8")) == parse_trace(GOOD)


def test_parse_default_processor():
    text = GOOD.replace("#processor=A15\n", "")
    assert parse_trace(text).meta.processor == "unknown"


def test_parse_missing_meta():
    with pytest.raises(MissingMeta):
        parse_trace(GOOD.replace("#freq_ghz=1.2\n", ""))
    with pytest.raises(MissingMeta):
        parse_trace(GOOD.replace("#cores=4\n", ""))
    with pytest.raises(MissingMeta):
        parse_trace(GOOD.replace("#cores=4", "#cores=four"))


def test_parse_wrong_column_count():
    with pytest.raises(MalformedRow) as exc:
        parse_trace(GOOD + "0.6,27.0\n")
    assert exc.value.line_no == 8


def test_parse_bad_number():
    with pytest.raises(MalformedRow) as exc:
        parse_trace(GOOD.replace("0.2,26.0,2.2", "0.2,abc,2.2"))
    assert exc.value.line_no == 6


def test_parse_rejects_nonfinite_tokens():
    with pytest.raises(MalformedRow):
        parse_trace(GOOD.replace("26.0", "nan"))
    with pytest.raises(MalformedRow):
        parse_trace(GOOD.replace("26.0", "inf"))


def test_parse_rejects_comment_after_header():
    with pytest.raises(MalformedRow):
        parse_trace(GOOD + "#late=1\n")


def test_parse_rejects_bad_comment():
    with pytest.raises(MalformedRow):
        parse_trace("#oops\n" + GOOD)


def test_parse_wrong_header():
    with pytest.raises(MalformedRow):
        parse_trace(GOOD.replace("time_s,temp_c,power_w", "t,T,P"))


def test_parse_empty_and_tiny():
    with pytest.raises(EmptyTrace):
        parse_trace("")
    with pytest.raises(EmptyTrace):
        parse_trace("#freq_ghz=1.0\n#cores=1\ntime_s,temp_c,power_w\n0.0,25.0,1.0\n")


# --- serialization ---

def test_write_exact_text():
    tr = make_trace([2.1, 2.2, 2.3], temps=[25.5, 26.0, 26.5])
    assert write_trace(tr) == GOOD


def test_round_trip_awkward_floats():
    tr = make_trace(
        [0.30000000000000004, 1 / 3, 9.313225746154785e-10],
        temps=[-12.75, 0.1 + 0.2, 1e3],
    )
    assert parse_trace(write_trace(tr)) == tr


@settings(max_examples=200)
@given(
    deltas=st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False), min_size=3, max_size=20
    ),
    data=st.data(),
)
def test_round_trip_property(deltas, data):
    n = len(deltas)
    temps = data.draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    powers = data.draw(
        st.lists(
            st.floats(min_value=1e-12, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    t, times = 0.0, []
    for d in deltas:
        times.append(t)
        t += d
    samples = tuple(TraceSample(*row) for row in zip(times, temps, powers))
    tr = Trace(META, samples)
    assert parse_trace(write_trace(tr)) == tr


# --- synthetic generator ---

def test_generator_noiseless_matches_curve():
    tr = generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 3))
    assert tr.temps() == [50.0, 65.0, 80.0]
    assert tr.times() == [0.0, 0.2, 0.4]
    expected = [0.2667240229884704, 0.2763479808144487, 0.2915101135341151]
    for got, want in zip(tr.powers(), expected):
        assert math.isclose(got, want, rel_tol=1e-12)


def test_generator_deterministic():
    kw = dict(noise=0.05, quantum=0.001, seed=7)
    a = generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 40), **kw)
    b = generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 40), **kw)
    assert a == b
    c = generate_synthetic_trace(
        META, (0.25, 185.0, 33.0), (50.0, 80.0, 40), noise=0.05, quantum=0.001, seed=8
    )
    assert a != c


def test_generator_quantum_rounds_to_grid():
    tr = generate_synthetic_trace(
        META, (0.25, 185.0, 33.0), (50.0, 80.0, 25), noise=0.01, quantum=0.125, seed=3
    )
    for p in tr.powers():
        assert p == round(p / 0.125) * 0.125
        assert float(p / 0.125).is_integer()


def test_generator_param_validation():
    with pytest.raises(InvalidParams):
        generate_synthetic_trace(META, (0.25, 185.0, 0.0), (50.0, 80.0, 5))
    with pytest.raises(InvalidParams):
        generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 2))
    with pytest.raises(InvalidParams):
        generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 5), noise=-0.1)
    with pytest.raises(InvalidParams):
        generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 5), quantum=-1.0)


# --- row errors in a long file name their line ---

LONG_ROWS = 100_000
FIRST_ROW_LINE = 5  # three metadata lines and the header come first


@pytest.fixture(scope="module")
def long_lines():
    tr = generate_synthetic_trace(META, (0.25, 185.0, 33.0), (30.0, 80.0, LONG_ROWS),
                                  noise=0.002, seed=1)
    return write_trace(tr).split("\n")


def _with_row(lines, row, text, blank_before=False):
    """The file with data row ``row`` replaced, optionally after a blank line."""
    i = FIRST_ROW_LINE - 1 + row
    return "\n".join(lines[:i] + ([""] if blank_before else []) + [text] + lines[i + 1:])


def test_long_file_bad_token_on_last_line(long_lines):
    text = _with_row(long_lines, LONG_ROWS - 1, "19999.8,80.0,2.1x")
    with pytest.raises(MalformedRow) as exc:
        parse_trace(text)
    assert exc.value.line_no == FIRST_ROW_LINE + LONG_ROWS - 1
    assert "not a number: '2.1x'" in str(exc.value)


def test_long_file_nan_in_the_middle(long_lines):
    row = LONG_ROWS // 2
    t, _, p = long_lines[FIRST_ROW_LINE - 1 + row].split(",")
    with pytest.raises(MalformedRow) as exc:
        parse_trace(_with_row(long_lines, row, f"{t},nan,{p}"))
    assert exc.value.line_no == FIRST_ROW_LINE + row
    assert "not a finite decimal" in str(exc.value)


def test_long_file_short_row(long_lines):
    row = 31_415
    with pytest.raises(MalformedRow) as exc:
        parse_trace(_with_row(long_lines, row, "6283.0,41.0"))
    assert exc.value.line_no == FIRST_ROW_LINE + row
    assert "expected 3 columns, got 2" in str(exc.value)


def test_long_file_repeated_time(long_lines):
    row = 77_777
    prev_time = long_lines[FIRST_ROW_LINE - 2 + row].split(",")[0]
    _, temp, p = long_lines[FIRST_ROW_LINE - 1 + row].split(",")
    with pytest.raises(NonMonotonicTime) as exc:
        parse_trace(_with_row(long_lines, row, f"{prev_time},{temp},{p}"))
    assert exc.value.line_no == FIRST_ROW_LINE + row
    assert str(exc.value).startswith(f"line {FIRST_ROW_LINE + row}: time must strictly increase")


def test_long_file_blank_line_before_bad_row(long_lines):
    row = 60_000
    t, temp, _ = long_lines[FIRST_ROW_LINE - 1 + row].split(",")
    text = _with_row(long_lines, row, f"{t},{temp},-1.0", blank_before=True)
    with pytest.raises(InvalidSample) as exc:
        parse_trace(text)
    assert exc.value.line_no == FIRST_ROW_LINE + row + 1
    assert str(exc.value) == (
        f"line {FIRST_ROW_LINE + row + 1}: power_w must be positive, got -1.0")


def test_sample_errors_from_code_carry_no_line():
    with pytest.raises(InvalidSample) as exc:
        Trace.from_columns(META, [0.0, 0.2, 0.4], [30.0, 31.0, 32.0], [1.0, 0.0, 1.0])
    assert exc.value.line_no is None
    assert str(exc.value) == "power_w must be positive, got 0.0"

"""Trace types, CSV round-trip, and the synthetic generator."""

import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower.errors import (
    EmptyTrace,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
)
from thermopower import trace
from thermopower.fitting import FitKind, FitResult, fit_batch
from thermopower.trace import (
    Trace,
    TraceMeta,
    generate_synthetic_trace,
    parse_table,
    parse_trace,
    parse_traces,
    write_trace,
)

META = TraceMeta("A15", 1.2, 4)


def make_trace(powers, temps=None):
    temps = temps if temps is not None else [40.0 + i for i in range(len(powers))]
    return Trace(META, [0.2 * i for i in range(len(powers))], temps, powers)


# --- construction invariants ---

BAD_ROWS = {
    "nan temp": ((0.2, math.nan, 1.1), "temp_c must be finite, got nan"),
    "inf power": ((0.2, 31.0, math.inf), "power_w must be finite, got inf"),
    "inf time": ((math.inf, 31.0, 1.1), "time_s must be finite, got inf"),
    "negative time": ((-0.1, 31.0, 1.1), "time_s must be non-negative, got -0.1"),
    "zero power": ((0.2, 31.0, 0.0), "power_w must be positive, got 0.0"),
    "negative power": ((0.2, 31.0, -2.0), "power_w must be positive, got -2.0"),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_bad_sample_is_rejected(case):
    (time, temp, power), message = BAD_ROWS[case]
    temps, powers = [30.0, temp, 32.0], [1.0, power, 1.2]
    with pytest.raises(InvalidSample) as exc:
        Trace(META, [0.0, time, 0.4], temps, powers)
    assert str(exc.value) == message
    (got,) = fit_batch([(temps, powers)], FitKind.LINEAR)
    if message.startswith("time_s"):  # a pair has no times to be bad
        assert isinstance(got, FitResult)
    else:
        assert isinstance(got, InvalidSample) and str(got) == message


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
    with pytest.raises(EmptyTrace):
        Trace(META, [0.0, 0.2], [25.0, 26.0], [1.0, 1.1])


def test_trace_columns_are_1d_of_one_length():
    with pytest.raises(LengthMismatch, match=r"^column lengths differ: \[3, 4\]$"):
        Trace(META, [0.0, 0.2, 0.4], [25.0, 26.0, 27.0, 28.0], [1.0, 1.1, 1.2])
    with pytest.raises(LengthMismatch, match=r"^a column must be 1-D, got shape \(3, 1\)$"):
        Trace(META, [[0.0], [0.2], [0.4]], [25.0, 26.0, 27.0], [1.0, 1.1, 1.2])


def test_trace_time_strictly_increasing():
    temps, powers = [25.0, 26.0, 27.0], [1.0, 1.1, 1.2]
    with pytest.raises(NonMonotonicTime):
        Trace(META, [0.0, 0.2, 0.2], temps, powers)
    with pytest.raises(NonMonotonicTime):
        Trace(META, [0.4, 0.2, 0.6], temps, powers)


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
    assert tr.temp_c.tolist() == [25.5, 26.0, 26.5]
    assert tr.power_w.tolist() == [2.1, 2.2, 2.3]
    assert tr.time_s.tolist() == [0.0, 0.2, 0.4]


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


def test_parse_short_file_names_the_line_of_a_bad_sample():
    text = "#freq_ghz=1.0\n#cores=1\ntime_s,temp_c,power_w\n0.0,25.0,1.0\n0.2,26.0,-1.0\n"
    with pytest.raises(InvalidSample, match="^line 5: power_w must be positive"):
        parse_trace(text)


def test_parse_empty_and_tiny():
    with pytest.raises(EmptyTrace):
        parse_trace("")
    with pytest.raises(EmptyTrace):
        parse_trace("#freq_ghz=1.0\n#cores=1\ntime_s,temp_c,power_w\n0.0,25.0,1.0\n")


# A trace file holds ASCII decimals.  float() and int() also take "1_3"
# and digits of other scripts; the reader does not.
NOT_ASCII_DECIMALS = {
    "underscore": (("0.4,26.5,2.3", "0.4,26.5,1_3"), MalformedRow,
                   "line 7: not a number: '1_3'"),
    "arabic-indic digit": (("0.4,26.5,2.3", "0.4,26.5,١.3"), MalformedRow,
                           "line 7: not a number: '١.3'"),
    "fullwidth digit": (("0.2,26.0", "０.2,26.0"), MalformedRow,
                        "line 6: not a number: '０.2'"),
    "cores": (("#cores=4", "#cores=٣"), MissingMeta, "bad #cores value: '٣'"),
    "freq": (("#freq_ghz=1.2", "#freq_ghz=1_2"), MissingMeta, "bad #freq_ghz value: '1_2'"),
}


@pytest.mark.parametrize("case", NOT_ASCII_DECIMALS)
def test_parse_accepts_only_ascii_decimals(case):
    (old, new), error, message = NOT_ASCII_DECIMALS[case]
    text = GOOD.replace(old, new)
    for parse in (parse_trace, lambda t: parse_traces([t])[0]):
        with pytest.raises(error) as exc:
            parse(text)
        assert str(exc.value) == message


def test_parse_still_strips_any_whitespace_around_a_number():
    text = GOOD.replace("0.2,26.0,2.2", "0.2,\u00a026.0\u2003,2.2")  # no-break, em space
    assert parse_trace(text) == parse_traces([text])[0] == parse_trace(GOOD)


def test_parse_table_accepts_only_ascii_decimals():
    with pytest.raises(MalformedRow) as exc:
        parse_table("time_s,temp_c\n0.2,4_0\n")
    assert str(exc.value) == "line 2: not a number: '4_0'"


def test_parse_drops_one_leading_byte_order_mark():
    bom = b"\xef\xbb\xbf"
    assert parse_trace(bom + GOOD.encode()) == parse_trace(GOOD)
    assert parse_traces([bom + GOOD.encode(), GOOD]) == [parse_trace(GOOD)] * 2
    with pytest.raises(MalformedRow) as exc:  # a second one is no comment line
        parse_trace(bom + bom + GOOD.encode())
    assert str(exc.value).startswith("line 2: ")


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
    tr = Trace(META, times, temps, powers)
    assert parse_trace(write_trace(tr)) == tr


# --- synthetic generator ---

def test_generator_noiseless_matches_curve():
    tr = generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 3))
    assert tr.temp_c.tolist() == [50.0, 65.0, 80.0]
    assert tr.time_s.tolist() == [0.0, 0.2, 0.4]
    expected = [0.2667240229884704, 0.2763479808144487, 0.2915101135341151]
    for got, want in zip(tr.power_w.tolist(), expected):
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
    for p in tr.power_w.tolist():
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


@pytest.mark.parametrize("seed", [-1, 1.0, True, "3", None])
@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_generator_takes_only_an_int_seed_of_at_least_zero(seed, noise):
    with pytest.raises(InvalidParams, match=f"^seed must be an int >= 0, got {seed!r}$"):
        generate_synthetic_trace(META, (0.25, 185.0, 33.0), (50.0, 80.0, 5), noise, seed=seed)


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
        Trace(META, [0.0, 0.2, 0.4], [30.0, 31.0, 32.0], [1.0, 0.0, 1.0])
    assert exc.value.line_no is None
    assert str(exc.value) == "power_w must be positive, got 0.0"


# --- parse_traces: many texts, split and checked at once ---

@pytest.fixture(scope="module")
def fleet_texts():
    metas = [TraceMeta(p, f, c) for p in ("A7", "A15") for f in (0.6, 1.2) for c in (1, 4)]
    return [write_trace(generate_synthetic_trace(metas[i % 8], (0.25, 185.0, 33.0),
                                                 (30.0, 80.0, 5 + i % 17), noise=0.002,
                                                 seed=i))
            for i in range(60)]


def test_joined_traces_are_their_per_file_twins_in_read_only_contiguous_columns(fleet_texts):
    joined = parse_traces(fleet_texts)
    assert joined == [parse_trace(t) for t in fleet_texts]
    table = joined[0].time_s.base
    for trace in joined:
        for col in (trace.time_s, trace.temp_c, trace.power_w):
            assert col.base is table  # one (3, rows) array, not a copy per trace
            assert col.flags.c_contiguous and not col.flags.writeable
            with pytest.raises(ValueError):
                col.flags.writeable = True
    assert table.shape == (3, sum(map(len, joined))) and table.flags.c_contiguous
    assert parse_traces([]) == []


@pytest.mark.parametrize("space", ["", "\u00a0"], ids=["joined", "line by line"])
def test_parse_trace_columns_are_read_only_rows_of_one_table(space):
    # only the line-by-line reader takes a no-break space around a number
    trace = parse_trace(GOOD.replace("26.0", f"{space}26.0{space}"))
    table = trace.time_s.base
    assert table.shape == (3, 3) and table.flags.c_contiguous and not table.flags.writeable
    columns = (trace.time_s, trace.temp_c, trace.power_w)
    assert [col.base is table and not col.flags.writeable for col in columns] == [True] * 3
    assert table.tobytes() == b"".join(col.tobytes() for col in columns)


# edits that break a trace text, or keep it valid in another form (blank
# lines, "\r\n")
EDITS = [
    ("0.2,", "0.2_,"), ("0.2,", "٠.2,"), (",", ",x"), (",", ",,"), (",", ",nan"),
    (",", ",-"), ("\n", "\n\n"), ("\n", "\r\n"), ("\n", "\n#c=1\n"), ("\n", "\nfoo\n"),
    ("0.4,", "0.0,"), ("0.2,", "0.0,"), ("#cores=", "#cores=9"), ("#cores=", "#cores=x"),
    ("#freq_ghz", "#f"), ("time_s", "time"), ("\n", ""), ("1", ""),
]


@st.composite
def broken(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 2))):
        old, new = draw(st.sampled_from(EDITS))
        cut = [i for i in range(len(text)) if text.startswith(old, i)]
        if cut:
            i = draw(st.sampled_from(cut))
            text = text[:i] + new + text[i + len(old):]
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    data = text.encode()
    kind = draw(st.sampled_from(["str", "str", "bytes", "bytes", "bom", "bad utf-8"]))
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "bad utf-8":
        return data[:9] + b"\xff" + data[9:]
    return data if kind == "bytes" else text


def outcome(parse):
    try:
        return parse()
    except Exception as exc:  # the type, message and line, whatever they are
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_traces_is_each_text_parsed_alone(fleet_texts, data):
    texts = data.draw(st.lists(st.sampled_from(fleet_texts) | broken(fleet_texts[:8]),
                               max_size=6))
    alone = outcome(lambda: [parse_trace(t) for t in texts])
    assert outcome(lambda: parse_traces(texts)) == alone
    assert outcome(lambda: parse_traces(iter(texts))) == alone  # an iterator reads once


# --- each distinct header text is parsed once ---

def test_each_distinct_header_text_is_parsed_once(monkeypatch):
    heads = [f"#processor=SPY\n#freq_ghz=1.2\n#cores={c}\ntime_s,temp_c,power_w\n"
             for c in (1, 2, 3)]
    texts = [heads[i % 3] + f"0.0,30.0,1.0\n0.2,40.0,{1.1 + i / 1000!r}\n0.4,50.0,1.5\n"
             for i in range(200)]
    calls = []
    real = trace._header
    monkeypatch.setattr(trace, "_header", lambda text: calls.append(text) or real(text))
    trace._head_meta.cache_clear()  # earlier tests may have read these headers
    parsed = parse_traces(texts[:100]) + parse_traces(texts[100:])
    assert sorted(calls) == heads
    assert [t.meta for t in parsed] == [TraceMeta("SPY", 1.2, i % 3 + 1) for i in range(200)]
    assert parsed[0].meta is parsed[198].meta  # one TraceMeta per header text
    assert [t.power_w[1] for t in parsed] == [1.1 + i / 1000 for i in range(200)]


# edits to the top of a text that the header pattern must not mistake
HEAD_EDITS = EDITS + [
    ("#", " #"), ("#", "\u00a0#"), ("#", "\n#"), ("\n#", "\n \n#"), ("\ntime", "\n\t\ntime"),
    ("time_s", " time_s"), ("time_s", "\u3000time_s"), ("time_s", "\x1ftime_s"),
    ("time_s", "#time_s"), ("\n", " "), ("\n", "\x85"), ("=", ""), ("#cores", "#"),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_header_text_reads_as_the_whole_text_does(fleet_texts, data):
    text = fleet_texts[data.draw(st.integers(0, 7))]
    for _ in range(data.draw(st.integers(0, 3))):
        old, new = data.draw(st.sampled_from(HEAD_EDITS))
        i = text.find(old, data.draw(st.integers(0, 60)))
        if i >= 0:
            text = text[:i] + new + text[i + len(old):]
    head = trace._HEAD.match(text, 0, trace._HEAD_CHARS)
    if head:
        assert outcome(lambda: trace._meta_of(head[0])) == outcome(lambda: trace._meta_of(text))
    whole = outcome(lambda: parse_trace(text))
    trace._head_meta.cache_clear()
    assert outcome(lambda: parse_trace(text)) == whole  # as when its header was new


# --- text is read a slab at a time; where the slabs end changes nothing ---

SLAB_BUDGETS = [1, 16, 100, trace.SLAB_BYTES]


def at_each_budget(parse):
    """outcome(parse) with trace.SLAB_BYTES at each of SLAB_BUDGETS."""
    seen = []
    for budget in SLAB_BUDGETS:
        with mock.patch.object(trace, "SLAB_BYTES", budget):
            seen.append(outcome(parse))
    return seen


def table_of(parsed):
    meta, columns, rows, header_line = parsed
    return meta, columns, rows.shape, rows.tobytes(), header_line


FILLERS = ["", " ", "\t", "\r", " \r\t"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blank_lines_and_line_ends_at_slab_edges_change_nothing(data):
    n = data.draw(st.integers(3, 12))
    rows = [f"{0.2 * i!r},{25.0 + i / 3!r},{1.0 + i / 7!r}" for i in range(n)]
    if data.draw(st.booleans()):
        bad = data.draw(st.integers(0, n - 1))
        rows[bad] += data.draw(st.sampled_from(["x", ",1.0", "_0"]))
    lines = []
    for row in rows:  # fillers before each row; leading spaces move the slab edges
        lines += data.draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lines.append(" " * data.draw(st.integers(0, 17)) + row)
    lines += data.draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
    body = "".join(map(str.__add__, lines, ends))
    if data.draw(st.booleans()):
        body = body.rstrip("\n")  # a last line with no line end
    text = GOOD[: GOOD.index("0.0,")] + body
    traces = at_each_budget(lambda: parse_trace(text))
    assert traces == [outcome(lambda: trace._parse_alone(text))] * len(SLAB_BUDGETS)
    tables = at_each_budget(lambda: table_of(parse_table(text)))
    assert tables == [tables[-1]] * len(SLAB_BUDGETS)


def long_text(count: int, seed: int = 1) -> str:
    return write_trace(generate_synthetic_trace(META, (0.25, 185.0, 33.0), (30.0, 80.0, count),
                                                noise=0.002, seed=seed))


@pytest.mark.parametrize(("fault", "error", "reason"), [
    ("2.1x", MalformedRow, "not a number: '2.1x'"),
    ("inf", MalformedRow, "not a finite decimal: 'inf'"),
    ("-1.0", InvalidSample, "power_w must be positive, got -1.0"),
])
def test_a_bad_value_in_the_last_slab_names_its_line(fault, error, reason):
    lines = long_text(3000).split("\n")
    lines[-2] = lines[-2].rsplit(",", 1)[0] + "," + fault
    text = "\n".join(lines)
    assert len(text) > 2 * trace.SLAB_BYTES
    line = len(lines) - 1  # the last row's; the text ends with a line end
    assert at_each_budget(lambda: parse_trace(text)) == [
        (error, f"line {line}: {reason}", line)] * len(SLAB_BUDGETS)


def test_a_batch_of_small_texts_and_one_larger_than_a_slab(fleet_texts):
    big = long_text(3000)
    assert max(map(len, fleet_texts)) < trace.SLAB_BYTES < len(big)
    texts = [*fleet_texts[:20], big, *fleet_texts[20:40]]
    bad_big = big[: big.rindex(",")] + ",2.1x\n"
    bad_after = fleet_texts[20].replace("\n0.", "\n0.x", 1)
    for batch in (texts, [*texts[:20], bad_big, *texts[21:]], [*texts[:21], bad_after]):
        alone = outcome(lambda: [parse_trace(t) for t in batch])
        for got in at_each_budget(lambda: parse_traces(batch)):
            assert got == alone
            if isinstance(got, list):  # one table under every trace
                table = got[0].time_s.base
                assert table.shape == (3, sum(map(len, got))) and table.flags.c_contiguous
                assert all(t.power_w.base is table for t in got)


# --- transient memory: the text and its columns, plus one slab ---

@pytest.fixture(scope="module")
def text_100k():
    return long_text(100_000).encode()


def traced_peak(fn) -> int:
    """The most memory fn() allocated at once, by tracemalloc's count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("parse", [parse_trace, parse_table])
def test_parsing_a_long_text_holds_less_than_three_times_its_size(text_100k, parse):
    # the text decoded (1x) and its 3 columns (0.5x), with no token per number
    assert traced_peak(lambda: parse(text_100k)) <= 3 * len(text_100k)

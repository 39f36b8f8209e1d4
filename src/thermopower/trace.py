"""Trace data types, the on-disk CSV format, and a synthetic trace generator.

A trace file is UTF-8 text with LF line endings::

    #processor=A15
    #freq_ghz=1.2
    #cores=4
    time_s,temp_c,power_w
    0.0,25.4,2.113
    ...

``#key=value`` comment lines are only allowed before the column header.
Numbers use ``.`` as the decimal separator and are written in the shortest
decimal form that parses back to the identical float, so write/parse is a
bit-exact round trip.  Every CSV the package writes goes through
write_table; it reads traces through parse_traces and other tables
through parse_table, both one slab of at most SLAB_BYTES at a time.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import math
import re
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyTrace,
    InvalidCores,
    InvalidFreq,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
    ThermoError,
)

HEADER = "time_s,temp_c,power_w"
_COLUMNS = tuple(HEADER.split(","))
SLAB_BYTES = 1 << 16  # CSV text converted at once, read or written


def check_samples(time_s, temp_c, power_w, line_of=None) -> None:
    """Raise InvalidSample for the first bad row: a non-finite field, in
    column order, then a negative time, then a non-positive power;
    line_of(i) names row i's file line."""
    bad = ~np.isfinite(time_s) | ~np.isfinite(temp_c) | ~np.isfinite(power_w)
    bad |= (time_s < 0) | ~(power_w > 0)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    row = (float(time_s[i]), float(temp_c[i]), float(power_w[i]))
    nonfinite = [(name, v) for name, v in zip(_COLUMNS, row) if not math.isfinite(v)]
    if nonfinite:
        message = "%s must be finite, got %r" % nonfinite[0]
    elif row[0] < 0:
        message = f"time_s must be non-negative, got {row[0]!r}"
    else:
        message = f"power_w must be positive, got {row[2]!r}"
    raise InvalidSample(message, line_of(i) if line_of else None)


def _traces(metas, table, ends, line_of=None) -> list[Trace]:
    """The Traces of metas over the rows of a C-contiguous (3, rows) table
    that the row offsets ends cut, once it passes every Trace's checks:
    check_samples, then at least 3 samples each, then strictly increasing
    times.  Their columns are read-only slices of the table; line_of(i)
    names row i's file line."""
    table.flags.writeable = False  # before any view of it is taken
    time_s, temp_c, power_w = table
    check_samples(time_s, temp_c, power_w, line_of)
    shortest = int(np.diff(ends).min())
    if shortest < 3:
        raise EmptyTrace(f"a trace needs at least 3 samples, got {shortest}")
    steps = np.diff(time_s) <= 0
    steps[np.array(ends[1:-1], int) - 1] = False  # a trace's first time follows none
    if steps.any():
        i = int(np.argmax(steps)) + 1
        raise NonMonotonicTime(
            f"time must strictly increase ({float(time_s[i - 1])!r} then "
            f"{float(time_s[i])!r})",
            line_of(i) if line_of else None,
        )
    traces = []
    for meta, a, b in zip(metas, ends, ends[1:]):
        trace = Trace.__new__(Trace)
        trace._store(meta, time_s[a:b], temp_c[a:b], power_w[a:b])
        traces.append(trace)
    return traces


@dataclass(frozen=True)
class TraceMeta:
    processor: str
    freq_ghz: float
    cores: int

    def __post_init__(self):
        _check_operating_point(self.freq_ghz, self.cores)


def _check_operating_point(freq: float, cores: int) -> None:
    # bool is an int subclass, but True is not a frequency or a core count
    if isinstance(freq, bool) or not (
        isinstance(freq, (int, float)) and math.isfinite(freq) and freq > 0
    ):
        raise InvalidFreq(f"freq must be a positive number of GHz, got {freq!r}")
    if isinstance(cores, bool) or not isinstance(cores, int) or not 1 <= cores <= 4:
        raise InvalidCores(f"cores must be an integer in 1..4, got {cores!r}")


def _json_number(obj: dict, key: str, what: str) -> float:
    """obj[key] as a float when it is a JSON number a double can hold: an int
    or a float, not a bool, no larger than the largest double.  Anything else,
    a missing key included, raises InvalidParams "<what> must be numbers ..."."""
    value = obj.get(key)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:  # false for nan, exact for any int
        return float(value)
    shown = reprlib.repr(value) if key in obj else "missing"
    raise InvalidParams(f"{what} must be numbers a double can hold, got {key} {shown}")


class Trace:
    """A validated trace: metadata plus three read-only float64 columns.

    ``time_s``, ``temp_c`` and ``power_w`` are 1-D arrays of one length,
    at least 3.  Every value is finite, times are non-negative and strictly
    increasing, and powers are positive.  ``Trace(meta, time_s, temp_c,
    power_w)`` copies three sequences of one length and validates them; use
    ``trace.time_s.tolist()`` for a plain list.  Two traces are equal when
    their metadata are and their columns match bit for bit.
    """

    __slots__ = ("meta", "time_s", "temp_c", "power_w")

    def __init__(self, meta: TraceMeta, time_s, temp_c, power_w):
        lengths = {len(time_s), len(temp_c), len(power_w)}
        if len(lengths) != 1:
            raise LengthMismatch(f"column lengths differ: {sorted(lengths)}")
        columns = [np.asarray(values, float) for values in (time_s, temp_c, power_w)]
        for col in columns:
            if col.ndim != 1:
                raise LengthMismatch(f"a column must be 1-D, got shape {col.shape}")
        (trace,) = _traces([meta], np.stack(columns), [0, len(time_s)])
        self._store(meta, trace.time_s, trace.temp_c, trace.power_w)

    def _store(self, meta: TraceMeta, time_s, temp_c, power_w) -> None:
        """Keep meta and three checked, read-only columns as they are."""
        store = object.__setattr__
        store(self, "meta", meta)
        store(self, "time_s", time_s)
        store(self, "temp_c", temp_c)
        store(self, "power_w", power_w)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trace is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.time_s)

    def _key(self):
        return (self.meta, self.time_s.tobytes(), self.temp_c.tobytes(), self.power_w.tobytes())

    def __eq__(self, other):
        return isinstance(other, Trace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _ascii(token: str, convert):
    """convert(token), float or int, for a number of ASCII characters
    without "_" between any whitespace: the two also take "1_3" and digits
    of other scripts, which a CSV file does not hold."""
    number = token.strip()
    if not number.isascii() or "_" in number:
        raise ValueError(token)
    return convert(number)


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = _ascii(token, float)
    except ValueError:
        raise MalformedRow(line_no, f"not a number: {reprlib.repr(token)}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"not a finite decimal: {reprlib.repr(token)}")
    return value


def _read_rows(text: str, start: int, header_line: int, width: int):
    """text[start:], the lines below the header, parsed one line at a time:
    a (rows, width) float array and each row's line number.  Raises
    MalformedRow at the first bad line."""
    rows, line_nos = [], []
    for line_no, raw in enumerate(text[start:].split("\n"), start=header_line + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            raise MalformedRow(line_no, "comment lines must precede the column header")
        tokens = line.split(",")
        if len(tokens) != width:
            raise MalformedRow(line_no, f"expected {width} columns, got {len(tokens)}")
        rows.append([_parse_number(tok, line_no) for tok in tokens])
        line_nos.append(line_no)
    return np.array(rows, float).reshape(-1, width), line_nos


_BLANK_LINES = re.compile(r"\n\s*\n")


def _batches(parts, ends: list[int]):
    """The lines below the header of each (text, start) in parts, cut into
    slabs of at most SLAB_BYTES at line ends (or of one longer line), each
    stripped and rid of blank lines, and the slabs of small texts joined
    up to SLAB_BYTES.  Appends the row each text ends at to ends."""
    batch, size, rows = [], 0, ends[-1]
    for text, start in parts:
        while start < len(text):
            end = start + SLAB_BYTES  # the last line end before, else the first after
            cut = text.rfind("\n", start, end) + 1 or text.find("\n", end) + 1 or len(text)
            body, start = _BLANK_LINES.sub("\n", text[start:cut].strip()), cut
            if batch and size + len(body) > SLAB_BYTES:
                yield "\n".join(batch)
                batch, size = [], 0
            if body:
                batch.append(body)
                size += len(body) + 1
                rows += body.count("\n") + 1
        ends.append(rows)
    if batch:
        yield "\n".join(batch)


def _read_table(parts, width: int):
    """The rows below the header of each (text, start) in parts: a
    C-contiguous (width, rows) float array and the row offsets where each
    text's rows end, or None if any row is not ``width`` finite ASCII
    decimals.  Each batch is converted with float() at once, a ";" field
    between rows: float() rejects ";", so every row has ``width`` fields
    when each ";" lands on its own slot and everything else converts."""
    most = sum(text.count("\n", start) + (not text.endswith("\n")) for text, start in parts)
    table, ends, row = np.empty((width, most)), [0], 0
    try:
        for batch in _batches(parts, ends):
            n = batch.count("\n") + 1
            tokens = batch.replace("\n", ",;,").split(",")
            if (not batch.isascii() or "_" in batch or len(tokens) != n * (width + 1) - 1
                    or tokens[width :: width + 1] != [";"] * (n - 1)):
                return None
            del tokens[width :: width + 1]
            values = np.fromiter(map(float, tokens), float, len(tokens))
            table[:, row : row + n] = values.reshape(n, width).T
            row += n
    except ValueError:
        return None
    table = table if row == most else table[:, :row].copy()  # a row per line at most
    return (table, ends) if np.isfinite(table).all() else None


def _decode(text: str | bytes) -> str:
    """UTF-8 text without one leading byte order mark, which spreadsheets
    write; utf-8-sig does the same at four times the cost."""
    return text.removeprefix(codecs.BOM_UTF8).decode("utf-8") if isinstance(text, bytes) else text


def _header(text: str) -> tuple[dict[str, str], list[str], int, int]:
    """The ``#key=value`` lines and the column header of CSV text: (meta
    dict, column names, offset of the line below the header, header line
    number)."""
    meta: dict[str, str] = {}
    start = 0
    for line_no in itertools.count(1):
        end = text.find("\n", start)
        line = text[start : None if end < 0 else end].strip()
        start = len(text) if end < 0 else end + 1
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep or not key:
                raise MalformedRow(line_no, f"bad metadata comment: {reprlib.repr(line)}")
            meta[key.strip()] = value.strip()
        elif line:
            return meta, [c.strip() for c in line.split(",")], start, line_no
        if end < 0:
            raise EmptyTrace("no column header found")


def parse_table(text: str | bytes) -> tuple[dict[str, str], list[str], np.ndarray, int]:
    """Parse the comment/header/rows skeleton shared by all CSV outputs.

    Returns (meta dict, column names, a (rows, columns) float array,
    header line number).
    """
    text = _decode(text)
    meta, columns, start, header_line = _header(text)
    read = _read_table([(text, start)], len(columns))  # else read line by line
    rows = read[0].T if read else _read_rows(text, start, header_line, len(columns))[0]
    return meta, columns, rows, header_line


def _trace_meta(meta_raw: dict[str, str], columns: list[str], header_line: int) -> TraceMeta:
    """A trace file's TraceMeta, from its _header."""
    if columns != list(_COLUMNS):
        raise MalformedRow(header_line, f"expected header {HEADER!r}")
    if "freq_ghz" not in meta_raw:
        raise MissingMeta("missing #freq_ghz header")
    if "cores" not in meta_raw:
        raise MissingMeta("missing #cores header")
    try:
        freq = _ascii(meta_raw["freq_ghz"], float)
    except ValueError:
        raise MissingMeta(f"bad #freq_ghz value: {reprlib.repr(meta_raw['freq_ghz'])}") from None
    try:
        cores = _ascii(meta_raw["cores"], int)
    except ValueError:
        raise MissingMeta(f"bad #cores value: {reprlib.repr(meta_raw['cores'])}") from None
    return TraceMeta(meta_raw.get("processor", "unknown"), freq, cores)


def _meta_of(text: str) -> tuple[TraceMeta, int]:
    """The TraceMeta of a trace text's header and the offset below it."""
    meta_raw, columns, start, header_line = _header(text)
    return _trace_meta(meta_raw, columns, header_line), start


# the "#key=value" lines and the column header that open a trace text,
# within its first _HEAD_CHARS characters, whose header line starts with
# neither "#" nor whitespace, so _header ends on it in the match as in the
# whole text; a fleet's files repeat a few such texts
_HEAD = re.compile(r"(?:#[^\n]*\n)*[^#\s][^\n]*\n")
_HEAD_CHARS = 1024
# _meta_of of such a header text, parsed once and its TraceMeta shared
_head_meta = functools.lru_cache(maxsize=1024)(_meta_of)


def parse_trace(text: str | bytes) -> Trace:
    """Parse trace CSV text into a validated Trace: parse_traces([text])[0].

    A missing ``#processor`` defaults to "unknown"; missing ``#freq_ghz``
    or ``#cores`` raises MissingMeta.  An invalid sample or a time that
    does not increase raises InvalidSample or NonMonotonicTime naming its
    line.
    """
    return parse_traces([text])[0]


def parse_traces(texts: Iterable[str | bytes]) -> list[Trace]:
    """Parse trace CSV texts into validated Traces, every body converted a
    slab at a time into one C-contiguous (3, rows) array and checked at
    once, each Trace's columns read-only slices of it.  Each distinct
    header text is parsed once (_head_meta), and its traces share one
    TraceMeta.

    If any text fails, or holds what only the line-by-line reader takes,
    such as non-ASCII whitespace around a number, each text is read alone,
    line by line and in order, so the first bad one raises its own error.
    """
    texts = list(texts)  # read again if the joined pass fails
    try:
        metas, parts = [], []
        for text in map(_decode, texts):
            head = _HEAD.match(text, 0, _HEAD_CHARS)
            meta, start = _head_meta(head[0]) if head else _meta_of(text)
            metas.append(meta)
            parts.append((text, start))
        read = _read_table(parts, len(_COLUMNS))
        if read is not None and metas:  # no texts is no traces, below
            return _traces(metas, *read)
    except (ThermoError, UnicodeDecodeError):
        pass
    return [_parse_alone(text) for text in texts]


def _parse_alone(text: str | bytes) -> Trace:
    """One trace text, read line by line: its rows are checked first, then
    its metadata, then its samples, each error naming its line."""
    text = _decode(text)
    meta_raw, columns, start, header_line = _header(text)
    rows, line_nos = _read_rows(text, start, header_line, len(columns))
    meta = _trace_meta(meta_raw, columns, header_line)
    return _traces([meta], rows.T.copy(), [0, len(rows)], line_nos.__getitem__)[0]


def _table_text(meta: Mapping[str, str], names: Sequence[str], columns):
    """write_table's text in pieces: the header, then runs of rows of at
    most SLAB_BYTES."""
    yield "".join(f"#{key}={value}\n" for key, value in meta.items()) + ",".join(names) + "\n"
    columns = [np.asarray(col, float) for col in columns]
    # %r of a float is its repr, at most 24 characters; one format writes a run
    row_format = ",".join(["%r"] * len(names)) + "\n"
    run = max(1, SLAB_BYTES // (25 * len(names)))
    for i in range(0, max(map(len, columns)), run):  # a shorter column fails column_stack
        table = np.column_stack([col[i : i + run] for col in columns])
        yield (row_format * len(table)) % tuple(table.ravel().tolist())


def write_table(meta: Mapping[str, str], names: Sequence[str], columns) -> str:
    """CSV text: ``#key=value`` lines, the header, then one row per index.

    ``columns`` holds one float sequence or array per name; every number is
    written as its repr, the shortest decimal that parses back to it.
    """
    return "".join(_table_text(meta, names, columns))


def _trace_table(trace: Trace) -> tuple:
    """write_table's (meta, names, columns) of a trace file, meta in file order."""
    m = trace.meta
    return ({"processor": m.processor, "freq_ghz": repr(float(m.freq_ghz)), "cores": str(m.cores)},
            _COLUMNS, (trace.time_s, trace.temp_c, trace.power_w))


def write_trace(trace: Trace) -> str:
    """Serialize a Trace to CSV text; parse_trace(write_trace(t)) == t."""
    return write_table(*_trace_table(trace))


def generate_synthetic_trace(
    meta: TraceMeta,
    params: tuple[float, float, float],
    sweep: tuple[float, float, int],
    noise: float = 0.0,
    quantum: float = 0.0,
    seed: int = 0,
) -> Trace:
    """Generate a ground-truth trace from the exponential curve.

    ``params`` is (a0, a1, a2) of power = exp((T - a1)/a2) + a0.  Temperatures
    sweep linearly over ``sweep`` = (temp_lo, temp_hi, count); samples are
    taken at 5 Hz starting at t=0.  Gaussian noise (std-dev ``noise`` watts)
    is added, then each power is rounded to the nearest multiple of
    ``quantum`` when quantum > 0 to mimic sensor granularity.  Output is
    deterministic for a fixed seed, an int >= 0.  Every setting must be
    finite; an exponential that leaves the double range raises exp_curve's
    InvalidParams, and a power that does so after the noise or the
    rounding raises the InvalidSample a Trace of it would.
    """
    from .fitting import exp_curve  # fitting imports this module

    a0, a1, a2 = params
    temp_lo, temp_hi, count = sweep
    if not all(map(math.isfinite, (a0, a1, a2, temp_lo, temp_hi))):
        raise InvalidParams(f"params and sweep ends must be finite, got {params!r} and {sweep!r}")
    if count < 3:
        raise InvalidParams(f"sample count must be >= 3, got {count}")
    if not 0 <= noise < math.inf:  # false for nan too
        raise InvalidParams(f"noise must be finite and >= 0, got {noise!r}")
    if not 0 <= quantum < math.inf:
        raise InvalidParams(f"quantum must be finite and >= 0, got {quantum!r}")
    # checked even when no noise draws on the seed
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParams(f"seed must be an int >= 0, got {reprlib.repr(seed)}")
    with np.errstate(over="ignore", invalid="ignore"):  # the Trace rejects what overflows
        temps = np.linspace(temp_lo, temp_hi, count)
        powers = exp_curve(temps, a1, a2) + a0
        if noise > 0:
            rng = np.random.default_rng(seed)
            powers = powers + rng.normal(0.0, noise, count)
        if quantum > 0:
            powers = np.round(powers / quantum) * quantum
    return Trace(meta, 0.2 * np.arange(count), temps, powers)

"""Trace data types, the on-disk CSV format, and a synthetic trace generator.

A trace file is UTF-8 text with LF line endings::

    #processor=A15
    #freq_ghz=1.2
    #cores=4
    time_s,temp_c,power_w
    0.0,25.4,2.113
    ...

``#key=value`` comment lines are only allowed before the column header.
Numbers use ``.`` as the decimal separator and are written as their repr,
the shortest decimal form that parses back to the identical float, so
write/parse is a bit-exact round trip.  Every CSV the package writes goes
through write_table (_table_text): a table of fewer than BLOCK_ROWS rows
is formatted with %r, SLAB_BYTES of text at a time; a longer one a block
of BLOCK_ROWS rows at a time, by _shortest.rows_text (Schubfach's digits
from one 128-bit product a value, each value's digits rendered once)
when every value of the block prints in fixed notation, else with %r.
The report's floats go through the same kernel in processes that have
loaded it (cli._entries).  It reads traces through _chunk_table
(parse_traces) and other tables through parse_table, both one slab of at
most SLAB_BYTES at a time, the slabs of small texts joined.  Each text is
read as UTF-8 bytes (_utf8), from the disk to the numbers; its header
lines are decoded only to strip and split them.  When the text in hand,
or the whole input as its caller sizes it, reaches ARRAY_BYTES, a batch
whose every field is a plain decimal (-?[0-9]+(\\.[0-9]+)?, as repr
writes in fixed notation) goes through _shortest.rows_values, bit for bit
as float() reads it; any other batch, and every batch of a smaller input,
is rid of blank lines and converted with float().  A text the joined pass
declines is read line by line, as str.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import math
import re
import reprlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._numeric import exp_curve
from .errors import (
    SLAB_BYTES,
    EmptyTrace,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
    ThermoError,
    _check_operating_point,
)

HEADER = "time_s,temp_c,power_w"
_COLUMNS = tuple(HEADER.split(","))
BLOCK_ROWS = 4096  # rows a long table writes at once, as arrays
# CSV text in one input, from which on it is read with the array kernel:
# the kernel saves about 0.01 ms a KB on float(), so 6 slabs repay the
# 4 ms it takes to load _shortest from source
ARRAY_BYTES = 6 * SLAB_BYTES


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


def _check_table(table, ends, line_of=None) -> None:
    """Make a C-contiguous (3, rows) table read-only once the traces that
    the row offsets ends cut from it pass every Trace's checks:
    check_samples, then at least 3 samples each, then strictly increasing
    times; line_of(i) names row i's file line."""
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


def _traces(metas, table, ends) -> list[Trace]:
    """The Traces of metas over a _check_table'd table, their columns
    read-only slices of it."""
    time_s, temp_c, power_w = table
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
        table = np.stack(columns)
        _check_table(table, [0, len(time_s)])
        self._store(meta, *table)

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


def _utf8(text: str | bytes) -> bytes:
    """text as UTF-8 bytes: a str encoded, a lone surrogate as the three
    bytes that decode back to it; bytes rid of one leading byte order
    mark, which spreadsheets write, and unless all ASCII checked to decode,
    raising the UnicodeDecodeError that decoding the whole text does."""
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    data = text.removeprefix(codecs.BOM_UTF8)
    if not data.isascii():
        data.decode()
    return data


def _read_rows(data: bytes, start: int, header_line: int, width: int):
    """The lines of _utf8 bytes below the header at data[start:], decoded
    and parsed one line at a time: a (rows, width) float array and each
    row's line number.  Raises MalformedRow at the first bad line."""
    rows, line_nos = [], []
    lines = data[start:].decode("utf-8", "surrogatepass").split("\n")
    for line_no, raw in enumerate(lines, start=header_line + 1):
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


_BLANK_LINES = re.compile(rb"\n\s*\n")


def _batches(parts):
    """The lines below the header of each (data, start) in parts, cut into
    slabs of at most SLAB_BYTES at line ends, or of one longer line, each
    ending in a line end, and the slabs of small texts joined up to
    SLAB_BYTES: lists of (index of the text in parts, slab)."""
    batch, size = [], 0
    for i, (data, start) in enumerate(parts):
        while start < len(data):
            end = start + SLAB_BYTES  # the last line end before, else the first after
            cut = data.rfind(b"\n", start, end) + 1 or data.find(b"\n", end) + 1 or len(data)
            slab, start = data[start:cut], cut
            if batch and size + len(slab) > SLAB_BYTES:
                yield batch
                batch, size = [], 0
            batch.append((i, slab if slab.endswith(b"\n") else slab + b"\n"))
            size += len(slab)
    if batch:
        yield batch


def _float_rows(batch, rows: list[int], width: int):
    """The (n, width) floats of a batch's slabs, each stripped and rid of
    blank lines, or None if a row is not ``width`` ASCII decimals; takes
    each slab's blank lines off rows[its text's index].  The rows are
    converted with float() at once, a ";" field between rows: float()
    rejects ";", so every row has ``width`` fields when each ";" lands on
    its own slot and everything else converts.  Only ASCII whitespace is
    blank or stripped here; a line that str would strip further fails to
    convert, and is left to the line-by-line reader."""
    bodies = []
    for i, slab in batch:
        body = _BLANK_LINES.sub(b"\n", slab.strip())
        kept = body.count(b"\n") + 1 if body else 0
        rows[i] -= slab.count(b"\n") - kept
        if body:
            bodies.append(body)
    if not bodies:
        return np.empty((0, width))
    text = b"\n".join(bodies)
    n = text.count(b"\n") + 1
    tokens = text.replace(b"\n", b",;,").split(b",")
    if (not text.isascii() or b"_" in text or len(tokens) != n * (width + 1) - 1
            or tokens[width :: width + 1] != [b";"] * (n - 1)):
        return None
    del tokens[width :: width + 1]
    return np.fromiter(map(float, tokens), float, len(tokens)).reshape(n, width)


def _read_table(parts, width: int, size: int = 0):
    """The rows below the header of each (data, start) in parts, _utf8
    bytes: a C-contiguous (width, rows) float array and the row offsets
    where each text's rows end, or None if any row is not ``width`` finite
    ASCII decimals.  When the parts, or the size in bytes that the caller
    gives for the whole input they belong to, reach ARRAY_BYTES, a batch
    that _shortest.rows_values takes, every line a row of plain decimals,
    is converted by it; any other by _float_rows."""
    arrays = max(size, sum(len(data) - start for data, start in parts)) >= ARRAY_BYTES
    rows = [data.count(b"\n", start) + (start < len(data) and not data.endswith(b"\n"))
            for data, start in parts]  # lines, less blank ones as _float_rows finds them
    table, row = np.empty((width, sum(rows))), 0
    try:
        for batch in _batches(parts):
            values = None
            if arrays:
                from . import _shortest
                values = _shortest.rows_values(b"".join(slab for _, slab in batch), width)
            if values is None:
                values = _float_rows(batch, rows, width)
                if values is None:
                    return None
            table[:, row : row + len(values)] = values.T
            row += len(values)
    except ValueError:
        return None
    table = table if row == table.shape[1] else table[:, :row].copy()
    ends = list(itertools.accumulate(rows, initial=0))
    return (table, ends) if np.isfinite(table).all() else None


def _header(data: bytes) -> tuple[dict[str, str], list[str], int, int]:
    """The ``#key=value`` lines and the column header of _utf8 bytes, each
    line decoded to strip and split it as str: (meta dict, column names,
    offset of the line below the header, header line number)."""
    meta: dict[str, str] = {}
    start = 0
    for line_no in itertools.count(1):
        end = data.find(b"\n", start)
        line = data[start : None if end < 0 else end].decode("utf-8", "surrogatepass").strip()
        start = len(data) if end < 0 else end + 1
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
    data = _utf8(text)
    meta, columns, start, header_line = _header(data)
    read = _read_table([(data, start)], len(columns))  # else read line by line
    rows = read[0].T if read else _read_rows(data, start, header_line, len(columns))[0]
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


def _meta_of(data: bytes) -> tuple[TraceMeta, int]:
    """The TraceMeta of a trace text's header and the offset below it."""
    meta_raw, columns, start, header_line = _header(data)
    return _trace_meta(meta_raw, columns, header_line), start


# the "#key=value" lines and the column header that open a trace text,
# within its first _HEAD_BYTES bytes, whose header line starts with neither
# "#" nor a byte that may begin what str strips (ASCII whitespace,
# \x1c-\x1f, or a non-ASCII character such as U+00A0), so _header ends on
# it in the match as in the whole text; a fleet's files repeat a few such
# texts
_HEAD = re.compile(rb"(?:#[^\n]*\n)*[^#\s\x1c-\x1f\x80-\xff][^\n]*\n")
_HEAD_BYTES = 1024
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
    """Parse trace CSV texts into validated Traces, each one's columns
    read-only slices of one C-contiguous (3, rows) array (see
    _chunk_table).  The traces of one header text share one TraceMeta.

    If any text fails, each text is read alone, line by line and in order,
    so the first bad one raises its own error.
    """
    return _traces(*_chunk_table(texts))


def _chunk_table(texts: Iterable[str | bytes], size: int = 0
                 ) -> tuple[list[TraceMeta], np.ndarray, list[int]]:
    """The TraceMetas of trace CSV texts, their samples as one read-only,
    C-contiguous (3, rows) table of times, temperatures and powers, and
    the row offsets where each text's rows start and the last ends.

    Each text is taken as _utf8 bytes once, and every body is converted a
    slab at a time and checked at once (_read_table, to which size, the
    bytes of the whole input as the caller knows it, is passed on).  Each
    distinct header text is parsed once (_head_meta).  If any text fails,
    or holds what only the line-by-line reader takes, such as non-ASCII
    whitespace around a number, each text is read alone, line by line and
    in order, so the first bad one raises its own error.
    """
    texts = list(texts)  # read again if the joined pass fails
    try:
        metas, parts = [], []
        for data in map(_utf8, texts):
            head = _HEAD.match(data, 0, _HEAD_BYTES)
            meta, start = _head_meta(head[0]) if head else _meta_of(data)
            metas.append(meta)
            parts.append((data, start))
        read = _read_table(parts, len(_COLUMNS), size)
        if read is not None and metas:  # no texts is no traces, below
            _check_table(*read)
            return metas, *read
    except (ThermoError, UnicodeDecodeError):
        pass
    alone = [_parse_alone(text) for text in texts]
    ends = list(itertools.accumulate(map(len, alone), initial=0))
    table = np.empty((3, ends[-1]))
    for tr, a, b in zip(alone, ends, ends[1:]):
        table[:, a:b] = tr.time_s, tr.temp_c, tr.power_w
    table.flags.writeable = False
    return [tr.meta for tr in alone], table, ends


def _parse_alone(text: str | bytes) -> Trace:
    """One trace text, read line by line: its rows are checked first, then
    its metadata, then its samples, each error naming its line."""
    data = _utf8(text)
    meta_raw, columns, start, header_line = _header(data)
    rows, line_nos = _read_rows(data, start, header_line, len(columns))
    meta = _trace_meta(meta_raw, columns, header_line)
    table = rows.T.copy()
    _check_table(table, [0, len(rows)], line_nos.__getitem__)
    return _traces([meta], table, [0, len(rows)])[0]


def _table_text(meta: Mapping[str, str], names: Sequence[str], columns):
    """write_table's text in pieces, columns float arrays: the header,
    then the rows, each number its repr.  A table of fewer than BLOCK_ROWS
    rows is formatted with %r in pieces of at most SLAB_BYTES.  A longer
    one goes out in pieces of one block of BLOCK_ROWS rows, at most
    BLOCK_ROWS * 25 bytes a column: _shortest.rows_text writes a block
    whose values all print in fixed notation, %r any other.  Raises
    LengthMismatch when a column is not 1-D, or when names and columns
    differ in number or columns in length."""
    for col in columns:
        if col.ndim != 1:
            raise LengthMismatch(f"a column must be 1-D, got shape {col.shape}")
    lengths = set(map(len, columns))
    if len(names) != len(columns):
        raise LengthMismatch(f"{len(names)} column names for {len(columns)} columns")
    if len(lengths) > 1:
        raise LengthMismatch(f"column lengths differ: {sorted(lengths)}")
    yield "".join(f"#{key}={value}\n" for key, value in meta.items()) + ",".join(names) + "\n"
    rows = lengths.pop() if lengths else 0
    long = rows >= BLOCK_ROWS
    if long:
        from . import _shortest
    # %r of a float is its repr, at most 24 characters; one format writes a run
    row_format = ",".join(["%r"] * len(names)) + "\n"
    run = BLOCK_ROWS if long else max(1, SLAB_BYTES // (25 * max(1, len(names))))
    for i in range(0, rows, run):
        table = np.column_stack([col[i : i + run] for col in columns])
        text = _shortest.rows_text(table) if long else None
        yield (row_format * len(table)) % tuple(table.ravel().tolist()) if text is None else text


def write_table(meta: Mapping[str, str], names: Sequence[str], columns) -> str:
    """CSV text: ``#key=value`` lines, the header, then one row per index.

    ``columns`` holds one float sequence or array per name; every number is
    written as its repr, the shortest decimal that parses back to it.
    """
    return "".join(_table_text(meta, names, [np.asarray(col, float) for col in columns]))


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

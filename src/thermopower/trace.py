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
write_table and every one it reads through parse_table.
"""

from __future__ import annotations

import itertools
import math
import re
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
)

HEADER = "time_s,temp_c,power_w"
_COLUMNS = tuple(HEADER.split(","))


def _check_sample(time_s: float, temp_c: float, power_w: float, line_no=None) -> None:
    for name, value in zip(_COLUMNS, (time_s, temp_c, power_w)):
        if not math.isfinite(value):
            raise InvalidSample(f"{name} must be finite, got {value!r}", line_no)
    if time_s < 0:
        raise InvalidSample(f"time_s must be non-negative, got {time_s!r}", line_no)
    if power_w <= 0:
        raise InvalidSample(f"power_w must be positive, got {power_w!r}", line_no)


def check_samples(time_s, temp_c, power_w, line_of=None) -> None:
    """Raise the InvalidSample a TraceSample would for the first bad row;
    line_of(i) names row i's file line."""
    bad = ~np.isfinite(time_s) | ~np.isfinite(temp_c) | ~np.isfinite(power_w)
    bad |= (time_s < 0) | ~(power_w > 0)
    if bad.any():
        i = int(np.argmax(bad))
        row = (float(time_s[i]), float(temp_c[i]), float(power_w[i]))
        _check_sample(*row, line_of(i) if line_of else None)


@dataclass(frozen=True)
class TraceSample:
    time_s: float
    temp_c: float
    power_w: float

    def __post_init__(self):
        _check_sample(self.time_s, self.temp_c, self.power_w)


@dataclass(frozen=True)
class TraceMeta:
    processor: str
    freq_ghz: float
    cores: int

    def __post_init__(self):
        _check_operating_point(self.freq_ghz, self.cores)


def _check_operating_point(freq: float, cores: int) -> None:
    if not (isinstance(freq, (int, float)) and math.isfinite(freq) and freq > 0):
        raise InvalidFreq(f"freq must be a positive number of GHz, got {freq!r}")
    if not isinstance(cores, int) or not 1 <= cores <= 4:
        raise InvalidCores(f"cores must be an integer in 1..4, got {cores!r}")


class Trace:
    """A validated trace: metadata plus three read-only float64 columns.

    ``time_s``, ``temp_c`` and ``power_w`` are 1-D arrays of one length,
    at least 3.  Every value is finite, times are non-negative and strictly
    increasing, and powers are positive.  ``Trace(meta, samples)`` builds
    one from TraceSample rows and ``Trace.from_columns`` from three
    sequences; both go through the same bulk validation.  Two traces are
    equal when their metadata are and their columns match bit for bit.
    """

    __slots__ = ("meta", "time_s", "temp_c", "power_w")

    def __init__(self, meta: TraceMeta, samples: Iterable[TraceSample]):
        rows = [(s.time_s, s.temp_c, s.power_w) for s in samples]
        self._set(meta, np.array(rows, float).reshape(-1, 3).T)

    @classmethod
    def from_columns(cls, meta: TraceMeta, time_s, temp_c, power_w) -> "Trace":
        lengths = {len(time_s), len(temp_c), len(power_w)}
        if len(lengths) != 1:
            raise LengthMismatch(f"column lengths differ: {sorted(lengths)}")
        trace = cls.__new__(cls)
        trace._set(meta, (time_s, temp_c, power_w))
        return trace

    def _set(self, meta: TraceMeta, columns, line_of=None) -> None:
        """Validate and store the columns; line_of(i) names row i's file line."""
        cols = []
        for values in columns:
            col = np.array(values, float)
            if col.ndim != 1:
                raise LengthMismatch(f"a column must be 1-D, got shape {col.shape}")
            col.flags.writeable = False
            cols.append(col)
        time_s, temp_c, power_w = cols
        check_samples(time_s, temp_c, power_w, line_of)
        if len(time_s) < 3:
            raise EmptyTrace(f"a trace needs at least 3 samples, got {len(time_s)}")
        steps = np.diff(time_s) <= 0
        if steps.any():
            i = int(np.argmax(steps)) + 1
            raise NonMonotonicTime(
                f"time must strictly increase ({float(time_s[i - 1])!r} then "
                f"{float(time_s[i])!r})",
                line_of(i) if line_of else None,
            )
        for name, value in zip(self.__slots__, (meta, *cols)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trace is immutable; cannot set {name!r}")

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        return tuple(map(TraceSample, self.times(), self.temps(), self.powers()))

    def times(self) -> list[float]:
        return self.time_s.tolist()

    def temps(self) -> list[float]:
        return self.temp_c.tolist()

    def powers(self) -> list[float]:
        return self.power_w.tolist()

    def __len__(self) -> int:
        return len(self.time_s)

    def _key(self):
        return (self.meta, self.time_s.tobytes(), self.temp_c.tobytes(), self.power_w.tobytes())

    def __eq__(self, other):
        return isinstance(other, Trace) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(line_no, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"not a finite decimal: {token!r}")
    return value


def _rows_line_by_line(lines: list[str], start: int, width: int) -> list[list[float]]:
    """The body rows, parsed one line at a time; raises at the first bad line."""
    rows = []
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            raise MalformedRow(line_no, "comment lines must precede the column header")
        tokens = line.split(",")
        if len(tokens) != width:
            raise MalformedRow(line_no, f"expected {width} columns, got {len(tokens)}")
        rows.append([_parse_number(tok, line_no) for tok in tokens])
    return rows


_BLANK_LINES = re.compile(r"\n\s*\n")


def _rows(text: str, start: int, header_line: int, width: int) -> np.ndarray:
    """text[start:], the lines below the header, as a (rows, width) float array.

    The whole body is split and converted with float() at once: blank lines
    are dropped, and a ";" field goes between rows.  float() rejects ";",
    so every row has exactly ``width`` fields when each ";" lands on its own
    slot and everything else converts.  Any failure reparses line by line,
    which raises MalformedRow naming the first bad line.
    """
    body = _BLANK_LINES.sub("\n", text[start:].strip())
    n = body.count("\n") + 1
    tokens = body.replace("\n", ",;,").split(",")
    if body and len(tokens) == n * (width + 1) - 1 and tokens[width :: width + 1] == [";"] * (n - 1):
        del tokens[width :: width + 1]
        try:
            values = np.fromiter(map(float, tokens), float, len(tokens))
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values.reshape(n, width)
    rows = _rows_line_by_line(_lines(text), header_line, width)
    return np.array(rows, float).reshape(-1, width)


def _lines(text: str | bytes) -> list[str]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return text.split("\n")


def _data_line(text: str | bytes, header_line: int, row: int) -> int:
    """The 1-based line number of data row ``row`` below the header."""
    for line_no, raw in enumerate(_lines(text)[header_line:], start=header_line + 1):
        if raw.strip():
            if row == 0:
                return line_no
            row -= 1
    raise IndexError(row)


def parse_table(text: str | bytes) -> tuple[dict[str, str], list[str], np.ndarray, int]:
    """Parse the comment/header/rows skeleton shared by all CSV outputs.

    Returns (meta dict, column names, a (rows, columns) float array,
    header line number).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    meta: dict[str, str] = {}
    start = 0
    for line_no in itertools.count(1):
        end = text.find("\n", start)
        line = text[start : None if end < 0 else end].strip()
        start = len(text) if end < 0 else end + 1
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep or not key:
                raise MalformedRow(line_no, f"bad metadata comment: {line!r}")
            meta[key.strip()] = value.strip()
        elif line:
            columns = [c.strip() for c in line.split(",")]
            return meta, columns, _rows(text, start, line_no, len(columns)), line_no
        if end < 0:
            raise EmptyTrace("no column header found")


def parse_trace(text: str | bytes) -> Trace:
    """Parse trace CSV text into a validated Trace.

    A missing ``#processor`` defaults to "unknown"; missing ``#freq_ghz``
    or ``#cores`` raises MissingMeta.  An invalid sample or a time that
    does not increase raises InvalidSample or NonMonotonicTime naming its
    line.
    """
    meta_raw, columns, rows, header_line = parse_table(text)
    if columns != list(_COLUMNS):
        raise MalformedRow(header_line, f"expected header {HEADER!r}")
    if "freq_ghz" not in meta_raw:
        raise MissingMeta("missing #freq_ghz header")
    if "cores" not in meta_raw:
        raise MissingMeta("missing #cores header")
    try:
        freq = float(meta_raw["freq_ghz"])
    except ValueError:
        raise MissingMeta(f"bad #freq_ghz value: {meta_raw['freq_ghz']!r}") from None
    try:
        cores = int(meta_raw["cores"])
    except ValueError:
        raise MissingMeta(f"bad #cores value: {meta_raw['cores']!r}") from None
    meta = TraceMeta(meta_raw.get("processor", "unknown"), freq, cores)
    if len(rows) < 3:
        raise EmptyTrace(f"a trace needs at least 3 samples, got {len(rows)}")
    trace = Trace.__new__(Trace)
    trace._set(meta, rows.T, lambda row: _data_line(text, header_line, row))
    return trace


def _fmt(value: float) -> str:
    # repr() is the shortest decimal that round-trips to the same float
    return repr(float(value))


def write_table(meta: Mapping[str, str], names: Sequence[str], columns) -> str:
    """CSV text: ``#key=value`` lines, the header, then one row per index.

    ``columns`` holds one float sequence or array per name; every number is
    written as its repr, the shortest decimal that parses back to it.
    """
    head = "".join(f"#{key}={value}\n" for key, value in meta.items())
    table = np.column_stack([np.asarray(col, float) for col in columns])
    # %r of a float is its repr; one format call writes every row
    row_format = ",".join(["%r"] * len(names)) + "\n"
    body = (row_format * len(table)) % tuple(table.ravel().tolist())
    return head + ",".join(names) + "\n" + body


def _trace_header(meta: TraceMeta) -> dict[str, str]:
    """The ``#key=value`` lines of a trace file, in file order."""
    return {"processor": meta.processor, "freq_ghz": _fmt(meta.freq_ghz), "cores": str(meta.cores)}


def write_trace(trace: Trace) -> str:
    """Serialize a Trace to CSV text; parse_trace(write_trace(t)) == t."""
    return write_table(
        _trace_header(trace.meta), _COLUMNS, (trace.time_s, trace.temp_c, trace.power_w)
    )


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
    deterministic for a fixed seed.
    """
    a0, a1, a2 = params
    temp_lo, temp_hi, count = sweep
    if a2 == 0:
        raise InvalidParams("a2 must be nonzero")
    if count < 3:
        raise InvalidParams(f"sample count must be >= 3, got {count}")
    if noise < 0:
        raise InvalidParams(f"noise must be >= 0, got {noise!r}")
    if quantum < 0:
        raise InvalidParams(f"quantum must be >= 0, got {quantum!r}")
    temps = np.linspace(temp_lo, temp_hi, count)
    powers = np.exp((temps - a1) / a2) + a0
    if noise > 0:
        rng = np.random.default_rng(seed)
        powers = powers + rng.normal(0.0, noise, count)
    if quantum > 0:
        powers = np.round(powers / quantum) * quantum
    return Trace.from_columns(meta, 0.2 * np.arange(count), temps, powers)

"""Exception types, the checks of an operating point and a JSON number, and SLAB_BYTES."""

import math
import reprlib
import sys

SLAB_BYTES = 1 << 16  # CSV text converted at once, read or written


class ThermoError(Exception):
    """Base class for all thermopower errors."""


# --- trace construction / parsing ---

class _RowError(ThermoError):
    """An error in one sample; line_no names its line when it came from a file."""

    def __init__(self, reason: str, line_no: int | None = None):
        super().__init__(reason if line_no is None else f"line {line_no}: {reason}")
        self.line_no = line_no


class InvalidSample(_RowError):
    """A sample field is non-finite or power is not positive."""


class MalformedRow(_RowError):
    """A line that is not a row, a header or a metadata comment as expected."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(reason, line_no)


class NonMonotonicTime(_RowError):
    """Sample times are not strictly increasing."""


class EmptyTrace(ThermoError):
    """Fewer than 3 samples; nothing can be fitted."""


class MissingMeta(ThermoError):
    """Required metadata (freq_ghz or cores) absent from the header."""


class InvalidParams(ThermoError):
    """Parameter values out of range (trace metadata or generator settings)."""


# --- fitting ---

class DegenerateInput(ThermoError):
    """Not enough distinct temperatures, or data the requested family cannot
    represent (an exponential with a non-positive or unbounded scale)."""


class LengthMismatch(ThermoError):
    """Paired sequences have different lengths."""


class ZeroMeasurement(ThermoError):
    """fit_error was given a measured power of zero, for which relative
    residuals are undefined."""


class EmptyGroup(ThermoError):
    """Aggregation requested over an empty group."""


class AllTies(ThermoError):
    """Sign test has no informative pairs after tie removal."""


# --- power model ---

class InvalidFreq(InvalidParams):
    """Frequency must be a positive number of GHz."""


class InvalidCores(InvalidParams):
    """Active core count must be an integer in 1..4."""


class InsufficientSpan(ThermoError):
    """Calibration needs >= 8 observations over >= 3 frequencies and >= 2 core counts."""


class SingularFit(ThermoError):
    """Calibration regression is rank-deficient or produced non-finite coefficients."""


# --- debias metrics ---

class ZeroSpread(ThermoError):
    """Measured powers have zero spread; the fluctuation ratio is undefined."""


# --- sensor correction ---

class ZeroDenominator(ThermoError):
    """The correction-factor denominator crosses zero at the given time."""

    def __init__(self, t: float, index: int | None = None):
        where = f" (sample index {index})" if index is not None else ""
        super().__init__(f"correction denominator is zero at t={t!r}{where}")
        self.t = t
        self.index = index


class NonPositiveTime(ThermoError):
    """The sensor correction is only defined for t > 0."""


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

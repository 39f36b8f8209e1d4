"""Exception types shared across the package."""


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

"""Temperature-bias cancellation: transform measured power to a reference
temperature and score the result.

The transforms shift each measured power P_m at temperature T_m to the
power P_r the device would have drawn at the reference temperature T_r:

    linear       P_r = P_m + eta1*(T_r - T_m)
    quadratic    P_r = P_m + eta2*(T_r^2 - T_m^2) + eta1*(T_r - T_m)
    exponential  P_r = P_m + exp((T_r - a1)/a2) - exp((T_m - a1)/a2)

The constant curve term cancels in every case, so it is never needed.
Quality metrics: AFL is the measured power spread as a percent of the
median; FL compares the transformed spread/median ratio to the measured
one (small is good); RAT measures departure of the mean from the median
(asymmetry) of the transformed series.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

import numpy as np

from .errors import InvalidParams, LengthMismatch, ZeroSpread
from .fitting import FitKind, exp_curve, fit_exponential, fit_linear, fit_quadratic
from .trace import Trace, _trace_table, write_table

_ETA_ARITY = {FitKind.LINEAR: 1, FitKind.QUADRATIC: 2, FitKind.EXPONENTIAL: 2}


@dataclass(frozen=True)
class DebiasSpec:
    """Transform coefficients.

    eta by kind: linear (eta1,); quadratic (eta2, eta1);
    exponential (a1, a2) of the fitted curve.
    """

    kind: FitKind
    eta: tuple[float, ...]
    ref_temp: float

    def __post_init__(self):
        object.__setattr__(self, "eta", tuple(float(e) for e in self.eta))
        if len(self.eta) != _ETA_ARITY[self.kind]:
            raise InvalidParams(
                f"{self.kind.value} debias takes {_ETA_ARITY[self.kind]} eta "
                f"coefficients, got {len(self.eta)}"
            )
        if not all(math.isfinite(e) for e in self.eta):
            raise InvalidParams("eta coefficients must be finite")
        if not math.isfinite(self.ref_temp):
            raise InvalidParams("ref_temp must be finite")
        if self.kind is FitKind.EXPONENTIAL and self.eta[1] == 0:
            raise InvalidParams("exponential debias needs a nonzero a2")

    def shift(self, temp):
        """Power increment moving a sample from temp to ref_temp.

        temp is a float or an array of them.
        """
        if self.kind is FitKind.LINEAR:
            (eta1,) = self.eta
            return eta1 * (self.ref_temp - temp)
        if self.kind is FitKind.QUADRATIC:
            eta2, eta1 = self.eta
            # x*x, not x**2: the C library's pow(x, 2) is not always correctly rounded
            return (eta2 * (self.ref_temp * self.ref_temp - temp * temp)
                    + eta1 * (self.ref_temp - temp))
        a1, a2 = self.eta
        return exp_curve(self.ref_temp, a1, a2) - exp_curve(temp, a1, a2)


@dataclass(frozen=True)
class DebiasMetrics:
    afl: float
    fl: float
    rat: float


@dataclass(frozen=True)
class DebiasedTrace:
    source: Trace
    spec: DebiasSpec
    ref_power: tuple[float, ...]
    metrics: DebiasMetrics

    def __post_init__(self):
        object.__setattr__(self, "ref_power", tuple(self.ref_power))
        if len(self.ref_power) != len(self.source):
            raise LengthMismatch(
                f"{len(self.ref_power)} transformed powers for "
                f"{len(self.source)} samples"
            )


def _median(values) -> float:
    """statistics.median of a non-empty float sequence or array, found by
    partition instead of a sort: the same middle value, or the same
    (lower + upper)/2 of the two middle values.  Equal values differ in
    their bits only as -0.0 and 0.0, so a middle zero is the one the
    stable sort puts there: the zeros in input order, after the negatives.
    """
    x = np.asarray(values, float)
    mid = x.size // 2
    at = [mid] if x.size % 2 else [mid - 1, mid]
    middle = np.partition(x, at)[at].tolist()
    if 0.0 in middle:
        zeros, below = x[x == 0].tolist(), np.count_nonzero(x < 0)
        middle = [zeros[i - below] if m == 0 else m for i, m in zip(at, middle)]
    return middle[0] if x.size % 2 else (middle[0] + middle[1]) / 2


def _spread(values) -> float:
    x = np.asarray(values, float)
    return float(x.max() - x.min())


def metric_afl(trace: Trace) -> float:
    """Measured power spread as a percent of the median."""
    return 100.0 * _spread(trace.power_w) / _median(trace.power_w)


def metric_fl(measured: Sequence[float], transformed: Sequence[float]) -> float:
    """Transformed fluctuation over measured fluctuation (1 = no change)."""
    if len(measured) != len(transformed):
        raise LengthMismatch(
            f"measured ({len(measured)}) and transformed ({len(transformed)}) differ"
        )
    if len(measured) == 0:
        raise LengthMismatch("need at least one sample")
    spread_m = _spread(measured)
    if spread_m == 0:
        raise ZeroSpread("measured powers are constant; FL is undefined")
    spread_t = _spread(transformed)
    return (spread_t / _median(transformed)) / (spread_m / _median(measured))


def metric_rat(transformed: Sequence[float]) -> float:
    """(mean - median)/median of the transformed powers."""
    if len(transformed) == 0:
        raise LengthMismatch("need at least one sample")
    med = _median(transformed)
    return (fmean(np.asarray(transformed, float).tolist()) - med) / med


def debias(trace: Trace, spec: DebiasSpec) -> DebiasedTrace:
    """Transform every sample to spec.ref_temp and attach quality metrics.

    Warns (UserWarning) when ref_temp lies outside the measured temperature
    range; picking an interior reference keeps the transform interpolative.
    FL is NaN for a constant-power input, where it is undefined.  Raises
    InvalidParams when a transformed power is not finite.
    """
    lo, hi = float(trace.temp_c.min()), float(trace.temp_c.max())
    if not lo <= spec.ref_temp <= hi:
        warnings.warn(
            f"reference temperature {spec.ref_temp} is outside the measured "
            f"range [{lo}, {hi}]; the transform extrapolates",
            stacklevel=2,
        )
    measured = trace.power_w
    with np.errstate(over="ignore", invalid="ignore"):
        ref_power = measured + spec.shift(trace.temp_c)
    bad = np.flatnonzero(~np.isfinite(ref_power))
    if bad.size:
        i = int(bad[0])
        t, p = float(trace.temp_c[i]), float(ref_power[i])
        raise InvalidParams(f"the transformed power of sample {i} (T = {t!r}) is {p!r}: "
                            "the transform leaves the double range")
    try:
        fl = metric_fl(measured, ref_power)
    except ZeroSpread:
        fl = math.nan
    metrics = DebiasMetrics(afl=metric_afl(trace), fl=fl, rat=metric_rat(ref_power))
    return DebiasedTrace(trace, spec, tuple(ref_power.tolist()), metrics)


def fit_eta(trace: Trace, kind: FitKind, ref_temp: float) -> DebiasSpec:
    """Regress the trace with the requested family and keep the slope terms.

    Linear keeps (eta1,); quadratic keeps (eta2, eta1); exponential keeps
    (a1, a2).  The constant term never matters for the transform.
    """
    if kind is FitKind.LINEAR:
        a1, _ = fit_linear(trace).coeffs
        eta = (a1,)
    elif kind is FitKind.QUADRATIC:
        a2, a1, _ = fit_quadratic(trace).coeffs
        eta = (a2, a1)
    else:
        _, a1, a2 = fit_exponential(trace).coeffs
        eta = (a1, a2)
    return DebiasSpec(kind, eta, float(ref_temp))


def _debiased_table(debiased: DebiasedTrace) -> tuple:
    """write_table's (meta, names, columns) of a debiased trace file."""
    meta, names, columns = _trace_table(debiased.source)
    spec = debiased.spec
    meta.update(ref_temp_c=repr(float(spec.ref_temp)), debias_kind=spec.kind.value)
    return meta, (*names, "power_ref_w"), (*columns, debiased.ref_power)


def write_debiased(debiased: DebiasedTrace) -> str:
    """Trace CSV with the transformed series as an extra power_ref_w column."""
    return write_table(*_debiased_table(debiased))

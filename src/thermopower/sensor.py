"""Distant-sensor temperature correction.

A sensor placed away from the die hotspot under-reads and lags the true
hotspot temperature.  For a step load the two are related by a
time-dependent factor

    B(t) = [(T_inf - T_init)*(1 - exp(-t/b)) + T_init]
           / [(T_inf - T_init)*erf(a / sqrt(4*alpha*t)) + T_init]

and the hotspot estimate is T_hotspot(t) = B(t) * T_sensor(t).  The
quotient is evaluated exactly in this printed form.  (alpha, a, b) are fit
constants in whatever shared unit system they were calibrated in, and the
temperatures enter on the scale the caller supplies, so use one consistent
scale throughout.  B(t) tends to T_init/T_inf as t -> 0+ and to
T_inf/T_init as t -> infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidParams,
    NonMonotonicTime,
    NonPositiveTime,
    ZeroDenominator,
)
from .fitting import each
from .trace import _json_number

# Rational minimax fits for the Gauss error function (classic libm-style
# double precision coefficients); agrees with math.erf to ~1 ulp but does
# not depend on the platform's libm, keeping outputs byte-identical.
_ERX = 8.45062911510467529297e-01
_EFX = 1.28379167095512586316e-01

_PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
_PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)
_RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e01,
    -6.23753324503260060396e01,
    -1.62396669462573470355e02,
    -1.84605092906711035994e02,
    -8.12874355063065934246e01,
    -9.81432934416914548592e00,
)
_SA = (
    1.0,
    1.96512716674392571292e01,
    1.37657754143519042600e02,
    4.34565877475229228821e02,
    6.45387271733267880336e02,
    4.29008140027567833386e02,
    1.08635005541779435134e02,
    6.57024977031928170135e00,
    -6.04244152148580987438e-02,
)
_RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e01,
    -1.60636384855821916062e02,
    -6.37566443368389627722e02,
    -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0,
    3.03380607434824582924e01,
    3.25792512996573918826e02,
    1.53672958608443695994e03,
    3.19985821950859553908e03,
    2.55305040643316442583e03,
    4.74528541206955367215e02,
    -2.24409524465858183362e01,
)

_ONE_BELOW_1 = math.nextafter(1.0, 0.0)


def _poly(coeffs: tuple[float, ...], x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def erf(x):
    """Gauss error function, odd and confined to the open interval (-1, 1).

    x is a float, or an array evaluated element by element with the same
    branches and the same Horner order, so both give the same bits.
    """
    if not isinstance(x, np.ndarray):
        return float(erf(np.array([x], float))[0])
    ax = np.abs(x)
    mag = np.ones_like(ax)  # 1 from 6 up
    low = ax < 0.84375
    z = ax[low] * ax[low]
    mag[low] = ax[low] + ax[low] * (_poly(_PP, z) / _poly(_QQ, z))
    mid = ~low & (ax < 1.25)
    s = ax[mid] - 1.0
    mag[mid] = _ERX + _poly(_PA, s) / _poly(_QA, s)
    for tail, (num, den) in (
        (~low & ~mid & (ax < 1.0 / 0.35), (_RA, _SA)),
        ((ax >= 1.0 / 0.35) & (ax < 6.0), (_RB, _SB)),
    ):
        z = ax[tail] * ax[tail]
        s = 1.0 / z
        big_r = _poly(num, s) / _poly(den, s)
        mag[tail] = 1.0 - each(math.exp, -z - 0.5625 + big_r) / ax[tail]
    # keep the range open: true values this close to 1 are not
    # representable below it in double precision anyway
    mag[mag >= 1.0] = _ONE_BELOW_1
    out = np.where(x < 0, -mag, mag)
    tiny = ax < 2.0**-28
    out[tiny] = x[tiny] + _EFX * x[tiny]
    nan = np.isnan(x)
    out[nan] = x[nan]
    return out


@dataclass(frozen=True)
class SensorModel:
    """Correction constants: diffusivity alpha, distance parameter a,
    hotspot time constant b, and the step temperatures t_init/t_inf."""

    alpha: float
    a: float
    b: float
    t_init: float
    t_inf: float

    def __post_init__(self):
        for name in ("alpha", "a", "b", "t_init", "t_inf"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        for name in ("alpha", "a", "b"):
            if getattr(self, name) <= 0:
                raise InvalidParams(f"{name} must be positive")
        if self.t_init == self.t_inf:
            raise InvalidParams("t_init and t_inf must differ")


def model_from_json(text: str | bytes) -> SensorModel:
    """Load a SensorModel from {alpha, a, b, t_init_c, t_inf_c} JSON."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InvalidParams(
            f"sensor model JSON must be an object, got {type(data).__name__}"
        )
    keys = ("alpha", "a", "b", "t_init_c", "t_inf_c")
    return SensorModel(*(_json_number(data, key, "sensor model fields") for key in keys))


def model_to_json_dict(model: SensorModel) -> dict:
    return {
        "alpha": model.alpha,
        "a": model.a,
        "b": model.b,
        "t_init_c": model.t_init,
        "t_inf_c": model.t_inf,
    }


def b_factor(model: SensorModel, t):
    """The correction factor at time t > 0, evaluated as printed.

    t is a float, or an array of times; for an array the factors come back
    as an array, and a time that is not finite and > 0 or a vanishing
    denominator names the first sample index it occurs at.
    """
    times = np.asarray(t, float)
    if times.ndim == 0:
        try:
            return float(b_factor(model, times.reshape(1))[0])
        except NonPositiveTime:
            raise NonPositiveTime(f"the correction is only defined for t > 0, got {t!r}") from None
        except ZeroDenominator as exc:
            raise ZeroDenominator(exc.t) from None
    bad = ~np.isfinite(times) | ~(times > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonPositiveTime(f"sample {i}: the correction needs t > 0, got {float(times[i])!r}")
    delta = model.t_inf - model.t_init
    # a subnormal b sends -t/b to -inf, whose exp is the exact limit 0, and a
    # huge a sends a/sqrt(4*alpha*t) to inf, whose erf is the exact limit 1
    with np.errstate(over="ignore"):
        decay = each(math.exp, -times / model.b)
        den = delta * erf(model.a / np.sqrt(4.0 * model.alpha * times)) + model.t_init
    num = delta * (1.0 - decay) + model.t_init
    scale = abs(delta) + abs(model.t_init)
    zero = np.abs(den) <= 1e-12 * scale
    if zero.any():
        i = int(np.argmax(zero))
        raise ZeroDenominator(float(times[i]), index=i)
    return num / den


def correct_series(model: SensorModel, sensor_temps: Sequence[tuple[float, float]]):
    """Scale each (time, sensor temperature) sample to the hotspot estimate.

    sensor_temps is a sequence of pairs or an (n, 2) array; the result is
    an (n, 2) array of (time, corrected temperature) rows.
    """
    series = np.asarray(sensor_temps, float).reshape(-1, 2)
    times = series[:, 0]
    bad = ~np.isfinite(times) | ~(times > 0)
    steps = np.diff(times) <= 0
    if bad.any() or steps.any():
        i = int(np.argmax(bad)) if bad.any() else len(times)
        j = int(np.argmax(steps)) + 1 if steps.any() else len(times)
        if i <= j:
            raise NonPositiveTime(
                f"sample {i}: the correction needs t > 0, got {float(times[i])!r}"
            )
        raise NonMonotonicTime(
            f"time must strictly increase ({float(times[j - 1])!r} then "
            f"{float(times[j])!r} at sample {j})"
        )
    return np.column_stack((times, b_factor(model, times) * series[:, 1]))

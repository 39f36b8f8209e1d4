"""Distant-sensor temperature correction.

A sensor placed away from the die hotspot under-reads and lags the true
hotspot temperature.  For a step load the two are related by a
time-dependent factor

    B(t) = [(T_inf - T_init)*(1 - exp(-t/b)) + T_init]
           / [(T_inf - T_init)*erf(a / sqrt(4*alpha*t)) + T_init]

and the hotspot estimate is T_hotspot(t) = B(t) * T_sensor(t).  The
quotient is evaluated exactly in this printed form, with _numeric's erf.
(alpha, a, b) are fit constants in whatever shared unit system they were
calibrated in, and the temperatures enter on the scale the caller
supplies, so use one consistent scale throughout.  B(t) tends to
T_init/T_inf as t -> 0+ and to T_inf/T_init as t -> infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import each, erf
from .errors import (
    InvalidParams,
    NonMonotonicTime,
    NonPositiveTime,
    ZeroDenominator,
    _json_number,
)


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
    # huge a, or a tiny t whose 4*alpha*t is 0, sends a/sqrt(4*alpha*t) to
    # inf, whose erf is the exact limit 1
    with np.errstate(over="ignore", divide="ignore"):
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

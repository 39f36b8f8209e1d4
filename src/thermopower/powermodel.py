"""Generalized temperature/frequency/core-count power model.

A CoefficientSet holds seven structural scalars (m1..m7) plus the shared
exponential slope a2.  At a given frequency f and active core count c the
exponential-curve parameters are

    g_s = m1 + m2*f + m3*f^2        per-core scale (watts)
    g_o = g_s / m4                  shared offset (watts)
    a0  = g_s*c + g_o
    a1  = m5*f + m6 + (5 - c)*m7    (degrees Celsius)

and power at temperature T is exp((T - a1)/a2) + a0.  Two built-in sets
(labels "A7" and "A15") are provided; calibrate() estimates a new set from
observed (f, c, a0, a1, a2) triples.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientSpan,
    InvalidParams,
    SingularFit,
)
from .fitting import _lstsq, exp_curve
from .trace import _check_operating_point, _json_number


@dataclass(frozen=True)
class ModelParams:
    """Exponential-curve parameters: power = exp((T - a1)/a2) + a0."""

    a0: float
    a1: float
    a2: float

    def __post_init__(self):
        for name in ("a0", "a1", "a2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        if self.a2 == 0:
            raise InvalidParams("a2 must be nonzero")

    def power(self, temp: float) -> float:
        if not math.isfinite(temp):
            raise InvalidParams(f"temperature must be finite, got {temp!r}")
        return exp_curve(temp, self.a1, self.a2) + self.a0


@dataclass(frozen=True)
class CoefficientSet:
    label: str
    m1: float
    m2: float
    m3: float
    m4: float
    m5: float
    m6: float
    m7: float
    a2: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "m4", "m5", "m6", "m7", "a2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")
        if self.m4 == 0:
            raise InvalidParams("m4 must be nonzero")
        if self.a2 == 0:
            raise InvalidParams("a2 must be nonzero")

    @property
    def m(self) -> tuple[float, ...]:
        return (self.m1, self.m2, self.m3, self.m4, self.m5, self.m6, self.m7)

    def to_dict(self) -> dict:
        return {"label": self.label, "m": list(self.m), "a2": self.a2}

    @classmethod
    def from_dict(cls, data: dict) -> "CoefficientSet":
        if not isinstance(data, dict):
            raise InvalidParams(
                f"a coefficient set must be an object, got {type(data).__name__}"
            )
        m, label = data.get("m"), data.get("label")
        if not isinstance(m, list):
            raise InvalidParams(f"m must be a list of 7 coefficients, got {reprlib.repr(m)}")
        if len(m) != 7:
            raise InvalidParams(f"expected 7 m-coefficients, got {len(m)}")
        if not isinstance(label, str):
            raise InvalidParams(f"label must be a string, got {reprlib.repr(label)}")
        numbers = dict(data, **{f"m{i}": v for i, v in enumerate(m, 1)})
        return cls(label, *(_json_number(numbers, f.name, "coefficients") for f in fields(cls)[1:]))


def derive_params(coeffs: CoefficientSet, freq: float, cores: int) -> ModelParams:
    """Instantiate the exponential-curve parameters at (freq, cores)."""
    _check_operating_point(freq, cores)
    g_s = coeffs.m1 + coeffs.m2 * freq + coeffs.m3 * freq * freq
    g_o = g_s / coeffs.m4
    a0 = g_s * cores + g_o
    a1 = coeffs.m5 * freq + coeffs.m6 + (5 - cores) * coeffs.m7
    return ModelParams(a0, a1, coeffs.a2)


def evaluate_power(coeffs: CoefficientSet, temp: float, freq: float, cores: int) -> float:
    """Model power in watts at (temp, freq, cores)."""
    return derive_params(coeffs, freq, cores).power(temp)


def builtin_sets() -> list[CoefficientSet]:
    """The two built-in processor calibrations."""
    return [
        CoefficientSet("A7", 0.028, -0.093, 0.371, 2.202, -38.242, 187.668, 8.430, 33.105),
        CoefficientSet("A15", 0.220, -0.315, 0.467, 2.202, -56.652, 165.896, 8.430, 33.105),
    ]


def builtin_set(label: str) -> CoefficientSet:
    for cs in builtin_sets():
        if cs.label.lower() == label.lower():
            return cs
    known = ", ".join(cs.label for cs in builtin_sets())
    raise KeyError(f"no built-in set {label!r} (known: {known})")


@dataclass(frozen=True)
class CalibrationDiagnostics:
    """Residual summary for a calibration run.

    a1_rms / a0_rms are root-mean-square residuals of the observed values
    against the calibrated structure; a2_spread is max - min of the
    observed a2 values; used_freqs lists the frequencies that contributed
    a per-frequency affine fit of a0 versus core count.
    """

    n_observations: int
    a1_rms: float
    a0_rms: float
    a2_spread: float
    used_freqs: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "n_observations": self.n_observations,
            "a1_rms": self.a1_rms,
            "a0_rms": self.a0_rms,
            "a2_spread": self.a2_spread,
            "used_freqs": list(self.used_freqs),
        }


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise SingularFit(
                f"calibration {name} is {value!r}: the observations leave the double range"
            )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _check_finite reports it
def calibrate(
    observations: Sequence[tuple[float, int, ModelParams]],
    label: str = "calibrated",
) -> tuple[CoefficientSet, CalibrationDiagnostics]:
    """Estimate a CoefficientSet from observed per-(freq, cores) curve params.

    a2 is the mean observed a2.  (m5, m6, m7) come from ordinary least
    squares of a1 on (f, 1, 5-c).  The a0 structure is recovered in two
    stages: an affine regression of a0 on c within each frequency yields
    g_s(f) (slope) and g_o(f) (intercept); g_s is then fitted quadratically
    in f for (m1, m2, m3), and m4 is the mean of g_s/g_o over the usable
    frequencies.  Each regression is fitting._lstsq.  Raises InvalidParams
    for an operating point TraceMeta would reject, and SingularFit when a
    regression design is rank-deficient or a coefficient or a residual
    summary leaves the double range.
    """
    for f, c, _ in observations:
        _check_operating_point(f, c)
    obs = [(float(f), c, p) for f, c, p in observations]
    freqs = sorted({f for f, _, _ in obs})
    cores_seen = {c for _, c, _ in obs}
    if len(obs) < 8 or len(freqs) < 3 or len(cores_seen) < 2:
        raise InsufficientSpan(
            f"need >= 8 observations over >= 3 frequencies and >= 2 core counts "
            f"(got {len(obs)} observations, {len(freqs)} frequencies, "
            f"{len(cores_seen)} core counts)"
        )

    a2 = float(np.mean([p.a2 for _, _, p in obs]))
    if a2 == 0:
        raise SingularFit("observed a2 values average to zero")

    f_arr, c_arr, a1_arr = np.array([(f, c, p.a1) for f, c, p in obs]).T
    design = np.column_stack([f_arr, np.ones_like(f_arr), 5.0 - c_arr])
    sol, singular = _lstsq(design, a1_arr)
    if singular:
        raise SingularFit("a1 regression design is rank-deficient")
    m5, m6, m7 = sol.tolist()

    # per-frequency affine structure of a0 in c
    gs_list, go_list, used, flat = [], [], [], True
    for f in freqs:
        rows = [(c, p.a0) for ff, c, p in obs if ff == f]
        if len({c for c, _ in rows}) < 2:
            continue
        cs, a0s = np.array(rows).T
        (slope, intercept), _ = _lstsq(np.vander(cs, 2), a0s)  # >= 2 core counts: full rank
        gs_list.append(float(slope))
        go_list.append(float(intercept))
        used.append(f)
        flat &= bool((a0s == a0s[0]).all())
    if len(used) < 3:
        raise SingularFit(
            f"need >= 3 frequencies with >= 2 core counts each to shape g_s(f); "
            f"got {len(used)}"
        )
    sol, singular = _lstsq(np.vander(used, 3), np.array(gs_list))
    if singular:
        raise SingularFit("g_s quadratic design is rank-deficient")
    m3, m2, m1 = sol.tolist()
    ratios = np.array(gs_list) / np.array(go_list)
    if not np.all(np.isfinite(ratios)):
        raise SingularFit("a0 intercept g_o is zero at some frequency")
    m4 = float(np.mean(ratios))
    if flat or m4 == 0 or not math.isfinite(m4):  # flat: every g_s is 0, maybe a few ulps off
        raise SingularFit("degenerate g_s/g_o ratio")

    _check_finite(m1=m1, m2=m2, m3=m3, m5=m5, m6=m6, m7=m7, a2=a2)
    result = CoefficientSet(label, m1, m2, m3, m4, m5, m6, m7, a2)
    a1_res, a0_res = [], []
    for f, c, p in obs:
        derived = derive_params(result, f, c)
        a1_res.append(derived.a1 - p.a1)
        a0_res.append(derived.a0 - p.a0)
    diag = CalibrationDiagnostics(
        n_observations=len(obs),
        a1_rms=float(np.sqrt(np.mean(np.square(a1_res)))),
        a0_rms=float(np.sqrt(np.mean(np.square(a0_res)))),
        a2_spread=float(max(p.a2 for _, _, p in obs) - min(p.a2 for _, _, p in obs)),
        used_freqs=tuple(used),
    )
    _check_finite(a1_rms=diag.a1_rms, a0_rms=diag.a0_rms, a2_spread=diag.a2_spread)
    return result, diag

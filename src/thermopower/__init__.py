"""Temperature/power analysis for CPU measurement traces.

The package models how package power depends on die temperature:

- :mod:`thermopower.trace` — trace CSV parsing, serialization, and a
  seeded synthetic-trace generator;
- :mod:`thermopower.fitting` — linear, quadratic, and exponential fits
  that minimize relative residuals, plus an exact sign test and
  multi-trace model comparison;
- :mod:`thermopower.powermodel` — a coefficient-set model giving power as
  a function of temperature, clock frequency, and active core count, with
  calibration from observed curve parameters;
- :mod:`thermopower.debias` — transforms that move every sample of a
  trace to one reference temperature so temperature bias cancels out;
- :mod:`thermopower.sensor` — correction of temperatures measured by a
  sensor placed away from the hotspot, built on an in-package erf.

The ``thermo`` console script (:mod:`thermopower.cli`) exposes all of the
above with deterministic JSON reports.
"""

__version__ = "0.1.0"

from .errors import (
    AllTies,
    DegenerateInput,
    EmptyGroup,
    EmptyTrace,
    InsufficientSpan,
    InvalidCores,
    InvalidFreq,
    InvalidParams,
    InvalidSample,
    LengthMismatch,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
    NonPositiveTime,
    SingularFit,
    ThermoError,
    ZeroDenominator,
    ZeroMeasurement,
    ZeroSpread,
)
from .trace import (
    Trace,
    TraceMeta,
    generate_synthetic_trace,
    parse_trace,
    parse_traces,
    write_trace,
)
from .fitting import (
    FitKind,
    FitResult,
    ModelComparison,
    aggregate_error,
    compare_models,
    fit,
    fit_batch,
    fit_error,
    fit_exponential,
    fit_linear,
    fit_quadratic,
    sign_test,
)
from .powermodel import (
    CalibrationDiagnostics,
    CoefficientSet,
    ModelParams,
    builtin_set,
    builtin_sets,
    calibrate,
    derive_params,
    evaluate_power,
)
from .debias import (
    DebiasMetrics,
    DebiasSpec,
    DebiasedTrace,
    debias,
    fit_eta,
    metric_afl,
    metric_fl,
    metric_rat,
    write_debiased,
)
from .sensor import (
    SensorModel,
    b_factor,
    correct_series,
    erf,
    model_from_json,
    model_to_json_dict,
)

__all__ = [
    "__version__",
    # errors
    "ThermoError",
    "InvalidSample",
    "MalformedRow",
    "NonMonotonicTime",
    "EmptyTrace",
    "MissingMeta",
    "InvalidParams",
    "DegenerateInput",
    "LengthMismatch",
    "ZeroMeasurement",
    "EmptyGroup",
    "AllTies",
    "InvalidFreq",
    "InvalidCores",
    "InsufficientSpan",
    "SingularFit",
    "ZeroSpread",
    "ZeroDenominator",
    "NonPositiveTime",
    # trace
    "TraceMeta",
    "Trace",
    "parse_trace",
    "parse_traces",
    "write_trace",
    "generate_synthetic_trace",
    # fitting
    "FitKind",
    "FitResult",
    "ModelComparison",
    "fit",
    "fit_batch",
    "fit_linear",
    "fit_quadratic",
    "fit_exponential",
    "fit_error",
    "aggregate_error",
    "sign_test",
    "compare_models",
    # power model
    "ModelParams",
    "CoefficientSet",
    "CalibrationDiagnostics",
    "derive_params",
    "evaluate_power",
    "builtin_set",
    "builtin_sets",
    "calibrate",
    # debias
    "DebiasSpec",
    "DebiasMetrics",
    "DebiasedTrace",
    "debias",
    "fit_eta",
    "metric_afl",
    "metric_fl",
    "metric_rat",
    "write_debiased",
    # sensor
    "SensorModel",
    "erf",
    "b_factor",
    "correct_series",
    "model_from_json",
    "model_to_json_dict",
]

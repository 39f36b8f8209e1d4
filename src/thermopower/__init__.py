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
above with deterministic JSON reports.  ``import thermopower`` loads no
submodule: each loads the first time one of its names is looked up.
"""

__version__ = "0.1.0"

import sys
from importlib import import_module
from types import ModuleType

# each public name by the submodule that defines it, in __all__'s order;
# a submodule is imported the first time one of its names is looked up
_SUBMODULES = {
    "errors": (
        "ThermoError", "InvalidSample", "MalformedRow", "NonMonotonicTime", "EmptyTrace",
        "MissingMeta", "InvalidParams", "DegenerateInput", "LengthMismatch",
        "ZeroMeasurement", "EmptyGroup", "AllTies", "InvalidFreq", "InvalidCores",
        "InsufficientSpan", "SingularFit", "ZeroSpread", "ZeroDenominator", "NonPositiveTime",
    ),
    "trace": (
        "TraceMeta", "Trace", "parse_trace", "parse_traces", "write_trace",
        "generate_synthetic_trace",
    ),
    "fitting": (
        "FitKind", "FitResult", "ModelComparison", "fit", "fit_batch", "fit_linear",
        "fit_quadratic", "fit_exponential", "fit_error", "aggregate_error", "sign_test",
        "compare_models",
    ),
    "powermodel": (
        "ModelParams", "CoefficientSet", "CalibrationDiagnostics", "derive_params",
        "evaluate_power", "builtin_set", "builtin_sets", "calibrate",
    ),
    "debias": (
        "DebiasSpec", "DebiasMetrics", "DebiasedTrace", "debias", "fit_eta", "metric_afl",
        "metric_fl", "metric_rat", "write_debiased",
    ),
    "sensor": (
        "SensorModel", "erf", "b_factor", "correct_series", "model_from_json",
        "model_to_json_dict",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    if name in _SUBMODULES:  # the import binds it here, as it does any submodule
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing thermopower.debias binds the module to the package's
        # `debias`, which names the function defined in it
        if name in _EXPORTS and value is sys.modules.get(f"{__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

"""Traced run of one ``thermo`` command, and the per-layer numbers from it.

Run as a script, it executes ``thermopower.cli.main(argv)`` in this fresh
process with a span recorder wrapped around the package's public
functions, then writes the spans as JSON:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- fit a.csv b.csv --json

Spans are taken from outside the program.  Every public function that
``cli`` (or another package module) imports from a sibling module is
replaced in the importing namespace by a timing wrapper, so a call from
``cli`` into ``parse_trace`` or from ``debias`` into ``fit_exponential``
becomes a span with a name, start, end and parent.  ``compare_models``
calls its fits through a private table the wrapper cannot reach, so after
``main`` returns the recorder replays those calls (every fit family on
each parsed trace, then the pooled errors, then the sign tests, in
compare_models' order) as spans under a ``replay`` root.  Calls that stay
inside one module and run per sample (``b_factor`` in ``correct_series``,
``derive_params`` in ``calibrate``) are counted, not timed.

The analysis functions below turn span files into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

# size attributes recorded after a span ends, so they cost no span time
ATTRS = {
    "trace.parse_trace": lambda args, r: {"rows": len(r)},
    "trace.parse_table": lambda args, r: {"rows": len(r[2])},
    "trace.write_trace": lambda args, r: {"bytes": len(r.encode("utf-8"))},
    "fitting.fit_exponential": lambda args, r: {"iterations": r.iterations, "converged": r.converged},
    "fitting.aggregate_error": lambda args, r: {"samples": sum(len(t) for t, _ in args[0])},
    "fitting.sign_test": lambda args, r: {"n": len(args[0])},
    "debias.debias": lambda args, r: {"samples": len(args[0])},
    "sensor.correct_series": lambda args, r: {"samples": len(args[1])},
}
COUNTED = (("sensor", "b_factor"), ("powermodel", "derive_params"))


class Recorder:
    """Spans kept in memory as [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.parsed: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}]
            self.spans.append(span)
            self._stack.append(sid)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = perf_counter()
                self._stack.pop()
                span[4] = {"error": type(exc).__name__}
                raise
            span[3] = perf_counter()
            self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            if name == "trace.parse_trace":
                self.parsed.append(result)
            return result

        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted


def _layer(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


MODULES = ("cli", "debias", "fitting", "powermodel", "sensor", "trace")


def _module(name: str):
    # by import path: the package namespace rebinds `debias` to the function
    return importlib.import_module(f"thermopower.{name}")


def install(rec: Recorder) -> None:
    """Wrap the cross-module public function imports of every package module."""
    for mod in map(_module, MODULES):
        for attr, obj in list(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__.startswith("thermopower.")
                and obj.__module__ != mod.__name__
            ):
                setattr(mod, attr, rec.wrap(_layer(obj), obj))
    for modname, attr in COUNTED:
        mod = _module(modname)
        setattr(mod, attr, rec.counter(f"{modname}.{attr}", getattr(mod, attr)))


def replay(rec: Recorder, traces) -> None:
    """Time compare_models' inner calls directly, on the same traces, in its order."""
    fitting = _module("fitting")
    fitters = [
        (kind, rec.wrap(_layer(fn), fn))
        for kind, fn in (
            ("linear", fitting.fit_linear),
            ("quadratic", fitting.fit_quadratic),
            ("exponential", fitting.fit_exponential),
        )
    ]
    aggregate = rec.wrap("fitting.aggregate_error", fitting.aggregate_error)
    sign_test = rec.wrap("fitting.sign_test", fitting.sign_test)
    rows = []
    for tr in traces:
        row = {}
        for kind, fit in fitters:
            try:
                row[kind] = fit(tr)
            except Exception:  # compare_models records and excludes every failure
                row[kind] = None
        rows.append(row)
    for kind, _ in fitters:
        group = [(tr, row[kind]) for tr, row in zip(traces, rows) if row[kind] is not None]
        if group:
            aggregate(group)
    for a, b in (("exponential", "quadratic"), ("quadratic", "linear"), ("exponential", "linear")):
        both = [row for row in rows if row[a] is not None and row[b] is not None]
        if both:
            try:
                sign_test([r[a].error for r in both], [r[b].error for r in both])
            except fitting.AllTies:
                pass


def run(spans_path: str, argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    main = rec.wrap("cli.main", _module("cli").main)
    code = 2
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if any(span[0] == "fitting.compare_models" for span in rec.spans):
            traces = rec.parsed
            root = rec.wrap("replay", replay)
            root(rec, traces)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    return code


# --- analysis (parent side) ---

def self_time(spans: list, sid: int, children: dict[int, list[int]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    _, _, start, end, _ = spans[sid]
    covered, reach = 0.0, start
    for cstart, cend in sorted((spans[c][2], spans[c][3]) for c in children.get(sid, ())):
        lo, hi = max(cstart, reach), min(cend, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def command_summary(doc: dict, wall_s: float) -> dict:
    """Busy time, calls and summed attributes per span name for one command."""
    spans = doc["spans"]
    children: dict[int, list[int]] = {}
    for sid, span in enumerate(spans):
        if span[1] is not None:
            children.setdefault(span[1], []).append(sid)
    names: dict[str, dict] = {}
    for name, _, start, end, attrs in spans:
        entry = names.setdefault(name, {"busy_s": 0.0, "calls": 0, "failed": 0})
        entry["busy_s"] += end - start
        entry["calls"] += 1
        if "error" in attrs:
            entry["failed"] += 1
        for key, value in attrs.items():
            if key == "n":
                entry["n"] = max(entry.get("n", 0), value)
            elif key != "error":
                entry[key] = entry.get(key, 0) + value
    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    replayed = sum(
        spans[c][3] - spans[c][2]
        for r, s in enumerate(spans) if s[0] == "replay" for c in children.get(r, ())
    )
    compare = names.get("fitting.compare_models", {}).get("busy_s", 0.0)
    return {
        "names": names,
        "counts": doc["counts"],
        "main_self_s": self_time(spans, main, children),
        "compare_self_s": compare - replayed if compare else 0.0,
        "replay_s": names.get("replay", {}).get("busy_s", 0.0),
        "wall_s": wall_s,
        "unattributed_s": wall_s - (spans[main][3] - spans[main][2]),
    }


def pass_metrics(commands: list[dict]) -> dict:
    """Per-layer metrics of one pass, from its commands' summaries."""
    names: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for cmd in commands:
        for name, entry in cmd["names"].items():
            total = names.setdefault(name, {})
            for key, value in entry.items():
                total[key] = max(total.get(key, 0), value) if key == "n" else total.get(key, 0) + value
        for name, value in cmd["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def get(name, key="busy_s"):
        return names.get(name, {}).get(key, 0.0 if key == "busy_s" else 0)

    def us_per(name, key):
        size = get(name, key)
        return get(name) / size * 1e6 if size else 0.0

    def calls(name):
        return get(name, "calls") + counts.get(name, 0)

    exp_calls = get("fitting.fit_exponential", "calls")
    return {
        "trace.parse_trace.busy_s": get("trace.parse_trace"),
        "trace.parse_trace.us_per_row": us_per("trace.parse_trace", "rows"),
        "trace.parse_table.busy_s": get("trace.parse_table"),
        "trace.write_trace.busy_s": get("trace.write_trace"),
        "trace.generate_synthetic_trace.busy_s": get("trace.generate_synthetic_trace"),
        "trace.bytes_written": get("trace.write_trace", "bytes"),
        "fitting.fit_exponential.busy_s": get("fitting.fit_exponential"),
        "fitting.fit_exponential.calls": exp_calls,
        "fitting.fit_exponential.iterations": get("fitting.fit_exponential", "iterations"),
        "fitting.fit_exponential.converged_ratio": (
            get("fitting.fit_exponential", "converged") / exp_calls if exp_calls else 0.0
        ),
        "fitting.fit_exponential.failed": get("fitting.fit_exponential", "failed"),
        "fitting.fit_linear.busy_s": get("fitting.fit_linear"),
        "fitting.fit_quadratic.busy_s": get("fitting.fit_quadratic"),
        "fitting.aggregate_error.busy_s": get("fitting.aggregate_error"),
        "fitting.aggregate_error.samples": get("fitting.aggregate_error", "samples"),
        "fitting.sign_test.busy_s": get("fitting.sign_test"),
        "fitting.sign_test.n": get("fitting.sign_test", "n"),
        "fitting.compare_models.self_s": sum(c["compare_self_s"] for c in commands),
        "powermodel.derive_params.calls": calls("powermodel.derive_params"),
        "powermodel.calibrate.busy_s": get("powermodel.calibrate"),
        "debias.fit_eta.busy_s": get("debias.fit_eta"),
        "debias.debias.busy_s": get("debias.debias"),
        "debias.debias.us_per_sample": us_per("debias.debias", "samples"),
        "debias.write_debiased.busy_s": get("debias.write_debiased"),
        "sensor.correct_series.busy_s": get("sensor.correct_series"),
        "sensor.correct_series.us_per_sample": us_per("sensor.correct_series", "samples"),
        "sensor.b_factor.calls": calls("sensor.b_factor"),
        "sensor.model_from_json.busy_s": get("sensor.model_from_json"),
        "cli.main.self_s": sum(c["main_self_s"] for c in commands),
    }


def import_split(stderr: str) -> tuple[float, float]:
    """(numpy, thermopower without numpy) cumulative seconds from -X importtime."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            name = parts[2].strip()
            if name in ("numpy", "thermopower.cli") and name not in cumulative:
                cumulative[name] = int(parts[1]) / 1e6
    numpy_s = cumulative["numpy"]
    return numpy_s, cumulative["thermopower.cli"] - numpy_s


if __name__ == "__main__":
    sep = sys.argv.index("--")
    sys.exit(run(sys.argv[1], sys.argv[sep + 1:]))

"""Command-line front end.

Subcommands: fit, model eval, model calibrate, debias, sensor-correct, gen.
Every run produces a report {schema, tool, command, inputs, results,
warnings}; --json prints it instead of the human summary.  Reports are
strict JSON with sorted keys and a 2-space indent, non-finite numbers
written as null.
Output is byte-deterministic for fixed inputs and flags: reports carry no
timestamps, input files are identified by content digest, and ANSI styling
is dropped when stdout is not a terminal or THERMO_NO_COLOR is set.

Exit codes: 0 success; 1 computation failed (a partial report is still
emitted); 2 usage, I/O, or input-format error (message on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import reprlib
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .debias import DebiasSpec, _debiased_table, debias, fit_eta
from .errors import (
    EmptyTrace,
    InvalidParams,
    InvalidSample,
    MalformedRow,
    MissingMeta,
    NonMonotonicTime,
    NonPositiveTime,
    ThermoError,
)
from .fitting import FitKind, FitResult, compare_models, fit_batch
from .powermodel import (
    CoefficientSet,
    ModelParams,
    builtin_set,
    calibrate,
    derive_params,
)
from .sensor import SensorModel, b_factor, correct_series, model_from_json
from .trace import (
    SLAB_BYTES,
    TraceMeta,
    _json_number,
    _table_text,
    _trace_table,
    generate_synthetic_trace,
    parse_table,
    parse_trace,
    parse_traces,
)

_MODEL_FLAGS = {"linear": FitKind.LINEAR, "quad": FitKind.QUADRATIC, "exp": FitKind.EXPONENTIAL}


def _styled(text: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("THERMO_NO_COLOR"):
        return f"\x1b[1m{text}\x1b[0m"
    return text


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


_KIND_TEXT = {kind: encode_basestring_ascii(kind.value) for kind in FitKind}
_string_text = functools.lru_cache(maxsize=64)(encode_basestring_ascii)  # terminations


def _fit_values(fit: FitResult) -> list[str]:
    """What fills the slots of fit's _template: the values of the dict of
    its fields, keys sorted."""
    coeffs, error = fit.coeffs, fit.error
    # float.__repr__ writes a finite float as _float does, with no call in Python
    write = float.__repr__ if all(map(math.isfinite, (*coeffs, error))) else _float
    return [*map(write, coeffs), "true" if fit.converged else "false", write(error),
            int.__repr__(fit.iterations), _KIND_TEXT[fit.kind], _string_text(fit.termination)]


def _layout(obj, slots: list):
    """Append the text of each scalar in obj to slots, in the order _text
    writes them, and return obj's layout: None for a scalar, a FitResult's
    coefficient count, or a tuple of "[" and a list's member layouts, or of
    "{" and a dict's keys, each followed by its member's layout."""
    if isinstance(obj, str):
        slots.append(encode_basestring_ascii(obj))
        return None
    if isinstance(obj, dict):
        layout = ["{"]
        for key in sorted(obj):
            layout += key, _layout(obj[key], slots)
        return tuple(layout)
    if isinstance(obj, FitResult):
        slots += _fit_values(obj)
        return len(obj.coeffs)
    if isinstance(obj, (list, tuple)):
        return ("[", *[_layout(value, slots) for value in obj])
    if isinstance(obj, float):
        slots.append(_float(obj))
    elif obj is None:
        slots.append("null")
    elif obj is True or obj is False:
        slots.append("true" if obj else "false")
    elif isinstance(obj, int):
        slots.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return None


@functools.lru_cache(maxsize=1024)
def _template(layout, nl: str) -> tuple[str, int]:
    """The %-format that writes a value of this _layout at nl from the
    slots _layout filled, and the length of the text it writes besides
    them."""
    if layout is None:
        template = "%s"
    elif type(layout) is int:  # a FitResult of that many coefficients
        return _template(("{", "coeffs", ("[", *[None] * layout), "converged", None, "error",
                          None, "iterations", None, "kind", None, "termination", None), nl)
    else:
        inner = nl + "  "
        if layout[0] == "[":
            members = [_template(member, inner)[0] for member in layout[1:]]
        else:  # encode_basestring_ascii raises TypeError on a key that is not a str
            members = [encode_basestring_ascii(key).replace("%", "%%") + ": "
                       + _template(member, inner)[0]
                       for key, member in zip(layout[1::2], layout[2::2])]
        closing = "]" if layout[0] == "[" else "}"
        template = (layout[0] + inner + ("," + inner).join(members) + nl + closing
                    if members else layout[0] + closing)
    # each slot is "%s", and each "%" of the text "%%"
    return template, len(template.replace("%%", "-").replace("%s", ""))


def _text(obj, nl: str = "\n") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, but with
    non-finite floats as null, so reports stay strict JSON, and a FitResult
    as the dict of its fields.  nl is a newline and the indent of the line
    obj starts on.  One % fills obj's _template with its _layout's slots."""
    slots: list[str] = []
    return _template(_layout(obj, slots), nl)[0] % tuple(slots)


def _chunks(obj, nl: str = "\n", depth: int = 3):
    """_text(obj, nl) in pieces, so a report is never held as one string:
    lists and dicts down to depth levels are walked a member at a time,
    and their text goes out in runs, each filled by one % and ending once
    it holds SLAB_BYTES of text (one member more at most)."""
    if depth == 0 or not isinstance(obj, (list, tuple, dict)) or not obj:
        yield _text(obj, nl)
        return
    run, slots = [], []
    yield from _runs(obj, nl, depth, run, slots, 0)
    yield "".join(run) % tuple(slots)


def _runs(obj, nl: str, depth: int, run: list, slots: list, size: int):
    """Add the text of obj, a nonempty list or dict, at nl to the run that
    holds size characters: its formats to run and its slots to slots.
    Yield each run that reaches SLAB_BYTES and start the next; return the
    size of the run left."""
    inner, sep = nl + "  ", "," + nl + "  "
    if isinstance(obj, dict):
        # encode_basestring_ascii raises TypeError on a key that is not a str
        members = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(obj.items())]
        lead, closing = "{" + inner, nl + "}"
    else:
        members = [("", v) for v in obj]
        lead, closing = "[" + inner, nl + "]"
    for key, value in members:
        mark = len(slots)
        slots.append(lead + key)  # what comes before the member fills a slot
        if depth > 1 and isinstance(value, (list, tuple, dict)) and value:
            run.append("%s")
            size = yield from _runs(value, inner, depth - 1, run, slots, size + len(slots[-1]))
        else:
            template, fixed = _template(_layout(value, slots), inner)
            run += "%s", template
            size += fixed + sum(map(len, slots[mark:]))
        if size >= SLAB_BYTES:
            yield "".join(run) % tuple(slots)
            run.clear()
            slots.clear()
            size = 0
        lead = sep
    run.append("%s")
    slots.append(closing)
    return size + len(closing)


class _Run:
    """Collects report material for one invocation."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.inputs: dict[str, str] = {}
        self.warnings: list[str] = []
        self.source: str | None = None  # the file being parsed, if any

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb", buffering=0) as fh:  # one read: a buffer is a copy
            data = fh.read()
        self.inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
        return data

    def parse(self, path: str, parser):
        """parser(the bytes of path); if it raises, source is left naming path."""
        data = self.read_bytes(path)
        self.source = path
        result = parser(data)
        self.source = None
        return result

    def report(self, results) -> dict:
        return {
            "schema": 1,
            "tool": {"name": "thermo", "version": __version__},
            "command": self.argv,
            "inputs": self.inputs,
            "results": results,
            "warnings": self.warnings,
        }


def _emit(args, report: dict, human_lines: list[str], code: int) -> int:
    """Write the report to stdout with --json and to --out-report, else
    print the human lines; return code.  If a write, or the file's close,
    fails, print the error naming the file, or stdout, and return 2; when
    only stdout fails, the file still gets the whole report, and when only
    the file fails, stdout does."""
    sink = args.out_report  # the file being opened, then the sink last written
    try:
        with contextlib.ExitStack() as stack:
            sinks = [sys.stdout] if args.json else []
            if args.out_report:
                sinks.insert(0, stack.enter_context(open(args.out_report, "w", encoding="utf-8")))
            # serialize once, streaming each piece to every sink: written
            # as one string, a 4000-trace report raised peak RSS by a quarter
            pieces = itertools.chain(_chunks(report), "\n")
            try:
                for chunk in pieces if sinks else ():
                    for sink in sinks:
                        sink.write(chunk)
            except OSError:  # if stdout, written last, failed, the file takes the rest
                if sink is sys.stdout and args.out_report:
                    sinks[0].writelines(pieces)
                raise
            sink = args.out_report  # the file writes the end of its buffer as it closes
        sink = sys.stdout
        if not args.json and not args.quiet:
            for line in human_lines:
                print(line)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except OSError as exc:
        print(f"error: {'stdout' if sink is sys.stdout else args.out_report}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        try:
            sys.stdout.flush()  # what stdout holds, when the file failed
        except OSError:  # the flush at exit would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    return code


def _write_file(path: str, pieces, digest=None) -> None:
    """Write the text pieces to path, and to the hash digest if given, a
    piece at a time.  An OSError's message names path."""
    try:
        with open(path, "wb") as fh:
            for data in map(str.encode, pieces):
                fh.write(data)
                if digest is not None:
                    digest.update(data)
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from None


def _write_plot(path: str, temps, powers) -> None:
    """(temp, power) rows sorted by temperature, then by power."""
    temps, powers = np.asarray(temps, float), np.asarray(powers, float)
    order = np.lexsort((powers, temps))
    _write_file(path, _table_text({}, ("temp_c", "power_w"), (temps[order], powers[order])))


# --- fit ---

def _parse_chunk(paths: list[str], texts: list[bytes], run: _Run) -> list:
    try:
        return parse_traces(texts)
    except (ThermoError, ValueError):
        for run.source, text in zip(paths, texts):  # the first bad text fails again, named
            parse_trace(text)
        raise


def _read_traces(paths: list[str], run: _Run) -> list:
    """run.parse(p, parse_trace) of each path, but read into chunks of up
    to SLAB_BYTES of input (a whole fleet at once costs a third more RSS),
    at least one file each, that parse_traces parses together.  Each file
    is read once: a chunk that fails is parsed again from memory one file
    at a time, so the first bad path in order fails as it would alone,
    before any file that cannot be read."""
    traces, texts, first, size = [], [], 0, 0
    for i, path in enumerate(paths):
        try:
            data = run.read_bytes(path)
        except OSError:
            _parse_chunk(paths[first:i], texts, run)
            raise
        if texts and size + len(data) > SLAB_BYTES:
            traces += _parse_chunk(paths[first:i], texts, run)
            texts, first, size = [], i, 0
        texts.append(data)
        size += len(data)
    return traces + _parse_chunk(paths[first:], texts, run)


def cmd_fit(args, run: _Run) -> tuple[int, dict, list[str]]:
    traces = _read_traces(args.traces, run)
    human = not args.json and not args.quiet  # else the lines go unprinted
    lines = []
    failed = False

    if args.model == "all":
        groups: dict[str, list[int]] | None = None
        if args.group_by == "proc-cores":
            groups = {}
            for i, tr in enumerate(traces):
                groups.setdefault(f"{tr.meta.processor}/c{tr.meta.cores}", []).append(i)
        cmp = compare_models(traces, groups)
        names = [kind.value for kind in FitKind]  # each row's keys, in order
        per_trace = [{"path": path, "fits": dict(zip(names, row.values()))}
                     for path, row in zip(args.traces, cmp.results)]
        results = {
            "traces": per_trace,
            "aggregated": {k.value: v for k, v in cmp.aggregated.items()},
            "sign_tests": {
                f"{a.value}_vs_{b.value}": p for (a, b), p in cmp.p_values.items()
            },
            "failures": [
                {"trace": args.traces[i], "kind": kind.value, "message": msg}
                for i, kind, msg in cmp.failures
            ],
        }
        failed = bool(cmp.failures)
        if groups is not None:
            results["groups"] = {
                key: {kind.value: error for kind, error in errors.items()}
                for key, errors in sorted(cmp.groups.items())
            }
        for entry in per_trace if human else ():
            lines.append(_styled(entry["path"]))
            for kind_name, r in entry["fits"].items():
                if r is None:
                    lines.append(f"  {kind_name}: failed")
                else:
                    lines.append(f"  {kind_name}: error={r.error!r} coeffs={list(r.coeffs)!r}")
        lines.append(
            "aggregated: "
            + " ".join(f"{k}={v!r}" for k, v in results["aggregated"].items())
        )
        lines.append(
            "sign tests: "
            + " ".join(f"{k} p={v!r}" for k, v in results["sign_tests"].items())
        )
        kind, plot_source = FitKind.EXPONENTIAL, cmp.results[0][FitKind.EXPONENTIAL]
    else:
        kind = _MODEL_FLAGS[args.model]
        per_trace = []
        fits = fit_batch(traces, kind)
        plot_source = fits[0]
        for path, r in zip(args.traces, fits):
            if isinstance(r, Exception):
                per_trace.append(
                    {"path": path, "fits": {kind.value: None},
                     "message": f"{type(r).__name__}: {r}"}
                )
                failed = True
                if human:
                    lines.append(f"{path}: {kind.value} failed: {r}")
                continue
            per_trace.append({"path": path, "fits": {kind.value: r}})
            if human:
                lines.append(f"{path}: error={r.error!r} coeffs={list(r.coeffs)!r}")
        results = {"traces": per_trace}

    if args.plot and not isinstance(plot_source, FitResult):  # an older file there stays
        run.warnings.append(f"no plot written: the {kind.value} fit of {args.traces[0]} failed")
        lines.append(run.warnings[-1])
    elif args.plot:
        temps = traces[0].temp_c
        _write_plot(args.plot, temps, plot_source.predict(temps))
    return (1 if failed else 0), results, lines


# --- model eval / calibrate ---

def _load_coeffs(args, run: _Run) -> CoefficientSet:
    if args.coeffs:
        return run.parse(args.coeffs, lambda data: CoefficientSet.from_dict(json.loads(data)))
    return builtin_set(args.proc)


def cmd_model_eval(args, run: _Run) -> tuple[int, dict, list[str]]:
    coeffs = _load_coeffs(args, run)
    params = derive_params(coeffs, args.freq, args.cores)
    power = params.power(args.temp)
    results = {
        "label": coeffs.label,
        "temp_c": args.temp,
        "freq_ghz": args.freq,
        "cores": args.cores,
        "params": {"a0": params.a0, "a1": params.a1, "a2": params.a2},
        "power_w": power,
    }
    return 0, results, [repr(power)]


def _observation(entry):
    if not isinstance(entry, dict):
        raise InvalidParams(f"an observation must be an object, got {reprlib.repr(entry)}")
    needs = "an observation needs a number of GHz and a whole number of cores"
    freq, cores, a0, a1, a2 = (_json_number(entry, key, f"{needs}, and its fields")
                               for key in ("freq_ghz", "cores", "a0", "a1", "a2"))
    if not cores.is_integer():
        raise InvalidParams(f"{needs}, got cores {cores!r}")
    return freq, int(cores), ModelParams(a0, a1, a2)


def _observation_list(data: bytes):
    raw = json.loads(data)
    if not isinstance(raw, list):
        raise InvalidParams("a single observations file must hold a JSON list")
    return [_observation(entry) for entry in raw]


def _load_observations(path: str, run: _Run):
    p = Path(path)
    if not p.is_dir():
        return run.parse(path, _observation_list)
    files = sorted(f for f in p.iterdir() if f.suffix == ".json")
    return [run.parse(str(f), lambda data: _observation(json.loads(data))) for f in files]


def cmd_model_calibrate(args, run: _Run) -> tuple[int, dict, list[str]]:
    obs = _load_observations(args.observations, run)
    coeffs, diag = calibrate(obs, label=args.label)
    results = {"coeffs": coeffs.to_dict(), "diagnostics": diag.to_dict()}
    if args.out:
        _write_file(args.out, (_text(coeffs.to_dict()), "\n"))
        results["output"] = args.out
    lines = [
        f"label: {coeffs.label}",
        "m: " + " ".join(repr(v) for v in coeffs.m),
        f"a2: {coeffs.a2!r}",
        f"residuals: a1_rms={diag.a1_rms!r} a0_rms={diag.a0_rms!r}",
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    return 0, results, lines


# --- debias ---

def cmd_debias(args, run: _Run) -> tuple[int, dict, list[str]]:
    trace = run.parse(args.trace, parse_trace)
    kind = _MODEL_FLAGS[args.kind]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.eta:
            spec = DebiasSpec(kind, tuple(args.eta), args.ref_temp)
        else:
            spec = fit_eta(trace, kind, args.ref_temp)
        result = debias(trace, spec)
    run.warnings.extend(str(w.message) for w in caught)

    _write_file(args.out, _table_text(*_debiased_table(result)))
    if args.plot:
        _write_plot(args.plot, trace.temp_c, result.ref_power)
    m = result.metrics
    results = {
        "spec": {"kind": kind.value, "eta": list(spec.eta), "ref_temp_c": spec.ref_temp},
        "metrics": {"afl_percent": m.afl, "fl": m.fl, "rat": m.rat},
        "output": args.out,
    }
    lines = [
        f"afl={m.afl!r}% fl={m.fl!r} rat={m.rat!r}",
        f"wrote {args.out}",
    ]
    return 0, results, lines


# --- sensor-correct ---

def _slopes(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The left and right slopes of each triple of consecutive points sorted
    by x, then y, leaving out triples whose x are not distinct.  The second
    divided difference has the sign of right - left, which comparing them
    gives with no inf - inf; slopes of one infinity, or a NaN, give none."""
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    y0, y1, y2 = y[:-2], y[1:-1], y[2:]
    keep = (x0 < x1) & (x1 < x2)
    x0, x1, x2, y0, y1, y2 = (v[keep] for v in (x0, x1, x2, y0, y1, y2))
    with np.errstate(over="ignore", invalid="ignore"):  # inf/inf is NaN
        return (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)


def _fraction(hits: np.ndarray):
    return int(hits.sum()) / len(hits) if len(hits) else None


def _series_table(data: bytes):
    table = parse_table(data)
    if len(table[2]) == 0:
        raise EmptyTrace("a series needs at least 1 sample, got 0")
    return table


def cmd_sensor_correct(args, run: _Run) -> tuple[int, dict, list[str]]:
    _, columns, rows, _ = run.parse(args.series, _series_table)
    if columns[:2] != ["time_s", "temp_c"] or len(columns) > 3 or (
        len(columns) == 3 and columns[2] != "power_w"
    ):
        raise ValueError(f"{args.series}: expected columns time_s,temp_c[,power_w], "
                         f"got {reprlib.repr(columns)}")
    if args.model_json:
        model = run.parse(args.model_json, model_from_json)
    else:
        missing = [
            flag
            for flag, val in (
                ("--alpha", args.alpha),
                ("--a", args.a),
                ("--b", args.b),
                ("--t-init", args.t_init),
                ("--t-inf", args.t_inf),
            )
            if val is None
        ]
        if missing:
            raise ValueError(
                "sensor model needs --model-json or all of "
                "--alpha --a --b --t-init --t-inf (missing: " + " ".join(missing) + ")"
            )
        model = SensorModel(args.alpha, args.a, args.b, args.t_init, args.t_inf)

    corrected = correct_series(model, rows[:, :2])
    times, temps = corrected[:, 0], corrected[:, 1]
    _write_file(args.out, _table_text({}, ("time_s", "temp_c"), (times, temps)))

    results = {
        "n_samples": len(corrected),
        "b_first": b_factor(model, float(times[0])),
        "b_last": b_factor(model, float(times[-1])),
        "output": args.out,
    }
    if len(columns) == 3 and len(rows) >= 3:
        powers = rows[:, 2]
        left, right = _slopes(rows[:, 1], powers)
        fixed_left, fixed_right = _slopes(temps, powers)
        results["convexity"] = {
            "raw_negative_fraction": _fraction(right < left),
            "corrected_positive_fraction": _fraction(fixed_right > fixed_left),
        }
    lines = [
        f"B(first)={results['b_first']!r} B(last)={results['b_last']!r}",
        f"wrote {args.out}",
    ]
    return 0, results, lines


# --- gen ---

def cmd_gen(args, run: _Run) -> tuple[int, dict, list[str]]:
    meta = TraceMeta(args.processor, args.freq, args.cores)
    lo, hi, count = args.sweep
    if not count.is_integer():  # False for inf and nan as well
        raise InvalidParams(f"--sweep COUNT must be a whole number, got {count!r}")
    try:
        trace = generate_synthetic_trace(
            meta,
            tuple(args.params),
            (lo, hi, int(count)),
            noise=args.noise,
            quantum=args.quantum,
            seed=args.seed,
        )
    except MemoryError:
        raise InvalidParams(
            f"--sweep COUNT {int(count)} is more samples than fit in memory"
        ) from None
    sha = hashlib.sha256()
    _write_file(args.out, _table_text(*_trace_table(trace)), sha)
    digest = "sha256:" + sha.hexdigest()
    results = {"output": args.out, "sha256": digest, "n_samples": len(trace)}
    return 0, results, [digest]


# --- argument parsing ---

def _csv_floats(count=None):
    """An argparse type for comma-separated floats, ``count`` of them if given."""

    def parse(text):
        parts = text.split(",")
        if count is not None and len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated values")
        return [float(p) for p in parts]

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermo",
        description="Temperature/power trace analysis: curve fits, the "
        "frequency/core-count power model, temperature-bias cancellation, "
        "and distant-sensor correction.",
    )
    parser.add_argument("--version", action="version", version=f"thermo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the JSON report")
        p.add_argument("--quiet", action="store_true", help="suppress the human summary")
        p.add_argument(
            "--out-report", metavar="PATH", help="also write the JSON report to PATH"
        )

    p = sub.add_parser("fit", help="fit temperature/power curves to traces")
    p.add_argument("traces", nargs="+", metavar="TRACE")
    p.add_argument("--model", choices=["linear", "quad", "exp", "all"], default="all")
    p.add_argument("--group-by", choices=["none", "proc-cores"], default="none")
    p.add_argument("--plot", metavar="PATH",
                   help="write temp/fitted-power CSV of the first trace's --model fit "
                   "(its exponential fit with --model all)")
    common(p)
    p.set_defaults(handler=cmd_fit)

    pm = sub.add_parser("model", help="evaluate or calibrate the power model")
    msub = pm.add_subparsers(dest="model_command", required=True)

    p = msub.add_parser("eval", help="evaluate model power at (temp, freq, cores)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--proc", help="built-in coefficient set label (A7 or A15)")
    src.add_argument("--coeffs", metavar="PATH", help="coefficient-set JSON file")
    p.add_argument("--temp", type=float, required=True, help="temperature in Celsius")
    p.add_argument("--freq", type=float, required=True, help="frequency in GHz")
    p.add_argument("--cores", type=int, required=True, help="active cores (1..4)")
    common(p)
    p.set_defaults(handler=cmd_model_eval)

    p = msub.add_parser("calibrate", help="fit a coefficient set from observations")
    p.add_argument(
        "observations",
        help="directory of observation JSON files, or one file with a JSON list",
    )
    p.add_argument("--label", default="calibrated")
    p.add_argument("--out", metavar="PATH", help="write the coefficient-set JSON")
    common(p)
    p.set_defaults(handler=cmd_model_calibrate)

    p = sub.add_parser("debias", help="transform a trace to a reference temperature")
    p.add_argument("trace", metavar="TRACE")
    p.add_argument("--ref-temp", type=float, required=True, help="reference temp (C)")
    p.add_argument("--kind", choices=["linear", "quad", "exp"], default="quad")
    p.add_argument(
        "--eta",
        type=_csv_floats(),
        help="use these coefficients instead of fitting (comma separated)",
    )
    p.add_argument("--out", metavar="PATH", required=True, help="transformed CSV path")
    p.add_argument("--plot", metavar="PATH", help="write temp/transformed-power CSV")
    common(p)
    p.set_defaults(handler=cmd_debias)

    p = sub.add_parser("sensor-correct", help="correct a distant-sensor series")
    p.add_argument("series", metavar="CSV", help="time_s,temp_c[,power_w] input")
    p.add_argument("--model-json", metavar="PATH", help="sensor model JSON sidecar")
    p.add_argument("--alpha", type=float, help="thermal diffusivity")
    p.add_argument("--a", type=float, help="sensor distance parameter")
    p.add_argument("--b", type=float, help="hotspot time constant (s)")
    p.add_argument("--t-init", type=float, help="applied source temperature")
    p.add_argument("--t-inf", type=float, help="far-field initial temperature")
    p.add_argument("--out", metavar="PATH", required=True, help="corrected CSV path")
    common(p)
    p.set_defaults(handler=cmd_sensor_correct)

    p = sub.add_parser("gen", help="generate a synthetic exponential trace")
    p.add_argument("--params", type=_csv_floats(3), required=True, metavar="A0,A1,A2")
    p.add_argument("--sweep", type=_csv_floats(3), required=True, metavar="LO,HI,COUNT")
    p.add_argument("--noise", type=float, default=0.0, help="gaussian noise std (W)")
    p.add_argument("--quantum", type=float, default=0.0, help="power rounding step (W)")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    p.add_argument("--processor", default="SYN")
    p.add_argument("--freq", type=float, default=1.0, help="metadata freq (GHz)")
    p.add_argument("--cores", type=int, default=4, help="metadata core count")
    p.add_argument("--out", metavar="PATH", required=True, help="trace CSV path")
    common(p)
    p.set_defaults(handler=cmd_gen)

    return parser


_INPUT_ERRORS = (OSError, ValueError, KeyError)  # ValueError covers json.JSONDecodeError
# errors in what the user supplied, not failures of a computation
_INPUT_STAGE = (MalformedRow, EmptyTrace, MissingMeta, InvalidSample, InvalidParams,
                NonPositiveTime, NonMonotonicTime)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(argv)
    # a command's objects live until it ends: the cyclic collector's passes
    # over them (some 175 on a 4000-trace fit) free nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        code, results, lines = args.handler(args, run)
    except _INPUT_ERRORS as exc:
        # str(KeyError) wraps its message in quotes; unwrap for readability
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        where = "" if run.source is None else f"{run.source}: "
        print(f"error: {where}{msg}", file=sys.stderr)
        return 2
    except ThermoError as exc:
        if run.source is not None or isinstance(exc, _INPUT_STAGE):
            command = " ".join(filter(None, (args.command, getattr(args, "model_command", None))))
            print(f"error: {run.source or command}: {exc}", file=sys.stderr)
            return 2
        report = run.report({"error": f"{type(exc).__name__}: {exc}"})
        return _emit(args, report, [f"failed: {exc}"], 1)
    else:
        return _emit(args, run.report(results), lines, code)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

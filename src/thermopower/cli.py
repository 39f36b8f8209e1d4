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

import gc

# the imports below build objects that live as long as the process: the
# cyclic collector's passes over them free nothing.  Only the modules that
# every command uses are imported here; each handler imports the rest.
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import hashlib
    import itertools
    import json
    import math
    import os
    import reprlib
    import stat
    import sys
    import warnings
    from json.encoder import encode_basestring_ascii
    from pathlib import Path
    from types import GeneratorType

    # OpenBLAS's pool of threads costs every command CPU and saves no wall
    # time on these sizes: one thread, unless the user set a number
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    from . import __version__
    from .errors import (
        SLAB_BYTES,
        EmptyTrace,
        InvalidParams,
        InvalidSample,
        MalformedRow,
        MissingMeta,
        NonMonotonicTime,
        NonPositiveTime,
        ThermoError,
        _json_number,
    )
finally:
    if _collecting:
        gc.enable()


def _styled(text: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("THERMO_NO_COLOR"):
        return f"\x1b[1m{text}\x1b[0m"
    return text


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


def _members(obj):
    """The (text before the value, value) of each member of obj, a dict in
    key order or a list or a generator, and obj's brackets."""
    if isinstance(obj, dict):
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return ((encode_basestring_ascii(k) + ": ", obj[k]) for k in sorted(obj)), "{}"
    return (("", v) for v in obj), "[]"


def _format(obj, slots: list, nl: str) -> tuple[str, int]:
    """Append the text of each scalar in obj to slots, in the order _text
    writes them, and return the %-format that writes obj at nl from them
    and the length of the text it writes besides them.  A _Column is a
    scalar: it fills one slot."""
    if isinstance(obj, str):
        text = encode_basestring_ascii(obj)
    elif type(obj) is _Column:  # a scalar of a _Batch, which _runs writes
        text = obj
    elif isinstance(obj, (dict, list, tuple)):
        members, brackets = _members(obj)
        # the brackets and nl, less the "," that the first member lacks
        inner, formats, fixed = nl + "  ", [], len(nl) + 1
        for key, value in members:
            template, size = _format(value, slots, inner)
            formats.append(key.replace("%", "%%") + template)
            fixed += len(inner) + 1 + len(key) + size
        if not formats:
            return brackets, 2
        return brackets[0] + inner + ("," + inner).join(formats) + nl + brackets[1], fixed
    elif isinstance(obj, float):
        text = _float(obj)
    elif obj is None:
        text = "null"
    elif obj is True or obj is False:
        text = "true" if obj else "false"
    elif isinstance(obj, int):
        text = int.__repr__(obj)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    slots.append(text)
    return "%s", 0


def _text(obj, nl: str = "\n") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, but with
    non-finite floats as null, so reports stay strict JSON.  nl is a newline
    and the indent of the line obj starts on.  One % fills the format that
    _format gives with the slots it fills."""
    slots: list[str] = []
    return _format(obj, slots, nl)[0] % tuple(slots)


def _chunks(obj, nl: str = "\n"):
    """_text(obj, nl) in pieces, so a report is never held as one string:
    every nonempty list or dict, and a generator as a list, is walked a
    member at a time, and the text goes out in runs, each filled by one %
    and ending once it holds SLAB_BYTES of text (one member more at most)."""
    if not isinstance(obj, (list, tuple, dict, GeneratorType)) or not obj:
        yield _text(obj, nl)
        return
    run, slots = [], []
    yield from _runs(obj, nl, run, slots, 0)
    yield "".join(run) % tuple(slots)


class _Column(list):
    """The texts of one scalar, one for each member of a _Batch."""


class _Batch:
    """count consecutive members of a list that one %-format writes: each
    _Column leaf of value holds every member's text of that scalar."""

    def __init__(self, value, count: int):
        self.value, self.count = value, count


def _runs(obj, nl: str, run: list, slots: list, size: int):
    """Add the text of obj, a nonempty list or dict or a generator, at nl
    to the run that holds size characters: its formats to run and its
    slots to slots.  A _Batch member is written as its value's %-format
    repeated, each member's slots after its lead.  Yield each run that
    reaches SLAB_BYTES and start the next; return the size of the run left."""
    inner, sep = nl + "  ", "," + nl + "  "
    members, brackets = _members(obj)
    lead, closing = brackets[0] + inner, nl + brackets[1]
    for key, value in members:
        mark = len(slots)
        slots.append(lead + key)  # what comes before the member fills a slot
        if isinstance(value, (list, tuple, dict, GeneratorType)) and value:
            run.append("%s")
            size = yield from _runs(value, inner, run, slots, size + len(slots[-1]))
        elif isinstance(value, _Batch):
            template, fixed = _format(value.value, slots, inner)
            count = value.count
            columns = [[slots[mark], *[sep] * (count - 1)]]
            columns += [s if type(s) is _Column else itertools.repeat(s) for s in slots[mark + 1 :]]
            slots[mark:] = texts = list(itertools.chain.from_iterable(zip(*columns)))
            run.append(("%s" + template) * count)
            size += fixed * count + sum(map(len, texts))
        else:
            template, fixed = _format(value, slots, inner)
            run += "%s", template
            size += fixed + sum(map(len, slots[mark:]))
        if size >= SLAB_BYTES:
            yield "".join(run) % tuple(slots)
            run.clear()
            slots.clear()
            size = 0
        lead = sep
    run.append("%s")
    slots.append(closing if lead is sep else "[]")  # a generator may yield nothing
    return size + len(slots[-1])


class _Run:
    """Collects report material for one invocation."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.inputs: dict[str, str] = {}
        self.warnings: list[str] = []
        self.source: str | None = None  # the file being parsed, if any

    def read_bytes(self, path: str) -> bytes:
        """The bytes of path, hashed into inputs.  A regular file takes one
        os.read of its size and a byte more, so the data are read into one
        buffer; anything else (a pipe), or a file whose first read returns
        other than its size (a short read, as Linux gives of a file over
        2 GiB, or a file that grew meanwhile), is read on, SLAB_BYTES at a
        time, until os.read returns b"".  open() would fstat twice and
        seek.  An OSError's message names path, as _write_file's does."""
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                info = os.fstat(fd)
                regular = stat.S_ISREG(info.st_mode)
                data = os.read(fd, info.st_size + 1) if regular else b""
                if not regular or len(data) != info.st_size:
                    pieces = [data]
                    while piece := os.read(fd, SLAB_BYTES):
                        pieces.append(piece)
                    data = b"".join(pieces)
            finally:
                os.close(fd)
        except OSError as exc:
            raise OSError(f"{path}: {exc.strerror or exc}") from None
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
    print the human lines; return code.  A report file that cannot be
    opened is named before anything is written.  Once it is open, a sink
    whose write, or the file's close, fails takes no more of the report,
    and the other still takes all of it: print the error naming the sink
    that failed first, the file or stdout, and return 2."""
    try:
        file = open(args.out_report, "w", encoding="utf-8") if args.out_report else None
    except OSError as exc:
        print(f"error: {args.out_report}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    sinks = [sink for sink in (file, sys.stdout if args.json else None) if sink is not None]
    failed = {}  # the OSError of each sink that failed, the first first
    try:
        # serialize once, streaming each piece to every sink: written as one
        # string, a 4000-trace report raised peak RSS by a quarter
        for chunk in itertools.chain(_chunks(report), "\n") if sinks else ():
            for sink in sinks:
                if sink not in failed:
                    try:
                        sink.write(chunk)
                    except OSError as exc:
                        failed[sink] = exc
    finally:
        if file is not None:
            try:
                file.close()  # the file writes the end of its buffer as it closes
            except OSError as exc:
                failed.setdefault(file, exc)
    if sys.stdout not in failed:
        try:
            if not args.json and not args.quiet:
                for line in human_lines:
                    print(line)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
        except OSError as exc:
            failed[sys.stdout] = exc
    if not failed:
        return code
    sink, exc = next(iter(failed.items()))
    print(f"error: {'stdout' if sink is sys.stdout else args.out_report}: "
          f"{exc.strerror or exc}", file=sys.stderr)
    if sys.stdout in failed:  # the flush at exit would fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 2


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
    """(temp, power) rows of two float arrays, sorted by temperature, then
    by power."""
    from .trace import _table_text

    order = np.lexsort((powers, temps))
    _write_file(path, _table_text({}, ("temp_c", "power_w"), (temps[order], powers[order])))


# --- fit ---

def _parse_chunk(paths: list[str], texts: list[bytes], run: _Run, size: int) -> tuple:
    from .trace import _chunk_table, _parse_alone

    try:
        return _chunk_table(texts, size)
    except (ThermoError, ValueError):
        for run.source, text in zip(paths, texts):  # the first bad text fails again, named
            _parse_alone(text)
        raise


def _read_traces(paths: list[str], run: _Run):
    """_chunk_table's (metas, table, ends) of each chunk of up to
    SLAB_BYTES of input (a whole fleet at once costs a third more RSS), at
    least one file each, the traces that run.parse(p, parse_trace) would
    read.  Each file is read once: a chunk that fails is parsed again from
    memory one file at a time, so the first bad path in order fails as it
    would alone, before any file that cannot be read.  Each chunk is told
    the fleet's size as the larger of the first chunk's forecast and the
    bytes read so far, so that its converter follows the whole input."""
    texts, first, size, read, forecast = [], 0, 0, 0, 0
    for i, path in enumerate(paths):
        try:
            data = run.read_bytes(path)
        except OSError:
            _parse_chunk(paths[first:i], texts, run, 0)
            raise
        if texts and size + len(data) > SLAB_BYTES:
            if not first:
                forecast = size * len(paths) // len(texts)
            chunk = _parse_chunk(paths[first:i], texts, run, max(forecast, read))
            texts, first, size = [], i, 0  # freed while the caller takes the chunk
            yield chunk
        texts.append(data)
        size += len(data)
        read += len(data)
    chunk = _parse_chunk(paths[first:], texts, run, max(forecast, read))
    texts = data = None
    yield chunk


def _entries(paths: list[str], fits: dict):
    """results.traces of `thermo fit`, from each family's fitting._Fits:
    for each trace, {"fits": {family: the dict of its FitResult's fields,
    or None}, "path": path}, and with one family, a failed fit's "message".
    Yields _Batches of consecutive entries whose families failed alike,
    each of about SLAB_BYTES of text."""
    from .fitting import _TERMINATIONS
    from .trace import BLOCK_ROWS

    terminations = [encode_basestring_ascii(why) for why in _TERMINATIONS]
    fits = [fits[kind] for kind in sorted(fits, key=lambda kind: kind.value)]
    # a process that has loaded the array writer prints through it, at
    # least BLOCK_ROWS values a call, where it pays
    shortest = sys.modules.get(f"{__package__}._shortest")
    windows = {f.kind: (0, 0, []) for f in fits}  # each family's printed rows

    def floats(f, lo: int, hi: int) -> list[str]:
        """_float of the coefficients and the error of f's rows lo:hi, row by row."""
        start, stop, window = windows[f.kind]
        width = f.coeffs.shape[1] + 1
        if lo < start or hi > stop:
            rows = -(-BLOCK_ROWS // width) if shortest else 0
            start, stop = lo, min(len(f.ok), max(hi, lo + rows))
            values = np.column_stack([f.coeffs[start:stop], f.error[start:stop]]).ravel()
            if shortest:
                window = shortest.reprs(values, _float)
            else:  # float.__repr__ writes a finite float as _float does, with no call in Python
                window = list(map(float.__repr__ if np.isfinite(values).all() else _float,
                                  values.tolist()))
            windows[f.kind] = start, stop, window
        return window[(lo - start) * width : (hi - start) * width]

    def batch(lo: int, hi: int) -> _Batch:
        entry = {"fits": {}, "path": _Column(map(encode_basestring_ascii, paths[lo:hi]))}
        for f in fits:
            if not f.ok[lo]:
                entry["fits"][f.kind.value] = None
                continue
            texts, width = floats(f, lo, hi), f.coeffs.shape[1]
            codes = f.code[lo:hi].tolist()
            entry["fits"][f.kind.value] = {
                "coeffs": [_Column(texts[j :: width + 1]) for j in range(width)],
                "converged": _Column(map(("true", "false").__getitem__, codes)),  # 0: converged
                "error": _Column(texts[width :: width + 1]),
                "iterations": _Column(map(int.__repr__, f.iterations[lo:hi].tolist())),
                "kind": f.kind.value,
                "termination": _Column(map(terminations.__getitem__, codes))}
        if len(fits) == 1 and not fits[0].ok[lo]:
            entry["message"] = _Column(encode_basestring_ascii(f"{type(exc).__name__}: {exc}")
                                       for exc in map(fits[0].failed.get, range(lo, hi)))
        return _Batch(entry, hi - lo)

    ok = np.array([f.ok for f in fits])
    # about SLAB_BYTES of text, at some 20 characters a slot, in the format of
    # the first entry whose fits all succeeded, else of the first entry
    slots = []
    first = int(np.argmax(ok.all(axis=0)))
    fixed = _format(batch(first, first + 1).value, slots, "\n")[1]
    step = max(1, SLAB_BYTES // (fixed + 20 * len(slots)))
    cuts = (np.flatnonzero((ok[:, 1:] != ok[:, :-1]).any(axis=0)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(paths)]):
        for start in range(lo, hi, step):
            yield batch(start, min(hi, start + step))


def _read_fleet(args, run: _Run) -> tuple:
    """The temperatures and the powers of the traces of args.traces, each
    joined into one array, the row offsets where each trace starts and the
    last ends, and, when --model all pools them, the indices of the traces
    of each --group-by group."""
    groups: dict[str, list[int]] = {}
    temps, powers, ends = [], [], [0]  # the times are not fitted
    for metas, table, chunk_ends in _read_traces(args.traces, run):
        if args.group_by == "proc-cores" and args.model == "all":
            for i, meta in enumerate(metas, len(ends) - 1):
                groups.setdefault(f"{meta.processor}/c{meta.cores}", []).append(i)
        temps.append(table[1].copy())
        powers.append(table[2].copy())
        ends += [ends[-1] + end for end in chunk_ends[1:]]
    # one array joined at a time, its pieces freed before the next is
    temps = temps[0] if len(temps) == 1 else np.concatenate(temps)
    powers = powers[0] if len(powers) == 1 else np.concatenate(powers)
    return temps, powers, ends, groups


def cmd_fit(args, run: _Run) -> tuple[int, dict, list[str]]:
    from .fitting import FitKind, _Comparison, _curve, _fit_table, _Fits

    temps, powers, ends, groups = _read_fleet(args, run)
    if args.model == "all":
        comparison = _Comparison(temps, powers, ends, {}, groups)
        kinds, fits = comparison.kinds, comparison.fits
    else:  # --model names a family by the start of its value
        kinds = (next(kind for kind in FitKind if kind.value.startswith(args.model)),)
        fits = {kinds[0]: _Fits(kinds[0], len(args.traces))}
        _fit_table(fits[kinds[0]], temps, powers, ends)
    results = {"traces": _entries(args.traces, fits)}
    lines = []
    if not args.json and not args.quiet:  # else the lines go unprinted
        columns = [(kind.value, fits[kind].failed, fits[kind].error.tolist(),
                    fits[kind].coeffs.tolist()) for kind in kinds]
        for i, path in enumerate(args.traces):
            if args.model == "all":
                lines.append(_styled(path))
            for name, exceptions, errors, coeffs in columns:
                head = f"  {name}: " if args.model == "all" else f"{path}: "
                if i in exceptions:
                    lines.append(head + ("failed" if args.model == "all" else
                                         f"{name} failed: {exceptions[i]}"))
                else:
                    lines.append(f"{head}error={errors[i]!r} coeffs={coeffs[i]!r}")

    if args.model == "all":
        failures = comparison.failures()
        results["aggregated"] = {k.value: v for k, v in comparison.aggregated.items()}
        results["sign_tests"] = {f"{a.value}_vs_{b.value}": p
                                 for (a, b), p in comparison.p_values().items()}
        results["failures"] = [{"trace": args.traces[i], "kind": kind.value, "message": msg}
                               for i, kind, msg in failures]
        failed = bool(failures)
        if args.group_by == "proc-cores":
            results["groups"] = {
                key: {kind.value: error for kind, error in errors.items()}
                for key, errors in sorted(comparison.groups.items())
            }
        lines.append(
            "aggregated: "
            + " ".join(f"{k}={v!r}" for k, v in results["aggregated"].items())
        )
        lines.append(
            "sign tests: "
            + " ".join(f"{k} p={v!r}" for k, v in results["sign_tests"].items())
        )
        kind = FitKind.EXPONENTIAL
    else:
        kind = kinds[0]
        failed = bool(fits[kind].failed)

    plotted = fits[kind]
    if args.plot and not plotted.ok[0]:  # an older file there stays
        run.warnings.append(f"no plot written: the {kind.value} fit of {args.traces[0]} failed")
        lines.append(run.warnings[-1])
    elif args.plot:
        temps = temps[: ends[1]]
        _write_plot(args.plot, temps, _curve(kind, plotted.coeffs[0].tolist(), temps))
    return (1 if failed else 0), results, lines


# --- model eval / calibrate ---

def _load_coeffs(args, run: _Run) -> CoefficientSet:
    from .powermodel import CoefficientSet, builtin_set

    if args.coeffs:
        return run.parse(args.coeffs, lambda data: CoefficientSet.from_dict(json.loads(data)))
    return builtin_set(args.proc)


def cmd_model_eval(args, run: _Run) -> tuple[int, dict, list[str]]:
    from .powermodel import derive_params

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
    from .powermodel import ModelParams

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
    from .powermodel import calibrate

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
    from .debias import DebiasSpec, _debiased_table, debias, fit_eta
    from .fitting import FitKind
    from .trace import _table_text, parse_trace

    trace = run.parse(args.trace, parse_trace)
    kind = next(kind for kind in FitKind if kind.value.startswith(args.kind))
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
    from .trace import parse_table

    table = parse_table(data)
    if len(table[2]) == 0:
        raise EmptyTrace("a series needs at least 1 sample, got 0")
    return table


def cmd_sensor_correct(args, run: _Run) -> tuple[int, dict, list[str]]:
    from .sensor import SensorModel, b_factor, correct_series, model_from_json
    from .trace import _table_text

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
    from .trace import TraceMeta, _table_text, _trace_table, generate_synthetic_trace

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

    p = sub.add_parser("fit", help="fit temperature/power curves to traces",
                       fromfile_prefix_chars="@")
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


def run() -> None:
    """The ``thermo`` console script: exit with main()'s code.  The heap is
    frozen first, on every way out, argparse's exits included, so the
    interpreter's teardown does not walk it; main() leaves it alone, so
    that an in-process caller's objects can still be freed."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()

"""The report writer against the standard library's encoder.

``cli._text`` must write what ``json.dumps(v, sort_keys=True, indent=2)``
writes, except that non-finite floats become ``null``; ``cli._chunks``
must write the same text in pieces.  A fit report's trace entries,
written from columns in batches by ``cli._entries``, must read as the
dicts of their FitResults' fields.
"""

import hashlib
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower import cli, fitting
from thermopower.cli import _chunks, _entries, _text, main
from thermopower.errors import DegenerateInput
from thermopower.fitting import FitKind, FitResult, compare_models, fit_batch
from thermopower.trace import BLOCK_ROWS, SLAB_BYTES, parse_traces

# any code point: non-ASCII, control characters and lone surrogates
CHARS = st.characters() | st.characters(categories=["Cs"])
TEXT = st.text(CHARS, max_size=8)
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1.7976931348623157e308, -1e-310])
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    EDGE_FLOATS,
    # a float subclass: json writes float.__repr__ of it, not its repr
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]) | st.sampled_from(
    [np.float64("nan"), np.float64("inf")]
)
INTS = st.integers() | st.sampled_from([2**64, -(2**63) - 1, 10**4000])
SCALARS = st.one_of(TEXT, INTS, st.booleans(), st.none(), FINITE)


def nested(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(TEXT, inner, max_size=5),
        ),
        max_leaves=20,
    )


def finite_only(v):
    """v with every non-finite float replaced by None."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: finite_only(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [finite_only(x) for x in v]
    return v


def written(v) -> list[str]:
    """v as _text writes it and as _chunks writes it."""
    return [_text(v), "".join(_chunks(v))]


@settings(max_examples=150, deadline=None)
@given(nested(SCALARS))
def test_finite_values_are_written_as_json_dumps_writes_them(v):
    expected = json.dumps(v, sort_keys=True, indent=2)
    assert written(v) == [expected] * 2


@settings(max_examples=150, deadline=None)
@given(nested(SCALARS | NON_FINITE))
def test_non_finite_floats_are_written_as_null(v):
    expected = json.dumps(finite_only(v), sort_keys=True, indent=2)
    assert written(v) == [expected] * 2


# json.dumps writes an int key as a string; a report has none, so the
# writer refuses it rather than guess
@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, b"x", {1: "a"}, {"a": [1, {2: 3}]}])
def test_values_that_are_not_report_json_raise_type_error(bad):
    with pytest.raises(TypeError):
        _text(bad)
    with pytest.raises(TypeError):
        "".join(_chunks(bad))


# --- trace entries, written from the columns of each family's fits ---

def fit_dict(fit):
    """A FitResult as a report writes it: the dict of its fields."""
    return {"kind": fit.kind.value, "coeffs": list(fit.coeffs), "error": fit.error,
            "iterations": fit.iterations, "converged": fit.converged,
            "termination": fit.termination}


def entry_dicts(paths, results, kinds):
    """The trace entries of a report, from each family's FitResults or
    exceptions, results[kind][i], as json.dumps would take them."""
    entries = []
    for i, path in enumerate(paths):
        fits = {kind.value: None if isinstance(results[kind][i], Exception)
                else fit_dict(results[kind][i]) for kind in kinds}
        entry = {"path": path, "fits": fits}
        failed = results[kinds[0]][i]
        if len(kinds) == 1 and isinstance(failed, Exception):
            entry["message"] = f"{type(failed).__name__}: {failed}"
        entries.append(entry)
    return entries


FLOATS = FINITE | NON_FINITE


# a budget of 1 cuts every batch to one entry and every run to one member;
# 800 and 2500 cut runs of like entries into batches of two or three
@pytest.mark.parametrize("slab", [1, 800, 2500, SLAB_BYTES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_trace_entries_are_written_as_the_dicts_of_their_fit_results(slab, data):
    kinds = data.draw(st.sampled_from([tuple(FitKind), (FitKind.EXPONENTIAL,),
                                       (FitKind.LINEAR,)]))
    n = data.draw(st.integers(1, 8))
    columns = {kind: fitting._Fits(kind, n) for kind in kinds}
    for fits in columns.values():
        for i in range(n):
            if data.draw(st.integers(0, 3)) == 0:
                fits.failed[i] = DegenerateInput(data.draw(TEXT))
                continue
            fits.ok[i] = True
            fits.coeffs[i] = data.draw(st.lists(FLOATS, min_size=fits.coeffs.shape[1],
                                                max_size=fits.coeffs.shape[1]))
            fits.error[i] = data.draw(FLOATS)
            fits.iterations[i] = data.draw(st.integers(0, 10**6))
            fits.code[i] = data.draw(st.integers(0, len(fitting._TERMINATIONS) - 1))
    paths = data.draw(st.lists(TEXT, min_size=n, max_size=n))
    results = {kind: columns[kind].results() for kind in kinds}
    expected = json.dumps(finite_only({"traces": entry_dicts(paths, results, kinds)}),
                          sort_keys=True, indent=2)
    with mock.patch.object(cli, "SLAB_BYTES", slab):
        assert "".join(_chunks({"traces": _entries(paths, columns)})) == expected


def fleet_files(root):
    """More than fitting.WAVE_SAMPLES samples in 900 trace files of 5 to 39
    samples, runs of four sharing a length, under names holding "%",
    quotes, a backslash and non-ASCII letters.  Concave, flat, two- and
    one-temperature traces fail some families in mid-run, and steps
    steeper than any exponential end at the exp_range_limit."""
    rng = np.random.default_rng(21)
    lengths = rng.integers(5, 40, 225).repeat(4)
    assert lengths.sum() > fitting.WAVE_SAMPLES
    paths = []
    for i, n in enumerate(lengths.tolist()):
        t = np.append(np.linspace(25.0, 84.99, n - 1), 85.0)
        x = (t - 25.0) / 60.0
        y = {0: 2.0 - (x - 0.5) ** 2, 1: np.full(n, 1.5), 2: np.where(t == t.max(), 1.0, 0.3),
             3: 1.0 + x + 0.1 * (np.arange(n) % 2)}.get(i % 11, 0.3 + np.exp(x * 2.0))
        if i % 11 in (3, 4):  # two temperatures, or one
            t = np.where(np.arange(n) % 2, 30.0, 60.0 if i % 11 == 3 else 30.0)
        y = y * (1.0 + 1e-3 * rng.standard_normal(n))
        rows = "".join(f"{0.2 * j!r},{a!r},{b!r}\n" for j, (a, b) in
                       enumerate(zip(t.tolist(), y.tolist())))
        name = f"t{i:03d}.csv" if i % 50 else f'{i}% "été" \\ q.csv'
        path = root / name
        path.write_text(f"#processor=P{i % 3}\n#freq_ghz=1.0\n#cores={1 + i % 4}\n"
                        f"time_s,temp_c,power_w\n{rows}", encoding="utf-8")
        paths.append(str(path))
    return paths


# traces whose first coefficient becomes non-finite, and with it the error
NON_FINITE_FITS = {7: math.nan, 8: math.inf, 9: -math.inf, 500: math.nan}


@pytest.mark.parametrize("wave", [fitting.WAVE_SAMPLES, 997])
@pytest.mark.parametrize("model", ["all", "exp"])
def test_a_fleet_report_writes_each_fit_as_the_dict_of_its_fit_result(
        tmp_path, capsys, monkeypatch, model, wave):
    paths = fleet_files(tmp_path)
    # 997: the fleet is fitted in more, smaller waves
    monkeypatch.setattr(fitting, "WAVE_SAMPLES", wave)
    finish = fitting._Rows.finish

    def finish_non_finite(rows, coeffs, *args):
        coeffs = coeffs.copy()
        for j, i in enumerate(rows.ids.tolist()):
            coeffs[j, 0] = NON_FINITE_FITS.get(i, coeffs[j, 0])
        finish(rows, coeffs, *args)

    monkeypatch.setattr(fitting._Rows, "finish", finish_non_finite)
    code = main(["fit", *paths, "--model", model, "--group-by", "proc-cores", "--json"])
    out = capsys.readouterr().out
    traces = parse_traces([Path(p).read_bytes() for p in paths])
    if model == "all":
        kinds = tuple(FitKind)
        groups = {}
        for i, trace in enumerate(traces):
            groups.setdefault(f"{trace.meta.processor}/c{trace.meta.cores}", []).append(i)
        comparison = compare_models(traces, groups)
        rows = comparison.results
        results = {kind: [row[kind] or DegenerateInput() for row in rows] for kind in kinds}
    else:
        kinds = (FitKind.EXPONENTIAL,)
        results = {kinds[0]: fit_batch(traces, kinds[0])}
    termination = [r.termination for r in results[FitKind.EXPONENTIAL]
                   if isinstance(r, FitResult)]
    assert "exp_range_limit" in termination and "converged" in termination
    failed = {kind: sum(isinstance(r, Exception) for r in results[kind]) for kind in kinds}
    assert code == 1 and all(failed.values())
    report = json.loads(out)
    report["results"]["traces"] = finite_only(entry_dicts(paths, results, kinds))
    if model == "all":  # pooled whole, as compare_models pools them
        names = {kind: kind.value for kind in kinds}
        report["results"]["aggregated"] = finite_only(
            {names[k]: v for k, v in comparison.aggregated.items()})
        report["results"]["groups"] = finite_only({key: {names[k]: v for k, v in errors.items()}
                                                   for key, errors in comparison.groups.items()})
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert out.count("null") >= 2 * len(NON_FINITE_FITS)


# both sides of repr's edges of fixed notation, subnormals, ±0 and the
# non-finite, each of them also negated
EDGES = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16, np.nextafter(1e16, 0.0),
         np.nextafter(1e16, math.inf), 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         0.0, 1.7976931348623157e308, math.inf, math.nan]


def float_texts(report: str) -> list[tuple[str, list]]:
    """Each trace's (family, [its coefficient texts..., its error text])
    in a fit report, a text None where the report writes null."""
    texts = []
    for entry in json.loads(report, parse_float=str)["results"]["traces"]:
        for name, fit in sorted(entry["fits"].items()):
            if fit is not None:
                texts.append((name, [*fit["coeffs"], fit["error"]]))
    return texts


@pytest.mark.parametrize("loaded", [True, False], ids=["array writer", "repr"])
def test_each_coefficient_and_error_text_is_float_of_its_value(monkeypatch, loaded):
    """A process that has loaded thermopower._shortest prints the report's
    coefficients and errors through it, at least BLOCK_ROWS values a call,
    windows that span batches and failed rows; another prints them with
    float.__repr__.  Either way each text is cli._float of its value."""
    from thermopower import _shortest

    calls = []
    if loaded:
        reprs = _shortest.reprs
        monkeypatch.setattr(_shortest, "reprs",
                            lambda values, other: calls.append(len(values)) or reprs(values, other))
    else:
        monkeypatch.delitem(sys.modules, "thermopower._shortest")
    rng = np.random.default_rng(26)
    n = 3000
    columns = {kind: fitting._Fits(kind, n) for kind in FitKind}
    for fits in columns.values():
        size = fits.coeffs.size + n
        values = rng.normal(0.0, 10.0 ** rng.integers(-7, 18, size))
        edges = rng.integers(0, size, 800)
        values[edges] = rng.choice(EDGES, len(edges)) * rng.choice([-1.0, 1.0], len(edges))
        fits.coeffs[:], fits.error[:] = values[:-n].reshape(fits.coeffs.shape), values[-n:]
        fits.ok[:] = True
        for i in rng.integers(0, n, 40).tolist():  # failed rows in mid-window
            fits.ok[i] = False
            fits.failed[i] = DegenerateInput("failed")
    paths = [f"t{i:04d}.csv" for i in range(n)]
    report = "".join(_chunks({"results": {"traces": _entries(paths, columns)}}))
    expected = [(kind.value, [None if text == "null" else text
                              for text in map(cli._float, [*fits.coeffs[i].tolist(),
                                                           fits.error[i]])])
                for i in range(n) for kind, fits in sorted(columns.items(),
                                                           key=lambda item: item[0].value)
                if fits.ok[i]]
    assert float_texts(report) == expected
    texts = [text for _, row in expected for text in row]
    assert None in texts and "-0.0" in texts and any("e" in t for t in texts if t)
    if loaded:  # every call but each family's last window prints a block or more
        assert calls and sum(count < BLOCK_ROWS for count in calls) <= len(columns)


def test_a_fleet_report_writes_each_float_as_cli_float_of_it(tmp_path, capsys):
    """A fleet whose fits lie on both sides of the edges of fixed notation."""
    paths = fleet_files(tmp_path)
    for i, path in enumerate(paths[::3]):  # powers scaled to microwatts or to gigawatts
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        scale = 1e-6 if i % 2 else 1e9
        rows = [line.rsplit(",", 1) for line in lines[4:]]
        Path(path).write_text("".join(lines[:4]) + "".join(
            f"{head},{float(power) * scale!r}\n" for head, power in rows), encoding="utf-8")
    main(["fit", *paths, "--group-by", "proc-cores", "--json"])
    texts = [text for _, row in float_texts(capsys.readouterr().out) for text in row]
    assert all(text == cli._float(float(text)) for text in texts if text is not None)
    fixed = ["e" not in text for text in texts if text is not None]
    assert any(fixed) and not all(fixed)


# --- a fleet's trace entries, written a run of one shape at a time ---

def fleet_entries():
    """243 members: trace entries of the shape `thermo fit` writes, each fit
    the dict of its FitResult's fields, and members it never writes.  They
    hold runs of one shape longer than a run holds, failed families in
    mid-run, non-finite and numpy values, a fit under another family's
    key, names holding "%", and members of other shapes."""
    rng = np.random.default_rng(18)
    names = ("linear", "quadratic", "exponential")
    kinds = dict(zip(names, (FitKind.LINEAR, FitKind.QUADRATIC, FitKind.EXPONENTIAL)))

    def fit(name):
        coeffs = rng.normal(0, 10.0 ** rng.integers(-3, 4), 2 if name == "linear" else 3)
        return FitResult(kinds[name], tuple(coeffs.tolist()), float(rng.uniform(0, 0.1)),
                         int(rng.integers(0, 40)), True)

    entries = [{"path": f"t{i:04d}.csv", "fits": {name: fit(name) for name in names}}
               for i in range(240)]
    for i in (7, 8, 90, 91, 92, 230):  # failed families in mid-run
        entries[i]["fits"][names[i % 3]] = None
    entries[30]["fits"]["exponential"] = FitResult(
        FitKind.EXPONENTIAL, (math.nan, math.inf, -math.inf), math.nan, 7, False, "exp_range_limit")
    entries[31]["fits"]["linear"] = FitResult(FitKind.LINEAR, (1e308, np.float64(-0.0)),
                                              np.float64(math.inf), 0, True)
    entries[40]["fits"]["quadratic"] = entries[40]["fits"]["exponential"]  # under another key
    entries[41]["fits"]["linear"] = FitResult(FitKind.QUADRATIC, (1.0, 2.0, 3.0), 0.5, 1, True)
    entries[50]["path"] = "100% été \\ \"quoted\".csv"
    entries[51]["fits"] = {"exponential": fit("exponential"), "%s": None, "li%near": fit("linear")}
    entries[60]["fits"] = dict(reversed(entries[60]["fits"].items()))  # another key order
    entries[70] = {"path": "t0070.csv", "fits": {"exponential": None}, "message": "Degenerate"}
    entries[71] = {"path": "t0071.csv", "fits": {}}
    entries[80] = {"path": "t0080.csv", "fits": {"linear": {"coeffs": [1.0, 2.0]}}}
    entries[85:85] = ["a member of another type", None, 3.5]
    return as_dicts(entries)


def as_dicts(v):
    """v with every FitResult replaced by fit_dict of it."""
    if isinstance(v, FitResult):
        return fit_dict(v)
    if isinstance(v, dict):
        return {k: as_dicts(x) for k, x in v.items()}
    if isinstance(v, list):
        return [as_dicts(x) for x in v]
    return v


def test_a_fleet_of_trace_entries_is_written_as_json_dumps_writes_it():
    entries = fleet_entries()
    report = {"results": {"traces": entries}, "warnings": []}
    expected = json.dumps(finite_only(report), sort_keys=True, indent=2)
    assert written(report) == [expected] * 2


def test_trace_entries_are_written_in_runs_of_about_a_slab():
    entries = fleet_entries()
    pieces = list(_chunks(entries))
    assert "".join(pieces) == _text(entries)
    longest = max(len(",\n  " + _text(e, "\n  ")) for e in entries)
    # t0093 to t0229 are entries of one shape, more than one run holds
    assert SLAB_BYTES <= max(map(len, pieces)) <= SLAB_BYTES + longest
    assert len(pieces) < len(entries) / 5


def test_a_long_command_and_inputs_are_written_in_runs_of_about_a_slab():
    paths = [f"fleet/t{i:04d}.csv" for i in range(5000)]
    report = {"command": ["fit", *paths, "--json"],
              "inputs": {path: "sha256:" + hashlib.sha256(path.encode()).hexdigest()
                         for path in paths},
              "results": {"traces": []}, "schema": 1}
    pieces = list(_chunks(report))
    assert "".join(pieces) == _text(report) == json.dumps(report, sort_keys=True, indent=2)
    members = [*map(_text, report["command"]),
               *(_text(k) + ": " + _text(v) for k, v in report["inputs"].items())]
    longest = max(len(",\n    " + m) for m in members)
    assert len(pieces) < len(members) / 5
    assert max(map(len, pieces)) <= SLAB_BYTES + longest


@pytest.mark.parametrize("members", [[], [1.5], [[], {"a": None}, "x"]])
def test_a_generator_is_written_as_a_list(members):
    report = {"results": {"traces": (m for m in members)}, "schema": 1}
    expected = json.dumps({"results": {"traces": members}, "schema": 1}, sort_keys=True, indent=2)
    assert "".join(_chunks(report)) == expected

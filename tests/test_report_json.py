"""The report writer against the standard library's encoder.

``cli._text`` must write what ``json.dumps(v, sort_keys=True, indent=2)``
writes, except that non-finite floats become ``null`` and a FitResult is
written as the dict of its fields; ``cli._chunks`` must write the same text
in pieces, at every streaming depth.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower.cli import _chunks, _text
from thermopower.fitting import FitKind, FitResult
from thermopower.trace import SLAB_BYTES

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
    """v as _text writes it and as _chunks writes it at each depth."""
    return [_text(v), *("".join(_chunks(v, depth=d)) for d in range(5))]


@settings(max_examples=150, deadline=None)
@given(nested(SCALARS))
def test_finite_values_are_written_as_json_dumps_writes_them(v):
    expected = json.dumps(v, sort_keys=True, indent=2)
    assert written(v) == [expected] * 6


@settings(max_examples=150, deadline=None)
@given(nested(SCALARS | NON_FINITE))
def test_non_finite_floats_are_written_as_null(v):
    expected = json.dumps(finite_only(v), sort_keys=True, indent=2)
    assert written(v) == [expected] * 6


# json.dumps writes an int key as a string; a report has none, so the
# writer refuses it rather than guess
@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, b"x", {1: "a"}, {"a": [1, {2: 3}]}])
def test_values_that_are_not_report_json_raise_type_error(bad):
    with pytest.raises(TypeError):
        _text(bad)
    for depth in range(4):
        with pytest.raises(TypeError):
            "".join(_chunks(bad, depth=depth))


# --- FitResult entries, written from templates ---

def fit_dict(fit):
    """A FitResult as a report wrote it through a dict of its fields."""
    return {"kind": fit.kind.value, "coeffs": list(fit.coeffs), "error": fit.error,
            "iterations": fit.iterations, "converged": fit.converged,
            "termination": fit.termination}


def as_dicts(v):
    """v with every FitResult replaced by fit_dict of it."""
    if isinstance(v, FitResult):
        return fit_dict(v)
    if isinstance(v, dict):
        return {k: as_dicts(x) for k, x in v.items()}
    if isinstance(v, list):
        return [as_dicts(x) for x in v]
    return v


FLOATS = FINITE | NON_FINITE
FITS = st.builds(
    FitResult,
    st.sampled_from(list(FitKind)),
    st.lists(FLOATS, min_size=2, max_size=3).map(tuple),
    FLOATS,
    st.integers(0, 10**6),
    st.booleans(),
    TEXT,
)
# a trace entry of `fit` (every family, some failed) or of `fit --model exp`
# (one family, a failure carrying its message)
ENTRIES = st.one_of(
    st.fixed_dictionaries(
        {"path": TEXT, "fits": st.dictionaries(st.sampled_from(["exponential", "linear",
                                                                 "quadratic"]),
                                               st.none() | FITS, min_size=3)}),
    st.fixed_dictionaries({"path": TEXT, "fits": st.fixed_dictionaries({"exponential": FITS})}),
    st.fixed_dictionaries({"path": TEXT, "fits": st.just({"exponential": None}),
                           "message": TEXT}),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(ENTRIES, max_size=4))
def test_fit_results_are_written_as_the_dict_of_their_fields(entries):
    report = {"results": {"traces": entries}}
    expected = _text(as_dicts(report))
    assert expected == json.dumps(finite_only(as_dicts(report)), sort_keys=True, indent=2)
    assert written(report) == [expected] * 6


def test_a_numpy_float_in_a_fit_result_is_written_as_its_value():
    fit = FitResult(FitKind.QUADRATIC, (np.float64(0.1), np.float64(-2.5), 3.0),
                    np.float64("inf"), 0, True)
    assert _text(fit) == _text(fit_dict(fit))
    assert "np.float64" not in _text(fit) and '"error": null' in _text(fit)


# --- a fleet's trace entries, written a run of one shape at a time ---

def fleet_entries():
    """243 members: trace entries as `thermo fit` writes them, and members
    it never writes.  They hold runs of one shape longer than a run holds,
    failed families in mid-run, non-finite and numpy values, a FitResult
    under another family's key, names holding "%", and members of other
    shapes."""
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
    return entries


def test_a_fleet_of_trace_entries_is_written_as_json_dumps_writes_it():
    entries = fleet_entries()
    report = {"results": {"traces": entries}, "warnings": []}
    expected = json.dumps(finite_only(as_dicts(report)), sort_keys=True, indent=2)
    assert written(report) == [expected] * 6


def test_trace_entries_are_written_in_runs_of_about_a_slab():
    entries = fleet_entries()
    pieces = list(_chunks(entries, depth=1))
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

"""The report writer against the standard library's encoder.

``cli._text`` must write what ``json.dumps(v, sort_keys=True, indent=2)``
writes, except that non-finite floats become ``null``; ``cli._chunks``
must write the same text in pieces, at every streaming depth.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermopower.cli import _chunks, _text

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

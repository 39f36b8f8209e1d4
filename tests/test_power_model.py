"""Coefficient sets, parameter derivation, power evaluation, calibration."""

import math

import pytest

from thermopower.errors import (
    InsufficientSpan,
    InvalidCores,
    InvalidFreq,
    InvalidParams,
    SingularFit,
)
from thermopower.powermodel import (
    CoefficientSet,
    ModelParams,
    builtin_set,
    builtin_sets,
    calibrate,
    derive_params,
    evaluate_power,
)
from thermopower.trace import TraceMeta

# independently hand-evaluated reference points, frozen before implementation
A7_POWER_50C = 0.27320476245604647   # f=0.5, c=3
A15_POWER_50C = 2.473886778818005    # f=1.2, c=4
A7_A0 = 0.2564693460490463
A15_A0 = 2.291562143505904


def test_builtin_sets_constants():
    sets = {cs.label: cs for cs in builtin_sets()}
    assert set(sets) == {"A7", "A15"}
    a7, a15 = sets["A7"], sets["A15"]
    assert a7.m == (0.028, -0.093, 0.371, 2.202, -38.242, 187.668, 8.430)
    assert a15.m == (0.220, -0.315, 0.467, 2.202, -56.652, 165.896, 8.430)
    assert a7.a2 == a15.a2 == 33.105
    assert a7.m7 == a15.m7 == 8.430
    assert a7.m4 == a15.m4 == 2.202


def test_builtin_lookup_case_insensitive():
    assert builtin_set("a7").label == "A7"
    with pytest.raises(KeyError):
        builtin_set("A9")


def test_derive_params_a7():
    p = derive_params(builtin_set("A7"), 0.5, 3)
    assert math.isclose(p.a0, A7_A0, rel_tol=1e-12)
    assert math.isclose(p.a1, 185.407, rel_tol=1e-12)
    assert p.a2 == 33.105


def test_derive_params_a15():
    p = derive_params(builtin_set("A15"), 1.2, 4)
    assert math.isclose(p.a0, A15_A0, rel_tol=1e-12)
    assert math.isclose(p.a1, 106.3436, rel_tol=1e-12)


def test_derive_params_flat_a1():
    cs = CoefficientSet("flat", 0.1, 0.0, 0.0, 2.0, 0.0, 140.0, 0.0, 30.0)
    for freq in (0.2, 1.0, 1.9):
        for cores in (1, 2, 3, 4):
            assert derive_params(cs, freq, cores).a1 == 140.0


def test_evaluate_power_reference_points():
    got = evaluate_power(builtin_set("A7"), 50.0, 0.5, 3)
    assert math.isclose(got, A7_POWER_50C, rel_tol=1e-9)
    got = evaluate_power(builtin_set("A15"), 50.0, 1.2, 4)
    assert math.isclose(got, A15_POWER_50C, rel_tol=1e-9)


def test_evaluate_power_at_a1_is_one_plus_a0():
    for cs in builtin_sets():
        p = derive_params(cs, 1.0, 2)
        assert evaluate_power(cs, p.a1, 1.0, 2) == 1.0 + p.a0


def test_operating_point_validation():
    cs = builtin_set("A7")
    with pytest.raises(InvalidFreq):
        derive_params(cs, 0.0, 2)
    with pytest.raises(InvalidFreq):
        derive_params(cs, -1.0, 2)
    with pytest.raises(InvalidFreq):
        derive_params(cs, float("nan"), 2)
    with pytest.raises(InvalidCores):
        derive_params(cs, 1.0, 0)
    with pytest.raises(InvalidCores):
        derive_params(cs, 1.0, 5)
    with pytest.raises(InvalidCores):
        derive_params(cs, 1.0, 2.5)


def test_model_params_validation():
    with pytest.raises(InvalidParams):
        ModelParams(0.1, 100.0, 0.0)
    with pytest.raises(InvalidParams):
        ModelParams(float("inf"), 100.0, 30.0)


def test_coefficient_set_validation():
    with pytest.raises(InvalidParams):
        CoefficientSet("x", 0.1, 0.0, 0.0, 0.0, 0.0, 140.0, 0.0, 30.0)  # m4 = 0
    with pytest.raises(InvalidParams):
        CoefficientSet("x", 0.1, 0.0, 0.0, 2.0, 0.0, 140.0, 0.0, 0.0)  # a2 = 0
    with pytest.raises(InvalidParams, match="^m6 must be finite$"):
        CoefficientSet("x", 0.1, 0.0, 0.0, 2.0, 0.0, math.inf, 0.0, 30.0)


def test_power_increasing_in_temperature():
    for cs in builtin_sets():
        for freq in (0.4, 1.0, 1.6):
            for cores in (1, 4):
                prev = evaluate_power(cs, 20.0, freq, cores)
                for temp in range(25, 95, 5):
                    cur = evaluate_power(cs, float(temp), freq, cores)
                    assert cur > prev
                    prev = cur


def test_a0_affine_in_cores():
    for cs in builtin_sets():
        for freq in (0.5, 1.2):
            a0s = [derive_params(cs, freq, c).a0 for c in (1, 2, 3, 4)]
            diffs = [b - a for a, b in zip(a0s, a0s[1:])]
            g_s = cs.m1 + cs.m2 * freq + cs.m3 * freq * freq
            for d in diffs:
                assert math.isclose(d, g_s, rel_tol=1e-12)


# --- calibration ---

GRIDS = {"A7": (0.25, 0.3, 0.4, 0.5, 0.6), "A15": (0.8, 1.0, 1.2, 1.4, 1.6)}


def grid_observations(cs, freqs=None):
    freqs = freqs or GRIDS[cs.label]
    return [(f, c, derive_params(cs, f, c)) for f in freqs for c in (1, 2, 3, 4)]


@pytest.mark.parametrize("label", ["A7", "A15"])
def test_calibration_round_trip(label):
    source = builtin_set(label)
    recovered, diag = calibrate(grid_observations(source), label=label)
    for name in ("m1", "m2", "m3", "m4", "m5", "m6", "m7", "a2"):
        got, want = getattr(recovered, name), getattr(source, name)
        assert math.isclose(got, want, rel_tol=1e-6), name
    assert diag.n_observations == 20
    assert diag.a1_rms < 1e-9
    assert diag.a0_rms < 1e-9
    assert diag.a2_spread == 0.0
    assert diag.used_freqs == GRIDS[label]


def test_calibration_flat_a1_zeroes_m5_m7():
    obs = [
        (f, c, ModelParams(0.1 * c + 0.05, 150.0, 30.0))
        for f in (0.8, 1.0, 1.2)
        for c in (1, 2, 3, 4)
    ]
    cs, _ = calibrate(obs)
    assert abs(cs.m5) < 1e-9
    assert abs(cs.m7) < 1e-9
    assert math.isclose(cs.m6, 150.0, rel_tol=1e-9)


def test_calibration_insufficient_span():
    a15 = builtin_set("A15")
    with pytest.raises(InsufficientSpan):
        calibrate([(1.0, c, derive_params(a15, 1.0, c)) for c in (1, 2, 3, 4)])
    with pytest.raises(InsufficientSpan):
        calibrate(grid_observations(a15, freqs=(0.8, 1.0)))
    with pytest.raises(InsufficientSpan):
        calibrate([(f, 2, derive_params(a15, f, 2)) for f in GRIDS["A15"] for _ in (0, 1)])


def _a15(f, c, a0=None, a2=None):
    p = derive_params(builtin_set("A15"), f, c)
    return f, c, ModelParams(p.a0 if a0 is None else a0, p.a1, p.a2 if a2 is None else a2)


SINGULAR = {
    # three frequencies overall, but only two of them vary the core count
    "core span local": (
        [_a15(f, c) for f in (0.8, 1.0) for c in (1, 2)] + [_a15(1.2, 3)] * 4,
        "need >= 3 frequencies with >= 2 core counts each to shape g_s(f); got 2"),
    # f = 0.4 + 0.2*c makes the a1 design's columns (f, 1, 5 - c) dependent
    "frequency affine in cores": (
        [_a15(0.4 + 0.2 * c, c) for c in (1, 2, 3) for _ in range(3)],
        "a1 regression design is rank-deficient"),
    "a2 averages to zero": (
        [_a15(f, c, a2=33.0 * (-1) ** c) for f in GRIDS["A15"] for c in (1, 2, 3, 4)],
        "observed a2 values average to zero"),
    # three frequencies a rounding step apart vary the core count; two
    # others, one core count each, keep the a1 design full rank
    "g_s design rank-deficient": (
        [_a15(f, c) for f in (1.0, 1.0 + 2**-52, 1.0 + 2**-51) for c in (1, 2)]
        + [_a15(0.5, 1), _a15(2.0, 3)],
        "g_s quadratic design is rank-deficient"),
    "g_o zero": (
        [_a15(f, c, a0=0.25 * c) for f in GRIDS["A15"] for c in (1, 2, 3, 4)],
        "a0 intercept g_o is zero at some frequency"),
    # flat too, but the zero intercept is what the message names
    "a0 zero": (
        [_a15(f, c, a0=0.0) for f in GRIDS["A15"] for c in (1, 2, 3, 4)],
        "a0 intercept g_o is zero at some frequency"),
    "m4 zero": (
        [_a15(f, c, a0=0.25) for f in GRIDS["A15"] for c in (1, 2, 3, 4)],
        "degenerate g_s/g_o ratio"),
    # the per-frequency slopes of a flat a0 = 0.3 round to about 1e-17
    "m4 rounding noise": (
        [_a15(f, c, a0=0.3) for f in GRIDS["A15"] for c in (1, 2, 3, 4)],
        "degenerate g_s/g_o ratio"),
}


@pytest.mark.parametrize("case", SINGULAR)
def test_calibration_singular(case):
    obs, message = SINGULAR[case]
    with pytest.raises(SingularFit) as exc:
        calibrate(obs)
    assert str(exc.value) == message


@pytest.mark.parametrize(("freq", "cores"), [(1.0, 2.5), (1.0, True), (True, 2), (1.0, 2.0)])
def test_calibration_rejects_fractional_or_boolean_operating_points(freq, cores):
    obs = grid_observations(builtin_set("A15"))
    obs[0] = (freq, cores, obs[0][2])
    with pytest.raises(InvalidParams):
        calibrate(obs)


def test_operating_point_rejects_booleans():
    with pytest.raises(InvalidCores):
        TraceMeta("x", 1.0, True)
    with pytest.raises(InvalidFreq):
        TraceMeta("x", True, 2)


def test_model_power_rejects_non_finite_temperature():
    params = derive_params(builtin_set("A7"), 1.0, 2)
    for temp in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams, match="temperature must be finite"):
            params.power(temp)


def test_coefficient_set_dict_round_trip():
    cs = builtin_set("A15")
    again = CoefficientSet.from_dict(cs.to_dict())
    assert again == cs
    with pytest.raises(InvalidParams):
        CoefficientSet.from_dict({"label": "x", "m": [1, 2, 3], "a2": 30.0})
    good = cs.to_dict()
    for value in (True, "33.1", None, 10**400, math.inf, math.nan, [33.1]):
        with pytest.raises(InvalidParams):
            CoefficientSet.from_dict({**good, "a2": value})
        with pytest.raises(InvalidParams):
            CoefficientSet.from_dict({**good, "m": [value, *good["m"][1:]]})
    for key in good:
        with pytest.raises(InvalidParams):
            CoefficientSet.from_dict({k: v for k, v in good.items() if k != key})
    with pytest.raises(InvalidParams, match="label must be a string"):
        CoefficientSet.from_dict({**good, "label": 5})
    for data in ([good], "A15", None):
        with pytest.raises(InvalidParams, match="^a coefficient set must be an object, got "):
            CoefficientSet.from_dict(data)

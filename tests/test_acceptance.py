"""Acceptance gate: nine release criteria, one printed pass/fail line each.

Run with plain ``pytest``; the per-criterion lines bypass output capture so
they always appear in the terminal log. Expected values marked as frozen
were computed by independent oracles (hand evaluation, series expansions,
or pre-build studies) before the implementation existed and must not be
regenerated from the code under test.
"""

import json
import math

import numpy as np
import pytest

from thermopower.cli import main
from thermopower.debias import DebiasSpec, debias, fit_eta
from thermopower.fitting import (
    FitKind,
    compare_models,
    fit_exponential,
    sign_test,
)
from thermopower.powermodel import builtin_set, calibrate, derive_params
from thermopower.sensor import SensorModel, b_factor, correct_series, erf
from thermopower.trace import (
    Trace,
    TraceMeta,
    generate_synthetic_trace,
    parse_trace,
    write_trace,
)

# Frozen synthetic suite: all stochastic criteria use exactly these settings.
META = TraceMeta("SYN", 1.0, 4)
PARAMS = (0.3, 100.0, 33.0)
SWEEP = (25.0, 85.0, 20)
NOISE_W = 0.002  # 2 mW gaussian noise
SEEDS = tuple(range(12))
TRUNCATE_AT_C = 55.0
REF_TEMP_C = 55.0
NOISY_RECOVERY_SEED = 1

# Frozen hand evaluations of the built-in coefficient sets.
A7_POWER_50C_05GHZ_3CORES = 0.27320476245604647
A15_POWER_50C_12GHZ_4CORES = 2.473886778818005

# Distant-sensor constants for the correction-factor limit checks.
LIMIT_MODEL = SensorModel(4.125e-7, 8.25, 36.7, 50.0, 50.02)
# Lag simulation that reproduces the concave-to-convex bend reversal.
BEND_MODEL = SensorModel(4.125e-7, 8.25e-3, 36.7, 25.0, 55.0)


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return [
        generate_synthetic_trace(META, PARAMS, SWEEP, noise=NOISE_W, seed=s)
        for s in SEEDS
    ]


@pytest.fixture(scope="module")
def comparison(suite):
    return compare_models(suite)


@pytest.fixture(scope="module")
def comparison_truncated(suite):
    truncated = []
    for t in suite:
        keep = t.temp_c <= TRUNCATE_AT_C
        truncated.append(Trace(t.meta, t.time_s[keep], t.temp_c[keep], t.power_w[keep]))
    return compare_models(truncated)


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


# --- 1. built-in model exactness ---

def test_criterion_1_builtin_model_exactness(capsys):
    checks = (
        (["model", "eval", "--proc", "A7", "--temp", "50", "--freq", "0.5",
          "--cores", "3"], A7_POWER_50C_05GHZ_3CORES),
        (["model", "eval", "--proc", "A15", "--temp", "50", "--freq", "1.2",
          "--cores", "4"], A15_POWER_50C_12GHZ_4CORES),
    )
    worst = 0.0
    for args, frozen in checks:
        code, out = run_cli(args, capsys)
        assert code == 0
        worst = max(worst, abs(float(out.strip()) - frozen) / frozen)
    _report(capsys, 1, worst <= 1e-9,
            f"A7/A15 eval vs frozen hand values, max rel err {worst:.3e} (tol 1e-9)")


# --- 2. fit recovery ---

def test_criterion_2_fit_recovery(capsys):
    noiseless = fit_exponential(generate_synthetic_trace(META, PARAMS, SWEEP))
    rel_nl = max(
        abs(c - p) / abs(p) for c, p in zip(noiseless.coeffs, PARAMS)
    )
    noisy = fit_exponential(
        generate_synthetic_trace(
            META, PARAMS, SWEEP, noise=NOISE_W, seed=NOISY_RECOVERY_SEED
        )
    )
    a0, a1, a2 = noisy.coeffs
    a0_rel = abs(a0 - PARAMS[0]) / PARAMS[0]
    a1_abs = abs(a1 - PARAMS[1])
    a2_rel = abs(a2 - PARAMS[2]) / PARAMS[2]
    ok = (rel_nl <= 1e-6 and a0_rel <= 0.05 and a1_abs <= 1.0 and a2_rel <= 0.02)
    _report(capsys, 2, ok,
            f"noiseless rel {rel_nl:.2e} (tol 1e-6); noisy a0 {a0_rel:.2%}"
            f" (tol 5%), a1 {a1_abs:.3f} C (tol 1), a2 {a2_rel:.2%} (tol 2%)")


# --- 3. model-family ordering ---

def test_criterion_3_model_family_ordering(capsys, comparison, comparison_truncated):
    agg = comparison.aggregated
    ordered = (
        agg[FitKind.EXPONENTIAL] < agg[FitKind.QUADRATIC] < agg[FitKind.LINEAR]
    )
    p_eq = comparison.p_values[(FitKind.EXPONENTIAL, FitKind.QUADRATIC)]
    p_ql = comparison.p_values[(FitKind.QUADRATIC, FitKind.LINEAR)]
    p_eq_t = comparison_truncated.p_values[(FitKind.EXPONENTIAL, FitKind.QUADRATIC)]
    p_ql_t = comparison_truncated.p_values[(FitKind.QUADRATIC, FitKind.LINEAR)]
    ok = (
        ordered
        and p_eq < 0.01
        and p_ql < 0.01
        and p_eq_t >= 0.01
        and p_ql_t < 0.01
    )
    _report(capsys, 3, ok,
            f"full range ordered={ordered}, p(exp,quad)={p_eq:.6g},"
            f" p(quad,lin)={p_ql:.6g}; truncated p(exp,quad)={p_eq_t:.6g}"
            f" (>=0.01), p(quad,lin)={p_ql_t:.6g}")


# --- 4. error-ratio sanity ---

def test_criterion_4_error_ratio_sanity(capsys, comparison):
    agg = comparison.aggregated
    quad_over_exp = agg[FitKind.QUADRATIC] / agg[FitKind.EXPONENTIAL]
    lin_over_quad = agg[FitKind.LINEAR] / agg[FitKind.QUADRATIC]
    ok = quad_over_exp >= 1.5 and lin_over_quad >= 3.0
    _report(capsys, 4, ok,
            f"quad/exp {quad_over_exp:.2f} (>=1.5), lin/quad"
            f" {lin_over_quad:.2f} (>=3)")


# --- 5. debias effectiveness ---

def test_criterion_5_debias_effectiveness(capsys, suite):
    quad = debias(suite[0], fit_eta(suite[0], FitKind.QUADRATIC, REF_TEMP_C))
    span30 = generate_synthetic_trace(
        META, PARAMS, (25.0, 55.0, 20), noise=NOISE_W, seed=0
    )
    lin = debias(span30, fit_eta(span30, FitKind.LINEAR, REF_TEMP_C))
    ok = (
        quad.metrics.fl <= 1 / 3
        and abs(quad.metrics.rat) < 0.01
        and lin.metrics.fl <= 1 / 2
    )
    _report(capsys, 5, ok,
            f"quadratic FL {quad.metrics.fl:.3f} (<=1/3), RAT"
            f" {quad.metrics.rat:+.4f} (<0.01); linear FL on 30 C span"
            f" {lin.metrics.fl:.3f} (<=1/2)")


# --- 6. exact cancellation ---

def _exact_trace(power_of_temp):
    temps = [float(temp) for temp in range(25, 45)]
    times = [0.25 * i for i in range(len(temps))]
    return Trace(META, times, temps, [power_of_temp(temp) for temp in temps])


def test_criterion_6_exact_cancellation(capsys):
    # dyadic coefficients and integer temperatures make the transform exact
    lin_trace = _exact_trace(lambda t: 0.5 * t + 2.0)
    lin = debias(lin_trace, DebiasSpec(FitKind.LINEAR, (0.5,), 40.0))
    quad_trace = _exact_trace(lambda t: 0.25 * t * t + 0.5 * t + 2.0)
    quad = debias(
        quad_trace, DebiasSpec(FitKind.QUADRATIC, (0.25, 0.5), 40.0)
    )
    spreads = (
        max(lin.ref_power) - min(lin.ref_power),
        max(quad.ref_power) - min(quad.ref_power),
    )
    ok = all(s == 0.0 for s in spreads) and all(
        abs(p - d.ref_power[0]) <= 1e-12
        for d in (lin, quad)
        for p in d.ref_power
    )
    _report(capsys, 6, ok,
            f"transformed spreads {spreads} (need exactly 0, constant to 1e-12)")


# --- 7. calibration round-trip ---

GRIDS = {"A7": (0.25, 0.3, 0.4, 0.5, 0.6), "A15": (0.8, 1.0, 1.2, 1.4, 1.6)}


def test_criterion_7_calibration_round_trip(capsys):
    worst = 0.0
    for label, freqs in GRIDS.items():
        true = builtin_set(label)
        observations = [
            (f, c, derive_params(true, f, c)) for f in freqs for c in (1, 2, 3, 4)
        ]
        got, _ = calibrate(observations)
        for recovered, expected in zip(got.m + (got.a2,), true.m + (true.a2,)):
            worst = max(worst, abs(recovered - expected) / abs(expected))
    _report(capsys, 7, worst <= 1e-6,
            f"A7+A15 grid calibration, worst coefficient rel err {worst:.3e}"
            " (tol 1e-6)")


# --- 8. sensor correction ---

def erf_taylor(x: float) -> float:
    """Independent Maclaurin-series oracle for erf."""
    term = x
    total = x
    n = 0
    while n < 400:
        n += 1
        term *= -x * x / n
        contribution = term / (2 * n + 1)
        total += contribution
        if abs(contribution) < 1e-18 * max(1.0, abs(total)):
            break
    return 2.0 / math.sqrt(math.pi) * total


def _second_differences(pairs):
    pts = sorted(pairs)
    return [
        ((y2 - y1) / (x2 - x1) - (y1 - y0) / (x1 - x0)) / (x2 - x0)
        for (x0, y0), (x1, y1), (x2, y2) in zip(pts, pts[1:], pts[2:])
    ]


def test_criterion_8_sensor_correction(capsys):
    grid = np.linspace(-4.0, 4.0, 161)
    erf_err = max(abs(erf(float(x)) - erf_taylor(float(x))) for x in grid)

    lim0 = LIMIT_MODEL.t_init / LIMIT_MODEL.t_inf
    lim_inf = LIMIT_MODEL.t_inf / LIMIT_MODEL.t_init
    err0 = abs(b_factor(LIMIT_MODEL, 1e-9) - lim0) / lim0
    err_inf = abs(b_factor(LIMIT_MODEL, 1e9) - lim_inf) / lim_inf

    times = [5.0 + (150.0 - 5.0) * i / 39 for i in range(40)]
    cpu = [30.0 * (1.0 - math.exp(-t / 36.7)) + 25.0 for t in times]
    sensed = [tc / b_factor(BEND_MODEL, t) for t, tc in zip(times, cpu)]
    power = [math.exp((tc - 100.0) / 33.0) + 0.3 for tc in cpu]
    raw = _second_differences(zip(sensed, power))
    corrected_temps = [temp for _, temp in correct_series(BEND_MODEL, list(zip(times, sensed)))]
    fixed = _second_differences(zip(corrected_temps, power))
    flipped = sum(1 for r, f in zip(raw, fixed) if r < 0 < f) / len(raw)

    ok = erf_err <= 1e-7 and err0 <= 1e-4 and err_inf <= 1e-4 and flipped >= 0.9
    _report(capsys, 8, ok,
            f"erf vs Taylor max err {erf_err:.3e} (tol 1e-7); B limits rel err"
            f" {err0:.3e}/{err_inf:.3e} (tol 1e-4); bend sign flipped on"
            f" {flipped:.0%} of interior points (>=90%)")


# --- 9. format / determinism ---

def _cli_twice(args, capsys, outputs):
    """Run a CLI command twice; return (stdout pair, artifact byte pairs)."""
    outs = []
    artifacts = []
    for _ in range(2):
        code, out = run_cli(args, capsys)
        assert code == 0
        outs.append(out)
        artifacts.append([p.read_bytes() for p in outputs])
    return outs, artifacts


def test_criterion_9_format_and_determinism(capsys, tmp_path):
    # bit-exact CSV round trip through parse/serialize
    trace = generate_synthetic_trace(META, PARAMS, SWEEP, noise=NOISE_W, seed=3)
    text = write_trace(trace)
    round_trip = write_trace(parse_trace(text)) == text

    # every subcommand byte-deterministic for fixed seed and inputs
    t_csv = tmp_path / "t.csv"
    cal_dir = tmp_path / "obs"
    cal_dir.mkdir()
    true = builtin_set("A7")
    for i, (f, c) in enumerate((f, c) for f in GRIDS["A7"] for c in (1, 2, 3, 4)):
        p = derive_params(true, f, c)
        (cal_dir / f"o{i:02d}.json").write_text(json.dumps(
            {"freq_ghz": f, "cores": c, "a0": p.a0, "a1": p.a1, "a2": p.a2}))
    sensor_csv = tmp_path / "s.csv"
    sensor_csv.write_text("time_s,temp_c\n" + "".join(
        f"{t!r},{25.0 + t!r}\n" for t in (5.0, 10.0, 20.0, 40.0)))
    model_json = tmp_path / "m.json"
    model_json.write_text(json.dumps({
        "alpha": BEND_MODEL.alpha, "a": BEND_MODEL.a, "b": BEND_MODEL.b,
        "t_init_c": BEND_MODEL.t_init, "t_inf_c": BEND_MODEL.t_inf}))

    commands = [
        (["gen", "--params", "0.3,100.0,33.0", "--sweep", "25,85,20",
          "--noise", "0.002", "--seed", "3", "--out", t_csv], [t_csv]),
        (["fit", t_csv, "--json"], []),
        (["model", "eval", "--proc", "A7", "--temp", "50", "--freq", "0.5",
          "--cores", "3", "--json"], []),
        (["model", "calibrate", cal_dir, "--json",
          "--out", tmp_path / "cal.json"], [tmp_path / "cal.json"]),
        (["debias", t_csv, "--ref-temp", "55", "--kind", "quad", "--json",
          "--out", tmp_path / "d.csv"], [tmp_path / "d.csv"]),
        (["sensor-correct", sensor_csv, "--model-json", model_json, "--json",
          "--out", tmp_path / "c.csv"], [tmp_path / "c.csv"]),
    ]
    deterministic = True
    for args, outputs in commands:
        outs, artifacts = _cli_twice(args, capsys, outputs)
        deterministic &= outs[0] == outs[1] and artifacts[0] == artifacts[1]

    # generated trace file itself round-trips bit-exactly
    round_trip &= write_trace(parse_trace(t_csv.read_bytes())) == t_csv.read_text()

    # sign test is symmetric in its arguments
    rng = np.random.default_rng(20260825)
    symmetric = True
    for _ in range(100):
        n = int(rng.integers(4, 16))
        a = rng.uniform(0.1, 2.0, n).tolist()
        b = rng.uniform(0.1, 2.0, n).tolist()
        symmetric &= sign_test(a, b) == sign_test(b, a)

    ok = round_trip and deterministic and symmetric
    _report(capsys, 9, ok,
            f"CSV round trip {round_trip}; 6 subcommands byte-deterministic"
            f" {deterministic}; sign-test symmetric on 100 pairs {symmetric}")

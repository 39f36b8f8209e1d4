"""End-to-end tests for the ``thermo`` command line tool.

Most cases drive ``cli.main`` in-process and inspect the JSON report;
byte-determinism runs the real console entry in a subprocess.
"""

import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from thermopower import cli
from thermopower.cli import main
from thermopower.sensor import SensorModel, b_factor, erf
from thermopower.trace import (
    TraceMeta,
    generate_synthetic_trace,
    parse_table,
    write_trace,
)

GEN = ["gen", "--params", "0.3,100.0,33.0", "--sweep", "25,85,20",
       "--noise", "0.002", "--seed", "0"]

COLLINEAR = (
    "#processor=BENCH\n"
    "#freq_ghz=1.0\n"
    "#cores=2\n"
    "time_s,temp_c,power_w\n"
    "0.0,30.0,1.0\n"
    "0.2,40.0,1.2\n"
    "0.4,50.0,1.4\n"
)

GOLDEN_FLEET = Path(__file__).parent / "golden" / "inputs" / "fleet"

FLAT = (
    "#processor=FLAT\n"
    "#freq_ghz=1.0\n"
    "#cores=2\n"
    "time_s,temp_c,power_w\n"
    "0.0,30.0,2.0\n"
    "0.2,40.0,2.0\n"
    "0.4,50.0,2.0\n"
)


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(list(args) + ["--json"], capsys)
    return code, json.loads(out), err


def gen_trace(tmp_path, capsys, name="t.csv", seed=0):
    path = tmp_path / name
    args = GEN[:-1] + [str(seed), "--out", str(path), "--quiet"]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    return path


# --- gen ---

def test_gen_writes_trace_and_prints_content_hash(tmp_path, capsys):
    path = tmp_path / "g.csv"
    code, out, _ = run_cli(GEN + ["--out", path], capsys)
    assert code == 0
    digest = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    assert out.strip() == digest
    meta, columns, rows, _ = parse_table(path.read_text())
    assert columns == ["time_s", "temp_c", "power_w"]
    assert len(rows) == 20


def test_gen_same_seed_same_bytes_different_seed_differs(tmp_path, capsys):
    paths = [gen_trace(tmp_path, capsys, f"g{i}.csv", seed=s)
             for i, s in enumerate((5, 5, 6))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_gen_requires_explicit_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["gen", "--params", "0.3,100,33", "--sweep", "25,85,20",
              "--out", str(tmp_path / "g.csv")])
    assert exc_info.value.code == 2


def test_gen_rejects_bad_params(tmp_path, capsys):
    code, _, err = run_cli(
        ["gen", "--params", "0.3,100,0", "--sweep", "25,85,20",
         "--seed", "0", "--out", tmp_path / "g.csv"], capsys)
    assert code == 2
    assert "error:" in err


# 1e15 samples fail numpy's allocation at once
@pytest.mark.parametrize("count, message", [
    ("1e999", "must be a whole number, got inf"),
    ("20.5", "must be a whole number, got 20.5"),
    ("1e15", "more samples than fit in memory"),
])
def test_gen_bad_sweep_count_exit_2(tmp_path, capsys, count, message):
    code, _, err = run_cli(
        ["gen", "--params", "0.3,100,33", "--sweep", f"25,85,{count}",
         "--seed", "1", "--out", tmp_path / "g.csv"], capsys)
    assert code == 2
    assert err.startswith("error: gen: --sweep COUNT") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("noise", ["0.1", "0"])  # the seed is checked with no noise as well
def test_gen_negative_seed_exit_2_naming_the_seed(tmp_path, capsys, noise):
    out = tmp_path / "g.csv"
    assert run_cli(["gen", "--params", "0.3,100,33", "--sweep", "25,85,20", "--noise", noise,
                    "--seed", "-1", "--out", out], capsys) == (
        2, "", "error: gen: seed must be an int >= 0, got -1\n")
    assert not out.exists()


# --- fit ---

def test_fit_linear_recovers_exact_line(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text(COLLINEAR)
    code, report, _ = run_json(["fit", path, "--model", "linear"], capsys)
    assert code == 0
    fit = report["results"]["traces"][0]["fits"]["linear"]
    assert fit["converged"] is True
    assert fit["error"] == pytest.approx(0.0, abs=1e-12)
    slope, intercept = fit["coeffs"]
    assert slope == pytest.approx(0.02, rel=1e-9)
    assert intercept == pytest.approx(0.4, rel=1e-9)


def test_fit_all_report_shape(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys, "t0.csv", seed=0)
    t1 = gen_trace(tmp_path, capsys, "t1.csv", seed=1)
    code, report, _ = run_json(["fit", t0, t1], capsys)
    assert code == 0
    assert report["schema"] == 1
    assert report["tool"]["name"] == "thermo"
    assert set(report["inputs"]) == {str(t0), str(t1)}
    for digest in report["inputs"].values():
        assert digest.startswith("sha256:") and len(digest) == 7 + 64
    results = report["results"]
    assert len(results["traces"]) == 2
    for entry in results["traces"]:
        assert set(entry["fits"]) == {"linear", "quadratic", "exponential"}
        assert entry["fits"]["exponential"]["termination"] == "converged"
    assert set(results["sign_tests"]) == {
        "exponential_vs_quadratic", "quadratic_vs_linear", "exponential_vs_linear"
    }
    agg = results["aggregated"]
    assert agg["exponential"] < agg["quadratic"] < agg["linear"]
    assert results["failures"] == []


def test_fit_group_by_processor_and_cores(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys, "t0.csv", seed=0)
    other = tmp_path / "other.csv"
    code, _, _ = run_cli(
        ["gen", "--params", "0.25,185,33", "--sweep", "30,70,12",
         "--noise", "0.001", "--seed", "7", "--processor", "BENCH",
         "--freq", "0.5", "--cores", "2", "--out", other, "--quiet"], capsys)
    assert code == 0
    code, report, _ = run_json(
        ["fit", t0, other, "--group-by", "proc-cores"], capsys)
    assert code == 0
    groups = report["results"]["groups"]
    assert set(groups) == {"SYN/c4", "BENCH/c2"}
    assert set(groups["SYN/c4"]) == {"linear", "quadratic", "exponential"}


def test_fit_failure_gives_exit_1_and_partial_report(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT)
    code, report, _ = run_json(["fit", path, "--model", "exp"], capsys)
    assert code == 1
    assert report["results"]["traces"][0]["fits"]["exponential"] is None
    assert "message" in report["results"]["traces"][0]


def test_fit_all_marks_failures_and_keeps_other_families(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT)
    code, report, _ = run_json(["fit", path], capsys)
    assert code == 1
    results = report["results"]
    assert results["traces"][0]["fits"]["exponential"] is None
    assert results["traces"][0]["fits"]["linear"] is not None
    assert results["failures"] and results["failures"][0]["kind"] == "exponential"


def test_fit_malformed_input_exit_2_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "#processor=X\n#freq_ghz=1.0\n#cores=2\n"
        "time_s,temp_c,power_w\n0.0,30.0,not-a-number\n"
    )
    code, out, err = run_cli(["fit", path], capsys)
    assert code == 2
    assert out == ""
    assert str(path) in err and "line 5" in err


def test_fit_reads_a_trace_with_a_byte_order_mark_and_digests_its_bytes(tmp_path, capsys):
    plain = gen_trace(tmp_path, capsys)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    _, report, _ = run_json(["fit", plain, marked], capsys)
    fits = [entry["fits"] for entry in report["results"]["traces"]]
    assert fits[0] == fits[1]
    digest = hashlib.sha256(marked.read_bytes()).hexdigest()
    assert report["inputs"][str(marked)] == "sha256:" + digest


def test_fit_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["fit", tmp_path / "nope.csv"], capsys)
    assert code == 2
    assert "error:" in err


def test_fit_plot_is_sorted_and_reparseable(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys)
    plot = tmp_path / "plot.csv"
    code, _, _ = run_cli(
        ["fit", t0, "--model", "exp", "--plot", plot, "--quiet"], capsys)
    assert code == 0
    _, columns, rows, _ = parse_table(plot.read_text())
    assert columns == ["temp_c", "power_w"]
    temps = [r[0] for r in rows]
    assert temps == sorted(temps)
    assert len(rows) == 20


@pytest.mark.parametrize("model", ["exp", "all"])
def test_fit_plot_of_a_failed_fit_is_a_warning_and_leaves_the_file(tmp_path, capsys, model):
    flat = tmp_path / "flat.csv"
    flat.write_text(FLAT)
    plot = tmp_path / "plot.csv"
    plot.write_text("an earlier plot\n")
    argv = ["fit", flat, gen_trace(tmp_path, capsys), "--model", model, "--plot", plot]
    warning = f"no plot written: the exponential fit of {flat} failed"
    code, report, _ = run_json(argv, capsys)
    assert (code, report["warnings"]) == (1, [warning])
    code, out, _ = run_cli(argv, capsys)
    assert code == 1 and out.endswith(f"\n{warning}\n")
    assert plot.read_text() == "an earlier plot\n"


# --- model eval ---

def test_model_eval_prints_nine_significant_digits(capsys):
    code, out, _ = run_cli(
        ["model", "eval", "--proc", "A7", "--temp", "50",
         "--freq", "0.5", "--cores", "3"], capsys)
    assert code == 0
    text = out.strip()
    assert float(text) == pytest.approx(0.27320476245604647, rel=1e-12)
    digits = sum(c.isdigit() for c in text)
    assert digits >= 9


def test_model_eval_json_carries_derived_params(capsys):
    code, report, _ = run_json(
        ["model", "eval", "--proc", "A15", "--temp", "50",
         "--freq", "1.2", "--cores", "4"], capsys)
    assert code == 0
    results = report["results"]
    assert results["power_w"] == pytest.approx(2.473886778818005, rel=1e-12)
    assert results["params"]["a0"] == pytest.approx(2.2915621435059035, rel=1e-12)
    assert results["params"]["a1"] == pytest.approx(106.3436, rel=1e-9)


def test_model_eval_temperature_out_of_double_range_exit_2(capsys):
    code, out, err = run_cli(
        ["model", "eval", "--proc", "A7", "--temp", "1e5", "--freq", "1", "--cores", "2"],
        capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: model eval: exp((T - a1)/a2) leaves the double range")


def test_model_eval_exponent_overflowing_to_inf_exit_2(tmp_path, capsys):
    # T - a1 = 1e308 + 1e308 is inf, whose exp is inf rather than an OverflowError
    path = tmp_path / "coeffs.json"
    path.write_text('{"label": "x", "m": [0.028, -0.093, 0.371, 2.202, -38.242, -1e308, 8.43], '
                    '"a2": 1.0}')
    code, out, err = run_cli(
        ["model", "eval", "--coeffs", path, "--temp", "1e308", "--freq", "1", "--cores", "2",
         "--json"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: model eval: exp((T - a1)/a2) leaves the double range: "
                   "(T - a1)/a2 reaches inf\n")


def test_model_eval_unknown_label_exit_2(capsys):
    code, _, err = run_cli(
        ["model", "eval", "--proc", "Z9", "--temp", "50",
         "--freq", "1", "--cores", "2"], capsys)
    assert code == 2
    assert "Z9" in err


def test_model_eval_coeffs_with_scalar_m_exit_2(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text('{"label": "x", "m": 5, "a2": 33.0}')
    code, _, err = run_cli(
        ["model", "eval", "--coeffs", path, "--temp", "50",
         "--freq", "1", "--cores", "2"], capsys)
    assert code == 2
    assert "Traceback" not in err and "m must be a list" in err


def test_model_eval_rejects_bad_operating_point(capsys):
    code, _, err = run_cli(
        ["model", "eval", "--proc", "A7", "--temp", "50",
         "--freq", "0.5", "--cores", "9"], capsys)
    assert code == 2


# --- model calibrate ---

def write_observations(tmp_path, freqs=(0.25, 0.3, 0.4, 0.5, 0.6)):
    from thermopower.powermodel import builtin_set, derive_params

    cs = builtin_set("A7")
    directory = tmp_path / "obs"
    directory.mkdir()
    i = 0
    for f in freqs:
        for c in (1, 2, 3, 4):
            p = derive_params(cs, f, c)
            (directory / f"obs_{i:02d}.json").write_text(json.dumps(
                {"freq_ghz": f, "cores": c, "a0": p.a0, "a1": p.a1, "a2": p.a2}
            ) + "\n")
            i += 1
    return directory


def test_calibrate_directory_round_trips_through_eval(tmp_path, capsys):
    directory = write_observations(tmp_path)
    coeffs_path = tmp_path / "cal.json"
    code, report, _ = run_json(
        ["model", "calibrate", directory, "--label", "A7cal",
         "--out", coeffs_path], capsys)
    assert code == 0
    assert report["results"]["coeffs"]["label"] == "A7cal"
    assert report["results"]["diagnostics"]["n_observations"] == 20
    assert report["results"]["diagnostics"]["a1_rms"] < 1e-9

    code, out, _ = run_cli(
        ["model", "eval", "--coeffs", coeffs_path, "--temp", "50",
         "--freq", "0.5", "--cores", "3"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.27320476245604647, rel=1e-9)


def test_calibrate_single_file_list_form(tmp_path, capsys):
    directory = write_observations(tmp_path)
    combined = tmp_path / "all.json"
    combined.write_text(json.dumps(
        [json.loads(p.read_text()) for p in sorted(directory.iterdir())]))
    code, report, _ = run_json(["model", "calibrate", combined], capsys)
    assert code == 0
    assert report["results"]["diagnostics"]["n_observations"] == 20


def test_calibrate_list_of_numbers_exit_2(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text("[1.0, 2.0, 3.0]")
    code, _, err = run_cli(["model", "calibrate", path], capsys)
    assert code == 2
    assert "Traceback" not in err and "must be an object" in err


def test_calibrate_infinite_core_count_exit_2(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text('[{"freq_ghz": 1.0, "cores": 1e999, "a0": 0.1, "a1": 50.0, "a2": 33.0}]')
    code, _, err = run_cli(["model", "calibrate", path], capsys)
    assert code == 2
    assert "Traceback" not in err and "must be numbers" in err


@pytest.mark.filterwarnings("error")
def test_calibrate_residual_overflow_exit_1(tmp_path, capsys):
    from thermopower.powermodel import builtin_set, derive_params

    obs = [{"freq_ghz": f, "cores": c, "a0": p.a0, "a1": p.a1, "a2": p.a2}
           for f in (0.4, 0.6, 0.8) for c in (1, 2, 3)
           for p in [derive_params(builtin_set("A7"), f, c)]]
    obs[4]["a0"] = 1e300
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(obs))
    code, report, err = run_json(["model", "calibrate", path], capsys)
    assert code == 1 and err == ""
    assert report["results"]["error"].startswith("SingularFit: calibration a0_rms is inf")


@pytest.mark.parametrize("field", ['"cores": 2.5', '"cores": true', '"freq_ghz": true'])
def test_calibrate_fractional_or_boolean_operating_point_exit_2(tmp_path, capsys, field):
    directory = write_observations(tmp_path)
    first = sorted(directory.iterdir())[0]
    entry = json.loads(first.read_text())
    entry.update(json.loads("{" + field + "}"))
    first.write_text(json.dumps(entry))
    code, out, err = run_cli(["model", "calibrate", directory], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {first}: an observation needs a number of GHz")


def test_calibrate_whole_float_core_count_is_the_count(tmp_path, capsys):
    directory = write_observations(tmp_path)
    code, report, _ = run_json(["model", "calibrate", directory], capsys)
    for path in directory.iterdir():
        path.write_text(path.read_text().replace('"cores": 2', '"cores": 2.0'))
    code_float, report_float, _ = run_json(["model", "calibrate", directory], capsys)
    assert code == code_float == 0
    assert report_float["results"] == report["results"]


def test_calibrate_insufficient_span_exit_1(tmp_path, capsys):
    directory = write_observations(tmp_path, freqs=(0.5, 0.6))
    code, report, _ = run_json(["model", "calibrate", directory], capsys)
    assert code == 1
    assert "InsufficientSpan" in report["results"]["error"]


# --- debias ---

def test_debias_writes_four_column_csv_and_metrics(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys)
    out_path = tmp_path / "ref.csv"
    code, report, _ = run_json(
        ["debias", t0, "--ref-temp", "55", "--kind", "quad",
         "--out", out_path], capsys)
    assert code == 0
    metrics = report["results"]["metrics"]
    assert 0 < metrics["fl"] < 1 / 3
    assert abs(metrics["rat"]) < 0.01
    assert metrics["afl_percent"] > 50
    meta, columns, rows, _ = parse_table(out_path.read_text())
    assert columns == ["time_s", "temp_c", "power_w", "power_ref_w"]
    assert meta["ref_temp_c"] == "55.0"
    assert meta["debias_kind"] == "quadratic"
    assert len(rows) == 20


def test_debias_out_of_range_reference_recorded_as_warning(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys)
    code, report, _ = run_json(
        ["debias", t0, "--ref-temp", "200", "--kind", "linear",
         "--out", tmp_path / "ref.csv"], capsys)
    assert code == 0
    assert any("outside the measured range" in w for w in report["warnings"])


def test_debias_explicit_eta_skips_fitting(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text(COLLINEAR)
    code, report, _ = run_json(
        ["debias", path, "--ref-temp", "40", "--kind", "linear",
         "--eta", "0.02", "--out", tmp_path / "ref.csv"], capsys)
    assert code == 0
    assert report["results"]["spec"]["eta"] == [0.02]
    # exact line: every sample moves onto the value at 40 C
    _, _, rows, _ = parse_table((tmp_path / "ref.csv").read_text())
    for row in rows:
        assert row[3] == pytest.approx(1.2, rel=1e-12)


def test_debias_exp_eta_out_of_double_range_exit_2(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text(COLLINEAR)
    code, out, err = run_cli(
        ["debias", path, "--kind", "exp", "--eta", "0,0.001", "--ref-temp", "50",
         "--out", tmp_path / "ref.csv"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: debias: exp((T - a1)/a2) leaves the double range")
    assert "Traceback" not in err


def test_debias_wrong_eta_arity_exit_2(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text(COLLINEAR)
    code, _, err = run_cli(
        ["debias", path, "--ref-temp", "40", "--kind", "quad",
         "--eta", "0.02", "--out", tmp_path / "ref.csv"], capsys)
    assert code == 2


# --- sensor-correct ---

MODEL = SensorModel(4.125e-7, 8.25e-3, 36.7, 25.0, 55.0)


def write_lagged_series(tmp_path, with_power=True):
    lines = ["time_s,temp_c,power_w" if with_power else "time_s,temp_c"]
    n = 40
    for i in range(n):
        t = 5.0 + (150.0 - 5.0) * i / (n - 1)
        t_cpu = 30.0 * (1.0 - math.exp(-t / 36.7)) + 25.0
        t_sensor = t_cpu / b_factor(MODEL, t)
        row = f"{t!r},{t_sensor!r}"
        if with_power:
            row += f",{math.exp((t_cpu - 100.0) / 33.0) + 0.3!r}"
        lines.append(row)
    path = tmp_path / "sensor.csv"
    path.write_text("\n".join(lines) + "\n")
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "alpha": MODEL.alpha, "a": MODEL.a, "b": MODEL.b,
        "t_init_c": MODEL.t_init, "t_inf_c": MODEL.t_inf,
    }) + "\n")
    return path, model_path


def test_sensor_correct_restores_convexity(tmp_path, capsys):
    series, model_path = write_lagged_series(tmp_path)
    out_path = tmp_path / "fixed.csv"
    code, report, _ = run_json(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", out_path], capsys)
    assert code == 0
    results = report["results"]
    assert results["n_samples"] == 40
    assert results["b_first"] == pytest.approx(b_factor(MODEL, 5.0), rel=1e-12)
    assert results["b_last"] == pytest.approx(b_factor(MODEL, 150.0), rel=1e-12)
    assert results["convexity"]["raw_negative_fraction"] == 1.0
    assert results["convexity"]["corrected_positive_fraction"] == 1.0
    _, columns, rows, _ = parse_table(out_path.read_text())
    assert columns == ["time_s", "temp_c"]
    assert len(rows) == 40


def test_sensor_correct_accepts_two_column_input(tmp_path, capsys):
    series, model_path = write_lagged_series(tmp_path, with_power=False)
    code, report, _ = run_json(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 0
    assert "convexity" not in report["results"]


def test_sensor_correct_inline_model_flags(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    code, report, _ = run_json(
        ["sensor-correct", series, "--alpha", MODEL.alpha, "--a", MODEL.a,
         "--b", MODEL.b, "--t-init", MODEL.t_init, "--t-inf", MODEL.t_inf,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 0
    assert report["results"]["b_first"] == pytest.approx(
        b_factor(MODEL, 5.0), rel=1e-12)


def test_sensor_correct_missing_model_flags_exit_2(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    code, _, err = run_cli(
        ["sensor-correct", series, "--alpha", MODEL.alpha,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2
    assert "--t-init" in err


def test_sensor_correct_zero_time_sample_exit_2(tmp_path, capsys):
    series = tmp_path / "bad.csv"
    series.write_text("time_s,temp_c\n0.0,30.0\n1.0,31.0\n2.0,32.0\n")
    _, model_path = write_lagged_series(tmp_path)
    code, out, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2
    assert "t > 0" in err


def test_sensor_correct_series_of_non_ascii_digits_exit_2(tmp_path, capsys):
    series = tmp_path / "digits.csv"
    series.write_text("time_s,temp_c\n1.0,30.0\n2.0,3\u0661.0\n", encoding="utf-8")
    _, model_path = write_lagged_series(tmp_path)
    code, out, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert (code, out, err) == (2, "", f"error: {series}: line 3: not a number: '3\u0661.0'\n")


def test_sensor_correct_header_only_series_exit_2(tmp_path, capsys):
    series = tmp_path / "empty.csv"
    series.write_text("time_s,temp_c\n")
    _, model_path = write_lagged_series(tmp_path)
    code, out, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {series}: a series needs at least 1 sample, got 0\n"


def test_sensor_correct_zero_denominator_exit_1(tmp_path, capsys):
    # t_init = -10 makes the denominator cross zero at some finite time
    model = SensorModel(0.25, 1.0, 10.0, -10.0, 20.0)
    delta = model.t_inf - model.t_init

    def den(t):
        return delta * erf(model.a / math.sqrt(4.0 * model.alpha * t)) + model.t_init

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = (lo + hi) / 2
        if den(mid) > 0:
            lo = mid
        else:
            hi = mid
    t_zero = (lo + hi) / 2
    series = tmp_path / "zden.csv"
    series.write_text(
        "time_s,temp_c\n"
        f"{t_zero / 2!r},30.0\n{t_zero!r},31.0\n{t_zero * 2!r},32.0\n")
    model_path = tmp_path / "zden_model.json"
    model_path.write_text(json.dumps({
        "alpha": model.alpha, "a": model.a, "b": model.b,
        "t_init_c": model.t_init, "t_inf_c": model.t_inf,
    }))
    code, report, _ = run_json(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 1
    assert "ZeroDenominator" in report["results"]["error"]
    assert "index 1" in report["results"]["error"]


def test_sensor_correct_wrong_columns_exit_2(tmp_path, capsys):
    series = tmp_path / "wrong.csv"
    series.write_text("when,reading\n1.0,30.0\n")
    _, model_path = write_lagged_series(tmp_path)
    code, _, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2


# --- report plumbing ---

def test_out_report_file_matches_stdout_json(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys)
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["fit", t0, "--json", "--out-report", report_path], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(report_path.read_text())


def test_quiet_suppresses_human_output_but_not_json(tmp_path, capsys):
    t0 = gen_trace(tmp_path, capsys)
    code, out, _ = run_cli(["fit", t0, "--quiet"], capsys)
    assert code == 0
    assert out == ""
    code, out, _ = run_cli(["fit", t0, "--quiet", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["schema"] == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert "thermo" in capsys.readouterr().out


def test_cli_is_byte_deterministic_in_subprocess(tmp_path):
    env_args = [sys.executable, "-m", "thermopower.cli"]
    gen_cmd = env_args + GEN[:-1] + ["0", "--out", str(tmp_path / "t.csv")]
    first = subprocess.run(gen_cmd, capture_output=True)
    trace_bytes = (tmp_path / "t.csv").read_bytes()
    second = subprocess.run(gen_cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert (tmp_path / "t.csv").read_bytes() == trace_bytes

    fit_cmd = env_args + ["fit", str(tmp_path / "t.csv"), "--json"]
    runs = [subprocess.run(fit_cmd, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert b"\x1b[" not in runs[0].stdout  # no ANSI styling when piped


def test_sensor_correct_repeated_temperatures(tmp_path, capsys):
    series = tmp_path / "repeat.csv"
    series.write_text(
        "time_s,temp_c,power_w\n1.0,40.0,1.8\n2.0,45.0,1.9\n3.0,45.0,1.95\n"
        "4.0,50.0,2.1\n"
    )
    _, model_path = write_lagged_series(tmp_path)
    out_path = tmp_path / "fixed.csv"
    code, report, err = run_json(
        ["sensor-correct", series, "--model-json", model_path, "--out", out_path],
        capsys)
    assert code == 0 and "Traceback" not in err
    # both temperature-sorted triples repeat 45.0, so no fraction is defined
    assert report["results"]["convexity"]["raw_negative_fraction"] is None
    assert report["results"]["n_samples"] == 4


def test_sensor_correct_model_json_list_exit_2(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    model_path = tmp_path / "list.json"
    model_path.write_text("[1, 2]")
    code, _, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2
    assert "Traceback" not in err and "must be an object" in err


# --- input errors name the file whose content raised ---

def test_fit_error_names_the_bad_file_not_the_first(tmp_path, capsys):
    good = gen_trace(tmp_path, capsys, name="good.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "#processor=X\n#freq_ghz=1.0\n#cores=2\n"
        "time_s,temp_c,power_w\n0.0,30.0,not-a-number\n"
    )
    code, out, err = run_cli(["fit", good, bad], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 5: not a number: 'not-a-number'\n"


@pytest.mark.parametrize("cores, message", [
    ("7", "cores must be an integer in 1..4, got 7"), ("x", "bad #cores value: 'x'")])
def test_fit_a_known_header_with_a_bad_core_count_names_its_file(tmp_path, capsys, cores,
                                                                 message):
    paths = [gen_trace(tmp_path, capsys, name=f"t{i}.csv", seed=i) for i in range(3)]
    bad = tmp_path / "bad.csv"  # the header the others share, but for its #cores
    bad.write_text(paths[2].read_text().replace("#cores=4\n", f"#cores={cores}\n"))
    code, out, err = run_cli(["fit", *paths, bad, paths[0]], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {bad}: {message}\n"


def test_sensor_model_error_names_the_model_file(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    model_path = tmp_path / "list.json"
    model_path.write_text("[1, 2]")
    code, _, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2
    assert err.startswith(f"error: {model_path}: ") and str(series) not in err


# --- every number in a JSON input is a JSON number a double can hold ---

# (input, field); "m" stands for the first of the seven m-coefficients
JSON_FIELDS = [
    ("coeffs", "m"), ("coeffs", "a2"), ("sensor model", "alpha"), ("sensor model", "b"),
    ("observation", "freq_ghz"), ("observation", "cores"), ("observation", "a1"),
]
# the JSON text that replaces the field's number; None removes the field
NOT_DOUBLES = {"string": '"0.5"', "true": "true", "null": "null",
               "400-digit": "1" + "0" * 400, "1e999": "1e999", "missing": None}


@pytest.mark.parametrize("value", NOT_DOUBLES.values(), ids=NOT_DOUBLES)
@pytest.mark.parametrize(("source", "field"), JSON_FIELDS)
def test_json_number_a_double_cannot_hold_exit_2(tmp_path, capsys, source, field, value):
    from thermopower.powermodel import builtin_set

    series, model_path = write_lagged_series(tmp_path)
    if source == "coeffs":
        path = tmp_path / "coeffs.json"
        data = builtin_set("A7").to_dict()
        argv = ["model", "eval", "--coeffs", path, "--temp", "50", "--freq", "1", "--cores", "2"]
    elif source == "sensor model":
        path, data = model_path, json.loads(model_path.read_text())
        argv = ["sensor-correct", series, "--model-json", path, "--out", tmp_path / "s.csv"]
    else:
        directory = write_observations(tmp_path)
        path = sorted(directory.iterdir())[0]
        data = json.loads(path.read_text())
        argv = ["model", "calibrate", directory]
    holder, key = (data["m"], 0) if field == "m" else (data, field)
    if value is None:
        del holder[key]
        path.write_text(json.dumps(data))
    else:
        holder[key] = "@"
        path.write_text(json.dumps(data).replace('"@"', value))
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_calibrate_single_file_not_a_list_exit_2(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text('{"freq_ghz": 1.0, "cores": 2, "a0": 0.1, "a1": 50.0, "a2": 33.0}')
    code, out, err = run_cli(["model", "calibrate", path], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {path}: a single observations file must hold a JSON list\n"


def test_sample_error_in_file_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    path.write_text(
        "#processor=X\n#freq_ghz=1.0\n#cores=2\n"
        "time_s,temp_c,power_w\n0.0,30.0,1.0\n\n0.2,31.0,-1.0\n0.4,32.0,1.2\n"
    )
    code, out, err = run_cli(["fit", path], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {path}: line 7: power_w must be positive, got -1.0\n"


def test_bad_flag_value_names_the_command(tmp_path, capsys):
    code, _, err = run_cli(GEN + ["--cores", "7", "--out", tmp_path / "t.csv"], capsys)
    assert code == 2
    assert err == "error: gen: cores must be an integer in 1..4, got 7\n"


@pytest.mark.filterwarnings("error")
def test_gen_quantum_finer_than_the_powers_allow_exit_2(tmp_path, capsys):
    code, out, err = run_cli(GEN + ["--quantum=1e-320", "--out", tmp_path / "g.csv"], capsys)
    assert code == 2 and out == ""
    assert err == "error: gen: power_w must be finite, got inf\n"


@pytest.mark.filterwarnings("error")
def test_sensor_correct_subnormal_time_constant_exit_0(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    code, report, err = run_json(
        ["sensor-correct", series, "--alpha", MODEL.alpha, "--a", MODEL.a, "--b=1e-320",
         "--t-init", MODEL.t_init, "--t-inf", MODEL.t_inf, "--out", tmp_path / "s.csv"], capsys)
    assert code == 0 and err == ""
    # the hotspot has reached t_inf: 1 - exp(-t/b) is 1 at every sample
    delta = MODEL.t_inf - MODEL.t_init
    den = delta * erf(MODEL.a / math.sqrt(4.0 * MODEL.alpha * 5.0)) + MODEL.t_init
    assert report["results"]["b_first"] == pytest.approx(MODEL.t_inf / den, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_sensor_correct_slopes_beyond_the_double_range_exit_0(tmp_path, capsys):
    # t_init = 1e-320 and b = 1e161 correct every temperature to a subnormal: all
    # 34 pairs of corrected slopes overflow, 25 to one infinity, which has no sign
    model = tmp_path / "model.json"
    model.write_text('{"alpha": 4.125e-07, "a": 0.00825, "b": 1e161, "t_init_c": 1e-320, '
                     '"t_inf_c": 55.0}')
    code, report, err = run_json(
        ["sensor-correct", GOLDEN_FLEET.parent / "sensor3.csv", "--model-json", model,
         "--out", tmp_path / "s.csv"], capsys)
    assert code == 0 and err == ""
    assert report["results"]["convexity"] == {
        "raw_negative_fraction": 1.0, "corrected_positive_fraction": 5 / 34}


# each float flag of each command, as --flag=VALUE with {} standing for
# the value under test; the = form keeps argparse from taking -inf as a flag
FLOAT_FLAGS = [
    ("gen", "--noise={}"), ("gen", "--quantum={}"),
    ("gen", "--params={},100.0,33.0"), ("gen", "--params=0.3,{},33.0"),
    ("gen", "--params=0.3,100.0,{}"),
    ("gen", "--sweep={},85,20"), ("gen", "--sweep=25,{},20"), ("gen", "--sweep=25,85,{}"),
    ("gen", "--freq={}"),
    ("model eval", "--temp={}"), ("model eval", "--freq={}"),
    ("debias", "--ref-temp={}"), ("debias", "--eta={},0.001"), ("debias", "--eta=0.0001,{}"),
    ("sensor-correct", "--alpha={}"), ("sensor-correct", "--a={}"), ("sensor-correct", "--b={}"),
    ("sensor-correct", "--t-init={}"), ("sensor-correct", "--t-inf={}"),
]


def float_flag_argv(tmp_path, capsys, command, flag, value):
    """command's valid argv, with flag set to value; its CSV output is out.csv."""
    series, _ = write_lagged_series(tmp_path)
    out = tmp_path / "out.csv"
    base = {
        "gen": ["gen", "--params=0.3,100.0,33.0", "--sweep=25,85,20", "--seed", "0",
                "--out", out],
        "model eval": ["model", "eval", "--proc", "A7", "--temp=50", "--freq=1", "--cores", "2"],
        "debias": ["debias", gen_trace(tmp_path, capsys), "--ref-temp=50", "--kind", "quad",
                   "--out", out],
        "sensor-correct": ["sensor-correct", series, "--alpha", MODEL.alpha, "--a", MODEL.a,
                           "--b", MODEL.b, "--t-init", MODEL.t_init, "--t-inf", MODEL.t_inf,
                           "--out", out],
    }[command]
    return base + [flag.format(value)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(("command", "flag"), FLOAT_FLAGS)
def test_non_finite_float_flag_exit_2(tmp_path, capsys, command, flag, value):
    code, out, err = run_cli(float_flag_argv(tmp_path, capsys, command, flag, value), capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Warning" not in err and "Traceback" not in err


def assert_finite_csv(path):
    """Every number below the column names of the CSV at path is finite."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(",")), path


@pytest.mark.parametrize("value", ["1e300", "-1e300", "1.7e308"])
@pytest.mark.parametrize(("command", "flag"), FLOAT_FLAGS)
def test_huge_float_flag_exits_cleanly_and_writes_only_finite_numbers(
        tmp_path, capsys, command, flag, value):
    argv = float_flag_argv(tmp_path, capsys, command, flag, value)
    code, _, err = run_cli(argv, capsys)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    if (tmp_path / "out.csv").exists():
        assert_finite_csv(tmp_path / "out.csv")


def hot_trace(tmp_path):
    """A trace whose last temperature is 1e200."""
    path = tmp_path / "hot.csv"
    path.write_text("#processor=SYN\n#freq_ghz=1.0\n#cores=2\ntime_s,temp_c,power_w\n"
                    "0.0,30.0,1.0\n0.2,40.0,1.1\n0.4,1e200,1.2\n")
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--kind", "quad", "--eta", "0.001,0.01"],
                                   ["--kind", "linear", "--eta", "1e200"]])
def test_debias_to_a_non_finite_power_exit_2_without_a_csv(tmp_path, capsys, flags):
    out = tmp_path / "d.csv"
    argv = ["debias", hot_trace(tmp_path), *flags, "--ref-temp", "35", "--out", out]
    assert run_cli(argv, capsys) == (
        2, "", "error: debias: the transformed power of sample 2 (T = 1e+200) is -inf: "
               "the transform leaves the double range\n")
    assert not out.exists()


@pytest.mark.parametrize("target", ["/dev/full", "missing/out.csv"])
@pytest.mark.parametrize(
    "command", ["gen", "debias", "sensor-correct", "fit --plot", "model calibrate --out"])
def test_a_csv_that_cannot_be_written_names_its_path(tmp_path, capsys, command, target):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    path = target if target.startswith("/") else str(tmp_path / target)
    if command == "fit --plot":
        argv = ["fit", gen_trace(tmp_path, capsys), "--plot", path]
    elif command == "model calibrate --out":
        argv = ["model", "calibrate", write_observations(tmp_path), "--out", path]
    else:  # each command's argv with its CSV at path
        argv = [path if a == tmp_path / "out.csv" else a
                for a in float_flag_argv(tmp_path, capsys, command, "--quiet", None)]
    reason = os.strerror(errno.ENOSPC if target == "/dev/full" else errno.ENOENT)
    assert run_cli(argv, capsys) == (2, "", f"error: {path}: {reason}\n")


HUGE = "9" * 100_000
HEAD, ROWS = "#freq_ghz=1.0\n#cores=2\n", "time_s,temp_c,power_w\n0.0,30.0,1.0\n0.2,40.0,1.1\n"
EVAL = ["model", "eval", "--temp", "50", "--freq", "1", "--cores", "2", "--coeffs"]
SENSOR = ["sensor-correct", "--model-json", GOLDEN_FLEET.parent / "sensor_model.json",
          "--out", "unwritten.csv"]


@pytest.mark.parametrize(("argv", "text", "message"), [
    (["fit"], HEAD + ROWS + f"0.4,x{HUGE},1.2\n", "line 6: not a number: 'x99999"),
    (["fit"], HEAD + ROWS + f"0.4,{HUGE},1.2\n", "line 6: not a finite decimal: '99999"),
    (["fit"], f"#x{HUGE}\n" + HEAD + ROWS, "line 1: bad metadata comment: '#x9999"),
    (["fit"], f"#freq_ghz=x{HUGE}\n#cores=2\n" + ROWS, "bad #freq_ghz value: 'x9999"),
    (["fit"], f"#freq_ghz=1.0\n#cores=x{HUGE}\n" + ROWS, "bad #cores value: 'x9999"),
    (EVAL, json.dumps({"label": "L", "m": "x" + HUGE, "a2": 1}),
     "m must be a list of 7 coefficients, got 'x9999"),
    (EVAL, json.dumps({"label": ["x" + HUGE], "m": [1] * 7, "a2": 1}),
     "label must be a string, got ['x9999"),
    (["model", "calibrate"], json.dumps(["x" + HUGE]),
     "an observation must be an object, got ['x9999"),
    (SENSOR, f"time_s,temp_c,x{HUGE}\n1.0,30.0,1.0\n",
     "expected columns time_s,temp_c[,power_w], got ['time_s', 'temp_c', 'x9999"),
], ids=["token", "decimal", "comment", "freq", "cores", "m", "label", "observation", "columns"])
def test_an_error_quotes_a_huge_value_in_short(tmp_path, capsys, argv, text, message):
    path = tmp_path / "in" / "input.json"
    path.parent.mkdir()
    path.write_text(text)
    # calibrate reads each file of a directory as one observation
    argv = argv + [path.parent if argv[-1] == "calibrate" else path]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: {message}")
    assert len(err) < 200, err[:300]


def test_gen_of_a_long_trace_holds_less_than_twice_its_output(tmp_path, capsys):
    # the trace's 3 columns (0.5x) and one slab of text, not the whole text
    # as a str, then as bytes
    out = tmp_path / "g.csv"
    argv = ["gen", "--params", "0.3,100,33", "--sweep", "25,85,100000", "--seed", "0",
            "--out", str(out), "--quiet"]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.stat().st_size


# --- cold start ---

def test_import_loads_only_stdlib_and_numpy():
    # compare sys.modules around the import, so that whatever site loads
    # at start-up is not counted
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import thermopower.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[0] for name in json.loads(done.stdout)}
    third_party = loaded - set(sys.stdlib_module_names) - {"thermopower"}
    assert third_party <= {"numpy"}, sorted(third_party)
    assert not loaded & {"scipy", "hypothesis", "pandas"}


# --- a fleet is parsed in chunks; the first bad file still names itself ---

FLEET_SIZE = 200


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory):
    """200 20-sample traces, t000.csv to t199.csv."""
    root = tmp_path_factory.mktemp("fleet")
    for i in range(FLEET_SIZE):
        meta = TraceMeta(("A7", "A15")[i % 2], 1.2, 1 + i % 4)
        trace = generate_synthetic_trace(meta, (0.3, 100.0, 33.0), (30.0, 80.0, 20),
                                         noise=0.002, seed=i)
        (root / f"t{i:03d}.csv").write_text(write_trace(trace))
    return root


def _chunked(monkeypatch, argv, capsys):
    """run_cli(argv) and the paths of each chunk cli parsed at once."""
    chunks = []
    parse_chunk = cli._parse_chunk

    def spy(paths, texts, run):
        chunks.append(list(paths))
        return parse_chunk(paths, texts, run)

    monkeypatch.setattr(cli, "_parse_chunk", spy)
    return run_cli(argv, capsys), chunks


def _read_once(monkeypatch):
    """A check, after each command, that cli read every path at most once."""
    reads = []
    read_bytes = cli._Run.read_bytes

    def spy(run, path):
        reads.append(path)
        return read_bytes(run, path)

    monkeypatch.setattr(cli._Run, "read_bytes", spy)

    def check(result):
        assert len(reads) == len(set(reads)), "a file was read twice"
        reads.clear()
        return result

    return check


def _broken(text: str, how: str) -> str:
    """text with one fault, padded with trailing newlines to its length, so
    the chunks hold the same files."""
    lines = text.split("\n")  # 3 metadata lines, the header, 20 rows
    if how == "token":
        lines[6] = "0.4,26.5,2.1x"
    elif how == "time":
        lines[6] = "0.2" + lines[6][3:]
    elif how == "short":
        lines = lines[:6]
    elif how == "meta":
        del lines[2]
    elif how == "header":
        lines[3] = "time_s,temp_c,power"
    broken = "\n".join(lines)
    assert len(broken) <= len(text)
    return broken + "\n" * (len(text) - len(broken))


# the parent's stderr for each fault, after "error: <path>: "
FAULTS = {
    "token": "line 7: not a number: '2.1x'",
    "time": "line 7: time must strictly increase (0.2 then 0.2)",
    "short": "a trace needs at least 3 samples, got 2",
    "meta": "missing #cores header",
    "header": "line 4: expected header 'time_s,temp_c,power_w'",
}
MISSING = "error: [Errno 2] No such file or directory: 'missing.csv'\n"


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("place", ["first", "last in a chunk", "first in the next"])
def test_fleet_fit_names_the_first_bad_file_wherever_its_chunk_starts(
        fleet_dir, monkeypatch, capsys, tmp_path, fault, place):
    monkeypatch.chdir(fleet_dir)
    read_once = _read_once(monkeypatch)
    names = [f"t{i:03d}.csv" for i in range(FLEET_SIZE)]
    (code, _, _), chunks = read_once(_chunked(monkeypatch, ["fit", *names, "--json"], capsys))
    assert code == 0 and len(chunks) >= 3
    bad = {"first": chunks[0][0], "last in a chunk": chunks[1][-1],
           "first in the next": chunks[2][0]}[place]
    later = chunks[2][-1]  # a second bad file, which must not be the one named
    for name in (bad, later):
        (tmp_path / name).write_text(_broken((fleet_dir / name).read_text(), fault))
    monkeypatch.chdir(tmp_path)
    for name in set(names) - {bad, later}:
        (tmp_path / name).symlink_to(fleet_dir / name)

    (code, out, err), seen = read_once(_chunked(monkeypatch, ["fit", *names, "--json"], capsys))
    assert [c for c in seen if bad in c][0] == next(c for c in chunks if bad in c)
    assert (code, out, err) == (2, "", f"error: {bad}: {FAULTS[fault]}\n")

    i = names.index(bad)
    missing_first = [*names[:i], "missing.csv", *names[i:]]
    assert read_once(run_cli(["fit", *missing_first], capsys)) == (2, "", MISSING)
    missing_after = [*names[: i + 1], "missing.csv", *names[i + 1:]]
    assert read_once(run_cli(["fit", *missing_after], capsys)) == (
        2, "", f"error: {bad}: {FAULTS[fault]}\n")


def test_fleet_fit_names_a_file_that_is_not_utf8(fleet_dir, monkeypatch, capsys, tmp_path):
    names = [f"t{i:03d}.csv" for i in range(FLEET_SIZE)]
    bad = names[FLEET_SIZE // 2]
    data = (fleet_dir / bad).read_bytes().replace(b"#cores", b"#\xffcores", 1)
    with pytest.raises(UnicodeDecodeError) as decoding:
        data.decode("utf-8")
    (tmp_path / bad).write_bytes(data)
    for name in set(names) - {bad}:
        (tmp_path / name).symlink_to(fleet_dir / name)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["fit", *names, "--json"], capsys) == (
        2, "", f"error: {bad}: {decoding.value}\n")


# --- a report that cannot be written ---

EVAL = ["model", "eval", "--proc", "A15", "--temp", "50", "--freq", "1", "--cores", "2"]


@pytest.mark.parametrize("where", ["in a missing directory", "a directory"])
def test_report_that_cannot_be_written_exit_2(tmp_path, capsys, where):
    target, strerror = {
        "in a missing directory": (tmp_path / "missing" / "r.json", "No such file or directory"),
        "a directory": (tmp_path, "Is a directory"),
    }[where]
    failing = ["model", "calibrate", write_observations(tmp_path, freqs=(0.5, 0.6))]
    assert run_cli(failing, capsys)[0] == 1  # InsufficientSpan, reported
    for argv in (EVAL, failing):
        for extra in ([], ["--json"]):
            assert run_cli([*argv, *extra, "--out-report", target], capsys) == (
                2, "", f"error: {target}: {strerror}\n")


@pytest.mark.parametrize("argv", [EVAL, EVAL + ["--json"],
                                  ["fit", *sorted(GOLDEN_FLEET.iterdir()), "--json"]])
def test_report_to_a_closed_pipe_exit_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    # stdout buffered, as it is by default: what is left in the buffer is
    # flushed again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "thermopower.cli", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: stdout: Broken pipe\n")


@pytest.mark.parametrize("stdout", ["a pipe", "a closed pipe"])
@pytest.mark.parametrize("traces", ["one", "fleet"])
def test_a_report_file_that_fails_is_named_exit_2(tmp_path, capsys, traces, stdout):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # one trace's report fits the file's buffer, so the file fails as it
    # closes, after stdout took the report; the fleet's fails at a write
    paths = ([gen_trace(tmp_path, capsys)] if traces == "one"
             else sorted(GOLDEN_FLEET.iterdir()))
    argv = [sys.executable, "-m", "thermopower.cli", "fit", *map(str, paths), "--json"]
    clean = subprocess.run(argv, capture_output=True)
    assert (len(clean.stdout) < io.DEFAULT_BUFFER_SIZE) == (traces == "one")
    argv += ["--out-report", "/dev/full"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if stdout == "a pipe":
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
    else:  # what stdout holds when the file fails must not fail again at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True)
        finally:
            os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: /dev/full: No space left on device\n")
    if traces == "one" and stdout == "a pipe":  # the whole report, as a clean run wrote it
        report = json.loads(clean.stdout)
        report["command"] += ["--out-report", "/dev/full"]
        assert json.loads(done.stdout) == report


def test_report_file_is_whole_when_stdout_is_a_closed_pipe(tmp_path):
    path = tmp_path / "r.json"
    argv = [sys.executable, "-X", "dev", "-m", "thermopower.cli", "fit",
            *map(str, sorted(GOLDEN_FLEET.iterdir())), "--json", "--out-report", str(path)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    clean = subprocess.run(argv, env=env, capture_output=True)
    assert clean.returncode == 1  # concave0-2 fail the exponential fit
    report = path.read_bytes()
    assert report == clean.stdout and len(report) > 3 * io.DEFAULT_BUFFER_SIZE
    path.unlink()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: stdout: Broken pipe\n")
    assert path.read_bytes() == report


# --- the command leaves the interpreter as it found it ---

def test_main_turns_the_cyclic_collector_back_on(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text(FLAT)
    for argv, code in ((["fit", gen_trace(tmp_path, capsys)], 0),
                       (["fit", flat, "--model", "exp"], 1),
                       (["fit", tmp_path / "missing.csv"], 2)):
        assert run_cli(argv, capsys)[0] == code
        assert gc.isenabled()
    gc.disable()
    try:
        assert run_cli(["fit", flat], capsys)[0] == 1
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_fit_with_failing_exponential_fits_does_not_import_numpy_ma():
    # numpy.ma (which np.unique and np.isin pull in) costs a fleet fit
    # ~19 ms and ~1.2 MB of peak RSS; concave0-2 fail the exponential fit
    fleet = sorted(str(p) for p in GOLDEN_FLEET.iterdir())
    probe = (
        "import contextlib, io, sys\n"
        "from thermopower import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['fit', *sys.argv[1:], '--json'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, *fleet], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 False\n"

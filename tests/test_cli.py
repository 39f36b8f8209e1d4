"""End-to-end tests for the ``thermo`` command line tool.

Most cases drive ``cli.main`` in-process and inspect the JSON report;
byte-determinism runs the real console entry in a subprocess.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from thermopower import fitting
from thermopower.cli import main
from thermopower.sensor import SensorModel, b_factor, erf
from thermopower.trace import parse_table

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


def test_fit_single_family_reports_a_division_by_zero_as_a_failure(
        tmp_path, capsys, monkeypatch):
    # a fit that fails with an error that is not a ThermoError; no input
    # divides by zero any more, so stand in a zero w.w inside the search
    objective = fitting._Separable.objective

    def zero_ww(self, k, ids):
        values, _ = objective(self, k, ids)
        return values, np.ones(len(values), bool)

    monkeypatch.setattr(fitting._Separable, "objective", zero_ww)
    path = gen_trace(tmp_path, capsys)
    code, report, err = run_json(["fit", path, "--model", "exp"], capsys)
    assert code == 1 and "Traceback" not in err
    entry = report["results"]["traces"][0]
    assert entry["fits"]["exponential"] is None
    assert entry["message"] == "ZeroDivisionError: float division by zero"


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


def test_sensor_model_error_names_the_model_file(tmp_path, capsys):
    series, _ = write_lagged_series(tmp_path)
    model_path = tmp_path / "list.json"
    model_path.write_text("[1, 2]")
    code, _, err = run_cli(
        ["sensor-correct", series, "--model-json", model_path,
         "--out", tmp_path / "fixed.csv"], capsys)
    assert code == 2
    assert err.startswith(f"error: {model_path}: ") and str(series) not in err


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
